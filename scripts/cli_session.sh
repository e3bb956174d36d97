#!/usr/bin/env bash
# mgba_timer's subcommands load, fit and close timing through the session
# the timing shell uses, so they read their inputs as the shell does:
#   1. `report --sdc` with create_clock and set_clock_uncertainty prints
#      what `report --period P --uncertainty U` prints;
#   2. under --derates + --corners, report's per-corner setup and hold WNS
#      equal the shell's `report_wns -corner C [-early]` after read_derates,
#      read_netlist and read_corners, compared as numbers;
#   3. `optimize --out` to an unwritable path exits 3 before it prints a
#      QoR line; `--out` may name the input netlist; a run that fails
#      leaves an existing `--out` file as it was;
#   4. `fit --solver` with an unknown solver name exits 2;
#   5. `fit --sdc` with a false path prints a finite MSE: the endpoint has
#      no requirement in GBA or golden PBA, so it makes no row;
#   6. an SDC without create_clock leaves the period to --utilization, as
#      no SDC does;
#   7. a numeric option that is not a finite number (`--period 15OO`,
#      `--period nan`) exits 2.
#
# Usage: cli_session.sh <mgba_timer> [threads]
set -euo pipefail

timer=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
threads=${2:-1}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

run() {
  local command=$1
  shift
  "$timer" "$command" --threads "$threads" "$@"
}
run generate --design 1 --out d1.net > /dev/null

# 1. The SDC's clock uncertainty reaches the timer.
printf 'create_clock -period 1500 [get_ports CLK]\nset_clock_uncertainty 50\n' \
  > clock.sdc
if ! diff <(run report --netlist d1.net --sdc clock.sdc) \
    <(run report --netlist d1.net --period 1500 --uncertainty 50); then
  echo "report --sdc differs from --period 1500 --uncertainty 50" >&2
  exit 1
fi

# 2. Derates + corners: the CLI's per-corner WNS is the shell's.
cat > table.derates <<'EOF'
depth 2 4 8 16
0.5 1.20 1.15 1.10 1.06
1.0 1.24 1.18 1.13 1.08
2.0 1.30 1.22 1.16 1.10
EOF
printf 'corner slow delay 1.15 slew 1.08 derate_margin 1.25\n' > two.corners
printf 'corner fast delay 0.85 derate_margin 0.75\n' >> two.corners
report=$(run report --netlist d1.net --period 1500 --derates table.derates \
  --corners two.corners)
{
  echo 'read_derates table.derates'
  echo 'read_netlist d1.net -period 1500'
  echo 'read_corners two.corners'
  for corner in slow fast; do
    echo "report_wns -corner $corner"
    echo "report_wns -corner $corner -early"
  done
} > wns.mgbash
shell=$("$timer" --threads "$threads" --script wns.mgbash)
for corner in slow fast; do
  for check in setup hold; do
    flag=''
    [[ $check == hold ]] && flag=' -early'
    cli_wns=$(sed -n "s/^$check \[corner '$corner'\]: WNS=\([^p]*\)ps.*/\1/p" \
      <<<"$report")
    shell_wns=$(awk -v cmd="mgba> report_wns -corner $corner$flag" \
      'found { print $5; exit } $0 == cmd { found = 1 }' <<<"$shell")
    # report prints WNS to 0.01 ps, the shell to 1e-6 ps.
    if ! awk -v a="$cli_wns" -v b="$shell_wns" \
        'BEGIN { d = a - b; exit !(a != "" && b != "" && d <= 0.005 && d >= -0.005) }'; then
      echo "$check WNS at '$corner': report prints '$cli_wns' ps, the shell '$shell_wns' ps" >&2
      exit 1
    fi
  done
done

# 3. An unwritable --out is an unwritable file, found before the closure.
status=0
out=$(run optimize --netlist d1.net --period 1500 --passes 0 \
  --out missing_dir/out.net 2> /dev/null) || status=$?
if [[ $status != 3 ]]; then
  echo "optimize --out to an unwritable path exits $status, not 3" >&2
  exit 1
fi
if [[ -n $out ]]; then
  echo "optimize --out to an unwritable path printed before failing:" >&2
  echo "$out" >&2
  exit 1
fi
#    The probe truncates nothing: optimizing in place reads the netlist
#    and writes what a run to another file writes...
run optimize --netlist d1.net --out fresh.net --period 1500 --passes 0 \
  > /dev/null
cp d1.net inplace.net
status=0
run optimize --netlist inplace.net --out inplace.net --period 1500 \
  --passes 0 > /dev/null 2>&1 || status=$?
if [[ $status != 0 ]] || ! cmp -s fresh.net inplace.net; then
  echo "optimize --out <its own netlist> exits $status or writes other" \
    "bytes than a run to a new file" >&2
  exit 1
fi
#    ...and a run that fails after the probe leaves --out as it was.
printf 'keep me\n' > kept.net
status=0
run optimize --netlist d1.net --period 15OO --out kept.net \
  > /dev/null 2>&1 || status=$?
if [[ $status != 2 || $(cat kept.net) != 'keep me' ]]; then
  echo "a failed optimize (exit $status) touched its --out file" >&2
  exit 1
fi

# 4. An unknown solver is a usage mistake.
status=0
run fit --netlist d1.net --period 1500 --solver nonsense \
  > /dev/null 2>&1 || status=$?
if [[ $status != 2 ]]; then
  echo "fit --solver nonsense exits $status, not 2" >&2
  exit 1
fi

# 5. A false-path endpoint makes no row: the fit's MSE stays finite.
printf 'create_clock -period 20000 [get_ports CLK]\n' > fp.sdc
printf 'set_false_path -to [get_pins ff_5/D]\n' >> fp.sdc
mse=$(run fit --netlist d1.net --sdc fp.sdc | grep '^  mse')
if grep -qi 'nan\|inf' <<<"$mse"; then
  echo "fit --sdc with a false path prints '$mse'" >&2
  exit 1
fi

# 6. Only create_clock sets the period: an SDC of uncertainty alone keeps
#    the one --utilization derives.
printf 'set_clock_uncertainty 50\n' > unc.sdc
if ! diff <(run stats --netlist d1.net --utilization 1.05 | grep period) \
    <(run stats --netlist d1.net --sdc unc.sdc --utilization 1.05 \
      | grep period); then
  echo "an SDC without create_clock changes the derived period" >&2
  exit 1
fi

# 7. A number with trailing text, or no finite number, is a usage mistake.
for period in 15OO nan; do
  status=0
  run report --netlist d1.net --period "$period" > /dev/null 2>&1 ||
    status=$?
  if [[ $status != 2 ]]; then
    echo "report --period $period exits $status, not 2" >&2
    exit 1
  fi
done
echo "CLI session OK (threads=$threads)"
