#!/usr/bin/env bash
# One-corner --corners regression for mgba_timer: a corner spec that
# declares a single corner is a corner set of one. Under such a spec,
# `optimize` must start from the setup WNS that `report` prints, and `fit`
# must print the mse line that the timing shell prints after read_corners +
# fit_mgba on the same netlist.
#
# Usage: one_corner_cli.sh <mgba_timer> [threads]
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
run generate --design 2 --out d2.net > /dev/null
echo 'corner slow derate_margin 1.5' > slow.corners
common=(--netlist d2.net --period 1500 --corners slow.corners)

# report prints WNS to 0.01 ps and optimize to 0.1 ps, so compare the
# numbers, not the text.
report_wns=$(run report "${common[@]}" |
  sed -n "s/^setup \[corner 'slow'\]: WNS=\([^p]*\)ps.*/\1/p")
initial_wns=$(run optimize "${common[@]}" --passes 0 |
  sed -n 's/^  initial WNS=\([^p]*\)ps.*/\1/p')
if ! awk -v a="$report_wns" -v b="$initial_wns" \
    'BEGIN { d = a - b; exit !(a != "" && b != "" && d <= 0.05 && d >= -0.05) }'; then
  echo "optimize starts from WNS '$initial_wns' ps; report reads '$report_wns' ps" >&2
  exit 1
fi

cli_mse=$(run fit "${common[@]}" | grep '^  mse ')
printf 'read_netlist d2.net -period 1500\nread_corners slow.corners\nfit_mgba\n' \
  > fit.mgbash
shell_mse=$("$timer" --threads "$threads" --script fit.mgbash |
  grep '^  mse ')
if [[ -z $cli_mse || $cli_mse != "$shell_mse" ]]; then
  echo "fit prints '$cli_mse'; the shell's fit_mgba prints '$shell_mse'" >&2
  exit 1
fi
echo "one-corner CLI OK (threads=$threads)"
