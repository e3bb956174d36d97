/// eco_refit: the inner ECO loop on a fixed design. A cold
/// MgbaRefitSession fit with a PathEngineHub, then rounds of 8 seeded
/// value-only resizes, update_timing, refit() and measure_qor; every 5th
/// round also a hub-served measure_golden_qor. There are no structural
/// edits, so the graph-rebuild path does no work here.

#include "e2e.hpp"

namespace e2e {

using namespace mgba;

void run_eco_refit(const Options& o, Report& report) {
  const DesignSpec spec = eco_design(o.smoke);
  // Sign-off QoR is read after a fixed round count, so it is deterministic
  // per seed however many rounds the window holds.
  const std::uint64_t checkpoint = o.smoke ? 10 : 100;
  report.note("design", spec.label + ", utilization 1.10, CRPR on");
  report.note("rounds", std::to_string(EcoLoop::kResizesPerRound) +
                            " resizes each, golden sign-off every 5th, QoR "
                            "read after round " +
                            std::to_string(checkpoint));

  Tracer untraced(false);
  Tracer tracer(o.trace, 1);
  LayerSet layers;

  // Several set-ups (generate, clock, timer, cold fit); the last one is
  // kept for the rounds. In a traced run the last one is traced and fits
  // step by step.
  Samples setup_s;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<EcoLoop> loop;
  for (int i = 0; i < kSetups; ++i) {
    const bool traced = o.trace && i == kSetups - 1;
    Tracer& tr = traced ? tracer : untraced;
    loop.reset();
    stack.reset();
    const double start = now_s();
    stack = build_stack(spec, tr, traced ? &layers : nullptr);
    loop = std::make_unique<EcoLoop>(*stack, o.seed);
    loop->cold_fit(tr, traced ? &layers : nullptr, &report);
    if (!traced) setup_s.add(now_s() - start);
  }

  // Rounds run for the window and at least to the checkpoint. Traced runs
  // trace every other round, so the trace overhead is measured against
  // rounds that saw the same host speed.
  QorMetrics golden_at_checkpoint;
  double pass_ratio_at_checkpoint = 0.0;
  Samples round_ms, traced_ms, signoff_ms;
  std::uint64_t index = 0;
  const double start = now_s();
  for (; index < checkpoint || now_s() - start < o.seconds; ++index) {
    const bool traced = o.trace && index % 2 == 1;
    const bool signoff = index % 5 == 4;
    const EcoLoop::RoundTimes t =
        loop->round(index, signoff, traced ? tracer : untraced,
                    traced ? &layers : nullptr);
    (traced ? traced_ms : round_ms).add(t.round_s * 1e3);
    if (signoff && !traced) signoff_ms.add(t.signoff_s * 1e3);
    if (index + 1 == checkpoint) {
      golden_at_checkpoint = loop->last_golden();
      pass_ratio_at_checkpoint = loop->last_fit().pass_ratio_after;
    }
  }
  const double peak_rss_mb = peak_rss_mb_self();

  report.add(median_metric("setup_s", setup_s, "s"));
  report.add(value_metric("peak_rss_mb", peak_rss_mb, "MB", Kind::Memory));
  // No round-time tail: its p90 spread 15-36 % over 10 runs, so it could
  // not hold any bound.
  report.add(median_metric("eco_round_ms_p50", round_ms, "ms"));
  report.add(min_metric("eco_round_ms_min", round_ms, "ms"));
  report.report_as("latency_ms_min", "eco_round_ms_min");
  report.add(median_metric("signoff_ms_p50", signoff_ms, "ms"));
  if (o.trace) {
    layers.set("trace_overhead_pct", "%",
               (traced_ms.median() / round_ms.median() - 1.0) * 100.0);
  }
  report.gate("checkpoint_reached", index >= checkpoint,
              std::to_string(index) + " rounds");
  report.add(value_metric("golden_wns_ps", golden_at_checkpoint.wns_ps, "ps",
                          Kind::Exact, Better::Higher));
  report.add(value_metric("golden_tns_ps", golden_at_checkpoint.tns_ps, "ps",
                          Kind::Exact, Better::Higher));
  report.add(value_metric("fit_pass_ratio", pass_ratio_at_checkpoint, "ratio",
                          Kind::Exact, Better::Higher));

  const RefitStats& refit = loop->session().stats();
  report.gate("refits_stayed_warm", refit.cold_rebuilds == 0,
              std::to_string(refit.warm_refits) + " warm, " +
                  std::to_string(refit.cold_rebuilds) + " cold");
  report.gate("head_matches_fresh_timer", head_matches_fresh_timer(*stack));
  report.attempts(index, 0);
  report.add(value_metric("error_rate", 0.0, "ratio", Kind::Exact));

  if (o.trace) {
    record_update_stats(stack->timer->update_stats(), layers);
    record_memory(*stack->timer, layers);
    FlowCounts counts;
    counts.cold_fits = 1 + refit.cold_rebuilds;
    counts.warm_refits = refit.warm_refits;
    record_flow_counts(counts, layers);
    report.add_layers(layers);
    write_trace_files(o, {&tracer}, layers, report);
  }
}

}  // namespace e2e
