/// closure_mgba / closure_gba: TimingCloser::run on a freshly generated
/// design per rep, with mGBA refreshes every 4 passes or plain GBA, then a
/// golden PBA sign-off. The design is the same every rep and every seed:
/// the closure flow has no random input besides its design, and closure
/// cost varies 2-3x between generated designs of one size, which would
/// swamp any regression bound.

#include <algorithm>
#include <limits>

#include "e2e.hpp"
#include "opt/optimizer.hpp"

namespace e2e {

using namespace mgba;

namespace {

/// Timestamps every TransformListener callback. The gaps between callbacks
/// partition TimingCloser::run(); the callback that opens a gap names it.
class GapListener : public TransformListener {
 public:
  explicit GapListener(const Library& library) : library_(&library) {}

  void on_resize(InstanceId inst, std::size_t old_cell,
                 std::size_t new_cell) override {
    const bool up = library_->cell(new_cell).area_um2 >
                    library_->cell(old_cell).area_um2;
    events_.push_back({now_s(), up ? Kind::Upsize : Kind::Downsize, inst});
  }
  void on_buffer_inserted(InstanceId buffer, NetId, const Terminal&,
                          std::size_t, Point) override {
    events_.push_back({now_s(), Kind::BufferIn, buffer});
  }
  void on_buffer_removed(InstanceId buffer, NetId) override {
    events_.push_back({now_s(), Kind::BufferOut, buffer});
  }

  struct Summary {
    Samples buffer_trial_ms;  ///< gaps opened by on_buffer_inserted
    Samples resize_trial_ms;  ///< gaps opened by an upsize trial
    double recovery_s = 0.0;  ///< first recovery downsize to run() end
  };

  /// Records one child span of \p parent per gap and summarizes them.
  /// Area recovery starts at the first downsize that does not revert the
  /// upsize right before it (closure-loop reverts always follow their
  /// trial immediately); everything after it is one "opt.recovery" span.
  Summary summarize(double run_start, double run_end, Tracer& tracer,
                    int parent, std::uint64_t rep) const {
    Summary s;
    std::size_t recovery = events_.size();
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const bool reverts_trial = i > 0 &&
                                 events_[i - 1].kind == Kind::Upsize &&
                                 events_[i - 1].inst == events_[i].inst;
      if (events_[i].kind == Kind::Downsize && !reverts_trial) {
        recovery = i;
        break;
      }
    }
    const auto time_of = [&](std::size_t i) {
      return i < events_.size() ? events_[i].t : run_end;
    };
    tracer.record("opt.select", run_start, time_of(0), rep, parent);
    for (std::size_t i = 0; i < recovery; ++i) {
      const double end = time_of(i + 1);
      const double gap_ms = (end - events_[i].t) * 1e3;
      const char* name = "opt.select";
      if (events_[i].kind == Kind::BufferIn) {
        name = "opt.buffer_trial";
        s.buffer_trial_ms.add(gap_ms);
      } else if (events_[i].kind == Kind::Upsize) {
        name = "opt.resize_trial";
        s.resize_trial_ms.add(gap_ms);
      }
      tracer.record(name, events_[i].t, end, rep, parent);
    }
    if (recovery < events_.size()) {
      s.recovery_s = run_end - events_[recovery].t;
      tracer.record("opt.recovery", events_[recovery].t, run_end, rep, parent);
    }
    return s;
  }

 private:
  enum class Kind { Upsize, Downsize, BufferIn, BufferOut };
  struct Event {
    double t;
    Kind kind;
    InstanceId inst;
  };
  const Library* library_;
  std::vector<Event> events_;
};

struct RepResult {
  bool traced = false;
  double setup_s = 0.0;
  double closure_s = 0.0;
  OptimizerReport report;
  QorMetrics golden;
  double fit_pass_ratio = std::numeric_limits<double>::quiet_NaN();
  GapListener::Summary gaps;
  Timer::UpdateStats stats;
  std::vector<RefitStats> refits;
};

/// One rep: set-up, closure, golden sign-off; with \p pass_ratio also a
/// cold fit of the closed design, whose Table 3 pass ratio is recorded.
/// With \p rebuild_probe (traced reps only) the set-up design's rebuild
/// path is timed before the closure starts.
RepResult closure_rep(const DesignSpec& spec, bool use_mgba, std::uint64_t rep,
                      bool pass_ratio, Tracer& tracer, LayerSet* layers,
                      Report* rebuild_probe) {
  RepResult r;
  r.traced = tracer.enabled();
  Scope root(tracer, "e2e.closure_rep", rep);
  std::unique_ptr<Stack> stack;
  {
    Scope s(tracer, "e2e.setup", rep);
    stack = build_stack(spec, tracer, layers);
    r.setup_s = s.stop();
  }
  if (rebuild_probe != nullptr && layers != nullptr) {
    probe_rebuild(*stack, tracer, *layers, *rebuild_probe);
  }
  Timer& timer = *stack->timer;
  OptimizerOptions options;
  options.max_passes = 25;
  options.use_mgba = use_mgba;
  options.mgba_refresh_passes = 4;
  TimingCloser closer(stack->design(), timer, stack->table, options);
  GapListener listener(stack->library);
  if (tracer.enabled()) closer.set_transform_listener(&listener);
  {
    Scope s(tracer, "opt.closure", rep);
    r.report = closer.run();
    r.closure_s = s.stop();
    if (tracer.enabled()) {
      r.gaps = listener.summarize(s.start(), s.start() + r.closure_s, tracer,
                                  s.index(), rep);
    }
  }
  r.stats = timer.update_stats();
  r.refits = closer.mgba_refit_stats();
  {
    Scope s(tracer, "e2e.signoff", rep);
    PathEngineHub hub(timer);
    {
      Scope p(tracer, "pba.sync", rep);
      hub.engine(EcoLoop::kGoldenPathsPerEndpoint).sync();
    }
    {
      Scope p(tracer, "pba.golden_eval", rep);
      r.golden = measure_golden_qor(timer, stack->table, hub,
                                    EcoLoop::kGoldenPathsPerEndpoint);
    }
  }
  if (pass_ratio) {
    Scope s(tracer, "mgba.accuracy_fit", rep);
    r.fit_pass_ratio = run_mgba_flow(timer, stack->table).pass_ratio_after;
  }
  if (layers != nullptr) record_memory(timer, *layers);
  return r;
}

/// Exact agreement of two reps on sign-off QoR and on what the closer did.
bool same_outcome(const RepResult& a, const RepResult& b) {
  const OptimizerReport& x = a.report;
  const OptimizerReport& y = b.report;
  return a.golden.wns_ps == b.golden.wns_ps &&
         a.golden.tns_ps == b.golden.tns_ps &&
         a.golden.area_um2 == b.golden.area_um2 &&
         a.golden.buffer_count == b.golden.buffer_count &&
         a.golden.violations == b.golden.violations &&
         x.passes == y.passes && x.upsizes == y.upsizes &&
         x.downsizes == y.downsizes &&
         x.buffers_inserted == y.buffers_inserted &&
         x.buffers_reverted == y.buffers_reverted &&
         x.transforms_attempted == y.transforms_attempted;
}

}  // namespace

void run_closure(const Options& o, bool use_mgba, Report& report) {
  const DesignSpec spec = closure_design(o.smoke);
  report.note("design", spec.label + ", utilization 1.10, CRPR on");
  report.note("flow", use_mgba ? "mGBA refreshed every 4 passes, 25 passes"
                               : "plain GBA, 25 passes");

  // Traced runs alternate untraced and traced reps, so the trace overhead
  // is measured against reps that saw the same host speed.
  const std::size_t min_reps = o.trace ? 4 : 3;
  Tracer untraced(false);
  Tracer tracer(o.trace, 1);
  LayerSet layers;
  std::vector<RepResult> reps;
  const double start = now_s();
  while (reps.size() < min_reps || now_s() - start < o.seconds) {
    const bool traced = o.trace && reps.size() % 2 == 1;
    reps.push_back(closure_rep(spec, use_mgba, reps.size(),
                               use_mgba && reps.empty(),
                               traced ? tracer : untraced,
                               traced ? &layers : nullptr,
                               reps.size() == 1 ? &report : nullptr));
  }
  const double peak_rss_mb = peak_rss_mb_self();

  Samples setup_s, closure_s, traced_closure_s;
  for (const RepResult& r : reps) {
    if (r.traced) {
      traced_closure_s.add(r.closure_s);
      continue;
    }
    setup_s.add(r.setup_s);
    closure_s.add(r.closure_s);
  }
  const RepResult& first = reps.front();
  report.add(median_metric("setup_s", setup_s, "s"));
  report.add(value_metric("peak_rss_mb", peak_rss_mb, "MB", Kind::Memory));
  report.add(median_metric("closure_s", closure_s, "s"));
  // Every rep does the same work (gated below), so the fastest one is the
  // closure's cost with the least interference from the host.
  report.add(min_metric("closure_s_min", closure_s, "s"));
  report.report_as("latency_ms_min", "closure_s_min", 1e3);
  report.add(value_metric("golden_wns_ps", first.golden.wns_ps, "ps",
                          Kind::Exact, Better::Higher));
  report.add(value_metric("golden_tns_ps", first.golden.tns_ps, "ps",
                          Kind::Exact, Better::Higher));
  report.add(value_metric("area_um2", first.golden.area_um2, "um2",
                          Kind::Exact));
  report.add(value_metric("buffers_added",
                          static_cast<double>(first.report.buffers_inserted),
                          "count", Kind::Exact));
  if (use_mgba) {
    report.add(value_metric("fit_pass_ratio", first.fit_pass_ratio, "ratio",
                            Kind::Exact, Better::Higher));
  }

  if (o.trace) {
    for (const RepResult& r : reps) {
      if (!r.traced) continue;
      for (const double v : r.gaps.buffer_trial_ms.values()) {
        layers.add("opt.buffer_trial_ms", "ms", v);
      }
      for (const double v : r.gaps.resize_trial_ms.values()) {
        layers.add("opt.resize_trial_ms", "ms", v);
      }
      layers.add("opt.recovery_s", "s", r.gaps.recovery_s);
      layers.add("mgba.fit_s", "s", r.report.mgba_seconds);
    }
    layers.set("trace_overhead_pct", "%",
               (traced_closure_s.median() / closure_s.median() - 1.0) * 100.0);

    const RepResult& last =
        *std::find_if(reps.rbegin(), reps.rend(),
                      [](const RepResult& r) { return r.traced; });
    record_update_stats(last.stats, layers);
    FlowCounts counts;
    counts.transforms_attempted = last.report.transforms_attempted;
    counts.buffer_trials =
        last.report.buffers_inserted + last.report.buffers_reverted;
    counts.accepted = last.report.upsizes + last.report.downsizes +
                      last.report.buffers_inserted;
    for (const RefitStats& st : last.refits) {
      counts.cold_fits += st.cold_rebuilds;
      counts.warm_refits += st.warm_refits;
    }
    record_flow_counts(counts, layers);
  }

  std::size_t disagreeing = 0;
  std::string detail;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (!same_outcome(first, reps[i])) {
      ++disagreeing;
      detail += " rep" + std::to_string(i);
    }
  }
  report.gate("reps_agree", disagreeing == 0,
              std::to_string(reps.size()) + " reps" +
                  (detail.empty() ? "" : ", differ:" + detail));
  report.gate("closure_did_work", first.report.transforms_attempted > 0);
  report.attempts(reps.size(), disagreeing);
  report.add(value_metric("error_rate",
                          static_cast<double>(disagreeing) /
                              static_cast<double>(reps.size()),
                          "ratio", Kind::Exact));
  if (o.trace) {
    report.add_layers(layers);
    write_trace_files(o, {&tracer}, layers, report);
  }
}

}  // namespace e2e
