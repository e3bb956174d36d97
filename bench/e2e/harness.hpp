#pragma once

/// \file harness.hpp
/// Measurement harness of the end-to-end benchmark, shared by every
/// workload:
///
///   * steady-clock spans with a parent link and a request id, kept in
///     memory per thread and written at exit as a Chrome trace plus
///     per-span self times (Tracer, Scope);
///   * sample sets with percentiles and quartiles computed by the same rule
///     as Python's statistics.quantiles, so compare.py and the printed
///     quartiles agree (Samples);
///   * peak RSS of this process and of a spawned child (Child), and CPU
///     pinning;
///   * attempt / failure counting and correctness gates;
///   * the one JSON writer every output file and the result line go
///     through (JsonWriter, Report).

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

extern char** environ;

namespace e2e {

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

/// Seconds since the first call. One process-wide steady epoch, so spans
/// recorded on different threads share a time base.
inline double now_s() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// Streaming JSON writer: commas and nesting are tracked, numbers keep all
/// 17 significant digits, non-finite numbers become null.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view k) {
    separate();
    quote(k);
    out_ += ": ";
    after_key_ = true;
    return *this;
  }
  JsonWriter& value(std::string_view s) {
    separate();
    quote(s);
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) {
    separate();
    out_ += b ? "true" : "false";
    return *this;
  }
  JsonWriter& value(double d) {
    separate();
    if (!std::isfinite(d)) {
      out_ += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out_ += buf;
    }
    return *this;
  }
  JsonWriter& value(std::uint64_t n) {
    separate();
    out_ += std::to_string(n);
    return *this;
  }
  JsonWriter& value(std::int64_t n) {
    separate();
    out_ += std::to_string(n);
    return *this;
  }
  JsonWriter& value(int n) { return value(static_cast<std::int64_t>(n)); }

  [[nodiscard]] const std::string& str() const { return out_; }

  /// Writes the document to \p path; false when the file cannot be written.
  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(out_.data(), 1, out_.size(), f) == out_.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  JsonWriter& open(char c) {
    separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char c) {
    first_.pop_back();
    out_ += c;
    return *this;
  }
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ", ";
      first_.back() = false;
    }
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

/// Quantile \p p of \p sorted by the "exclusive" rule of Python's
/// statistics.quantiles (position p * (n + 1), interpolated between the two
/// neighbouring order statistics), so the quartiles printed here equal the
/// ones compare.py computes from the same values. NaN when empty.
inline double quantile_sorted(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  if (n == 1) return sorted.front();
  const double pos = p * static_cast<double>(n + 1);
  const std::size_t j = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::floor(pos)), 1, n - 1);
  const double delta = pos - static_cast<double>(j);
  return sorted[j - 1] + delta * (sorted[j] - sorted[j - 1]);
}

class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  [[nodiscard]] double quantile(double p) const {
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    return quantile_sorted(sorted, p);
  }
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const {
    return values_.empty() ? std::numeric_limits<double>::quiet_NaN()
                           : *std::min_element(values_.begin(), values_.end());
  }

 private:
  std::vector<double> values_;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  std::string name;  ///< "<layer>.<operation>"
  double start = 0.0;
  double end = 0.0;
  int parent = -1;            ///< index in the same tracer, -1 = root
  std::uint64_t request = 0;  ///< rep, round or batch the span served
};

/// Spans of one thread, kept in memory. A disabled tracer records nothing
/// (the untraced runs), so call sites need no branches.
class Tracer {
 public:
  explicit Tracer(bool enabled = false, int tid = 0)
      : enabled_(enabled), tid_(tid) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] int tid() const { return tid_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int open(std::string_view name, std::uint64_t request, double start) {
    if (!enabled_) return -1;
    spans_.push_back({std::string(name), start, start, innermost(), request});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void close(int index, double end) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = end;
    open_.erase(std::find(open_.begin(), open_.end(), index));
  }
  /// Records an already finished span under \p parent (or the innermost
  /// open span when \p parent is -1).
  void record(std::string_view name, double start, double end,
              std::uint64_t request, int parent = -1) {
    if (!enabled_) return;
    spans_.push_back({std::string(name), start, end,
                      parent >= 0 ? parent : innermost(), request});
  }

 private:
  [[nodiscard]] int innermost() const {
    return open_.empty() ? -1 : open_.back();
  }

  bool enabled_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times a region and, when the tracer is enabled, records it as a span.
/// The duration is always measured: workloads need it for their metrics
/// whether or not the run is traced.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, std::uint64_t request = 0)
      : tracer_(&tracer), start_(now_s()) {
    index_ = tracer.open(name, request, start_);
  }
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the region (idempotent) and returns its length in seconds.
  double stop() {
    if (!stopped_) {
      end_ = now_s();
      tracer_->close(index_, end_);
      stopped_ = true;
    }
    return end_ - start_;
  }
  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] double start() const { return start_; }

 private:
  Tracer* tracer_;
  double start_;
  double end_ = 0.0;
  int index_ = -1;
  bool stopped_ = false;
};

struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< duration minus the part child spans cover
};

/// Totals per span name over every tracer. Children of one span never
/// overlap (one thread, nested scopes), so self time is the duration minus
/// the sum of the children's durations.
inline std::map<std::string, SpanTotals> span_totals(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanTotals> totals;
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& tot = totals[spans[i].name];
      const double dur = spans[i].end - spans[i].start;
      ++tot.count;
      tot.total_s += dur;
      tot.self_s += dur - child[i];
    }
  }
  return totals;
}

/// The layer a span belongs to: its name up to the first '.'.
inline std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// Chrome trace-event document ("X" complete events, microseconds).
inline JsonWriter chrome_trace(const std::vector<const Tracer*>& tracers) {
  JsonWriter w;
  w.begin_object().key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      w.begin_object()
          .key("name").value(s.name)
          .key("cat").value(layer_of(s.name))
          .key("ph").value("X")
          .key("ts").value(s.start * 1e6)
          .key("dur").value((s.end - s.start) * 1e6)
          .key("pid").value(1)
          .key("tid").value(t->tid())
          .key("args").begin_object()
          .key("span").value(i)
          .key("parent").value(s.parent)
          .key("request").value(s.request)
          .end_object()
          .end_object();
    }
  }
  w.end_array().end_object();
  return w;
}

// ---------------------------------------------------------------------------
// Processes and memory
// ---------------------------------------------------------------------------

/// Restricts the calling thread, and the threads and child processes it
/// starts afterwards, to the last CPU it may run on. Returns that CPU, or
/// -1 when the affinity cannot be read or set.
inline int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

/// Peak resident set of this process so far (VmHWM), in MiB.
inline double peak_rss_mb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// A child process that is always stopped and reaped: stop() sends SIGTERM,
/// waits (SIGKILL after a grace period) and keeps the child's peak RSS from
/// wait4. The destructor stops a child the caller left running.
class Child {
 public:
  Child() = default;
  ~Child() { stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts argv[0] with its output appended to \p log_path. Returns "" or
  /// an error.
  std::string spawn(const std::vector<std::string>& argv,
                    const std::string& log_path) {
    std::vector<char*> args;
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc =
        posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      return "cannot start " + argv[0];
    }
    return "";
  }

  /// Stops and reaps the child; returns its wait status (0 if none ran).
  int stop() {
    if (pid_ <= 0) return status_;
    ::kill(pid_, SIGTERM);
    rusage ru{};
    for (int waited_ms = 0;; waited_ms += 5) {
      const pid_t r = wait4(pid_, &status_, WNOHANG, &ru);
      if (r == pid_ || r < 0) break;
      if (waited_ms == 10000) ::kill(pid_, SIGKILL);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
    pid_ = -1;
    return status_;
  }

  /// The child's peak RSS (VmHWM) in MiB; valid after stop().
  [[nodiscard]] double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  pid_t pid_ = -1;
  int status_ = 0;
  double peak_rss_mb_ = 0.0;
};

// ---------------------------------------------------------------------------
// Metrics, gates and the report
// ---------------------------------------------------------------------------

enum class Better { Lower, Higher };

/// How compare.py bounds a metric that BENCHMARK.json does not list: a
/// timing metric takes latency_ms_min's bound, a memory metric
/// peak_rss_mb's, and an exact (deterministic) one must repeat bit for bit.
/// Layer metrics carry no bound, and info metrics (how a load generator
/// kept its schedule) are reported but never judged.
enum class Kind { Timing, Memory, Exact, Layer, Info };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Better better = Better::Lower;
  Kind kind = Kind::Timing;
  std::size_t samples = 1;
  double q1 = std::numeric_limits<double>::quiet_NaN();
  double q3 = std::numeric_limits<double>::quiet_NaN();
};

/// Median of \p s times \p scale, with its quartiles and sample count.
inline Metric median_metric(std::string name, const Samples& s,
                            std::string unit, double scale = 1.0,
                            Kind kind = Kind::Timing,
                            Better better = Better::Lower) {
  Metric m;
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.kind = kind;
  m.better = better;
  m.samples = s.count();
  m.value = s.median() * scale;
  m.q1 = s.quantile(0.25) * scale;
  m.q3 = s.quantile(0.75) * scale;
  return m;
}

/// Smallest sample of \p s times \p scale (the best of the run), with the
/// sample count and quartiles of the whole set. On a shared 4-vCPU virtual
/// machine every workload slowed by 1.3-1.9x for minutes at a time, and
/// the fastest samples moved least (README, "Why the fastest sample").
inline Metric min_metric(std::string name, const Samples& s, std::string unit,
                         double scale = 1.0) {
  Metric m = median_metric(std::move(name), s, std::move(unit), scale);
  m.value = s.min() * scale;
  return m;
}

/// A single measured value.
inline Metric value_metric(std::string name, double value, std::string unit,
                           Kind kind, Better better = Better::Lower) {
  Metric m;
  m.name = std::move(name);
  m.value = value;
  m.unit = std::move(unit);
  m.kind = kind;
  m.better = better;
  return m;
}

/// Per-layer measurements of one run, keyed by metric name: sampled
/// metrics report their median, set() metrics their single value.
class LayerSet {
 public:
  void add(const std::string& name, const std::string& unit, double v) {
    Entry& e = entries_[name];
    e.unit = unit;
    e.samples.add(v);
  }
  void set(const std::string& name, const std::string& unit, double v) {
    Entry& e = entries_[name];
    e.unit = unit;
    e.samples = Samples();
    e.samples.add(v);
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return entries_.count(name) > 0;
  }
  [[nodiscard]] std::vector<Metric> metrics() const {
    std::vector<Metric> out;
    for (const auto& [name, e] : entries_) {
      out.push_back(median_metric(name, e.samples, e.unit, 1.0, Kind::Layer));
    }
    return out;
  }

 private:
  struct Entry {
    std::string unit;
    Samples samples;
  };
  std::map<std::string, Entry> entries_;
};

struct Gate {
  std::string name;
  bool passed = false;
  std::string detail;
};

/// A metric BENCHMARK.json lists, with the unit it fixes.
struct Listed {
  const char* name;
  const char* unit;
};

/// Everything one workload run produced: end-to-end metrics, per-layer
/// metrics, gates, and the attempt / failure count. It prints the
/// human-readable lines, writes the results file, and renders the final
/// result line.
class Report {
 public:
  Report(std::string workload, std::uint64_t seed, double seconds, bool trace,
         bool smoke)
      : workload_(std::move(workload)),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        smoke_(smoke) {}

  void add(Metric m) { metrics_.push_back(std::move(m)); }
  void add_layers(const LayerSet& layers) {
    for (Metric& m : layers.metrics()) layers_.push_back(std::move(m));
  }
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }
  /// Records a correctness gate; a failed gate makes the run incorrect.
  bool gate(std::string name, bool passed, std::string detail = "") {
    gates_.push_back({std::move(name), passed, std::move(detail)});
    return passed;
  }
  void attempts(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const {
    if (failed_ != 0 || attempted_ == 0) return false;
    for (const Gate& g : gates_) {
      if (!g.passed) return false;
    }
    return true;
  }

  void print() const {
    std::printf("e2e %s: seed %llu, %.0f s window, trace %d%s\n",
                workload_.c_str(), static_cast<unsigned long long>(seed_),
                seconds_, trace_ ? 1 : 0, smoke_ ? ", smoke" : "");
    for (const auto& [k, v] : notes_) {
      std::printf("  %-28s %s\n", k.c_str(), v.c_str());
    }
    const auto print_metric = [](const char* tag, const Metric& m) {
      std::printf("  %-6s %-26s %14.6g %-6s", tag, m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.samples > 1) {
        std::printf("  (%zu samples, q1 %.6g, q3 %.6g)", m.samples, m.q1,
                    m.q3);
      }
      std::printf("\n");
    };
    for (const Metric& m : metrics_) print_metric("metric", m);
    for (const Metric& m : layers_) print_metric("layer", m);
    for (const Gate& g : gates_) {
      std::printf("  gate   %-26s %s%s%s\n", g.name.c_str(),
                  g.passed ? "pass" : "FAIL", g.detail.empty() ? "" : "  ",
                  g.detail.c_str());
    }
    std::printf("  ops    attempted %zu, failed %zu\n", attempted_, failed_);
  }

  /// The results file: every metric with its unit, direction, kind,
  /// sample count and quartiles, plus the gates.
  [[nodiscard]] JsonWriter results_json() const {
    JsonWriter w;
    w.begin_object()
        .key("workload").value(workload_)
        .key("seed").value(seed_)
        .key("seconds").value(seconds_)
        .key("trace").value(trace_)
        .key("smoke").value(smoke_)
        .key("correct").value(correct())
        .key("attempted").value(attempted_)
        .key("failed").value(failed_);
    w.key("notes").begin_object();
    for (const auto& [k, v] : notes_) w.key(k).value(v);
    w.end_object();
    w.key("metrics");
    write_metrics(w, metrics_);
    w.key("layers");
    write_metrics(w, layers_);
    w.key("gates").begin_array();
    for (const Gate& g : gates_) {
      w.begin_object()
          .key("name").value(g.name)
          .key("passed").value(g.passed)
          .key("detail").value(g.detail)
          .end_object();
    }
    w.end_array().end_object();
    return w;
  }

  /// The result line reports metric \p source times \p scale under the
  /// BENCHMARK.json name \p name. The results file keeps \p source only, so
  /// compare.py judges each number once.
  void report_as(std::string name, std::string source, double scale = 1.0) {
    aliases_[std::move(name)] = {std::move(source), scale};
  }

  /// Gates the metrics of \p list (BENCHMARK.json's list for this mode:
  /// end-to-end untraced, per-layer traced) against what the run measured.
  /// A measured metric must carry the listed unit. An untraced run must
  /// measure every listed metric; a traced run reports a per-layer metric
  /// its workload has no separable call for as 0, and names those in a
  /// note.
  void check_listed(const std::vector<Listed>& list) {
    std::string missing, wrong_unit;
    for (const Listed& l : list) {
      const Metric* m = aliases_.count(l.name) ? nullptr : find(l.name);
      if (m != nullptr && m->unit != l.unit) {
        wrong_unit += (wrong_unit.empty() ? "" : ", ") + m->name;
      } else if (!listed_value(l)) {
        missing += (missing.empty() ? "" : ", ") + std::string(l.name);
      }
    }
    gate("metric_units", wrong_unit.empty(), wrong_unit);
    if (trace_) {
      note("not_measured_here", missing.empty() ? "-" : missing);
    } else {
      gate("metrics_complete", missing.empty(),
           missing.empty() ? "" : "missing " + missing);
    }
  }

  /// The final stdout line: exactly the metrics of \p list, in its units.
  [[nodiscard]] std::string result_line(const std::vector<Listed>& list) const {
    JsonWriter w;
    w.begin_object()
        .key("correct").value(correct())
        .key("attempted").value(attempted_)
        .key("failed").value(failed_)
        .key("metrics").begin_object();
    for (const Listed& l : list) {
      w.key(l.name).begin_object()
          .key("value").value(listed_value(l).value_or(0.0))
          .key("unit").value(l.unit)
          .end_object();
    }
    w.end_object().end_object();
    return w.str();
  }

 private:
  /// The value the result line reports for \p l; nullopt when the run did
  /// not measure it.
  [[nodiscard]] std::optional<double> listed_value(const Listed& l) const {
    const auto alias = aliases_.find(l.name);
    const Metric* m = alias == aliases_.end() ? find(l.name)
                                              : find(alias->second.first);
    if (m == nullptr) return std::nullopt;
    return alias == aliases_.end() ? m->value
                                   : m->value * alias->second.second;
  }

  [[nodiscard]] const Metric* find(const std::string& name) const {
    const std::vector<Metric>& pool = trace_ ? layers_ : metrics_;
    for (const Metric& m : pool) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  static const char* kind_name(Kind k) {
    switch (k) {
      case Kind::Timing: return "timing";
      case Kind::Memory: return "memory";
      case Kind::Exact: return "exact";
      case Kind::Layer: return "layer";
      case Kind::Info: return "info";
    }
    return "layer";
  }

  static void write_metrics(JsonWriter& w, const std::vector<Metric>& ms) {
    w.begin_object();
    for (const Metric& m : ms) {
      w.key(m.name).begin_object()
          .key("value").value(m.value)
          .key("unit").value(m.unit)
          .key("better").value(m.better == Better::Lower ? "lower" : "higher")
          .key("kind").value(kind_name(m.kind))
          .key("samples").value(m.samples)
          .key("q1").value(m.q1)
          .key("q3").value(m.q3)
          .end_object();
    }
    w.end_object();
  }

  std::string workload_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  bool smoke_;
  std::vector<Metric> metrics_;
  std::vector<Metric> layers_;
  std::map<std::string, std::string> notes_;
  std::map<std::string, std::pair<std::string, double>> aliases_;
  std::vector<Gate> gates_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace e2e
