/// Google-benchmark micro-kernels for the hot paths of the library: sparse
/// matrix operations, the SCG inner loop, full and incremental timing
/// propagation, AOCV depth analysis, and path enumeration. These are the
/// primitives whose costs compose into the table-level runtimes.

#include <benchmark/benchmark.h>

#include <bit>

#include "aocv/aocv_model.hpp"
#include "bench_common.hpp"
#include "linalg/sampling.hpp"
#include "mgba/path_selection.hpp"
#include "mgba/problem.hpp"
#include "mgba/solvers.hpp"
#include "pba/path_enum.hpp"
#include "pba/path_eval.hpp"
#include "sta/kernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace mgba;
using namespace mgba::bench;

/// Lazily built shared fixtures (benchmark registration happens before
/// main, so construct on first use).
BenchStack& stack() {
  static std::unique_ptr<BenchStack> s = make_stack(3, 1.10);
  return *s;
}

MgbaProblem& problem() {
  static std::unique_ptr<MgbaProblem> p = [] {
    Timer& timer = *stack().timer;
    static PathEnumerator enumerator(timer, 20);
    static std::vector<TimingPath> paths = enumerator.all_paths();
    static PathEvaluator evaluator(timer, stack().table);
    return std::make_unique<MgbaProblem>(timer, evaluator, paths, 0.02);
  }();
  return *p;
}

void BM_CsrMatrixVectorMultiply(benchmark::State& state) {
  const CsrMatrix& m = problem().matrix();
  std::vector<double> x(m.num_cols(), 0.01);
  std::vector<double> y(m.num_rows());
  for (auto _ : state) {
    m.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.nnz()));
}
BENCHMARK(BM_CsrMatrixVectorMultiply);

void BM_StochasticGradient(benchmark::State& state) {
  MgbaProblem& p = problem();
  const std::size_t k = std::max<std::size_t>(8, p.num_rows() / 50);
  std::vector<std::size_t> rows(k);
  for (std::size_t i = 0; i < k; ++i) rows[i] = i * (p.num_rows() / k);
  std::vector<double> x(p.num_cols(), 0.01), g(p.num_cols());
  for (auto _ : state) {
    p.gradient_rows(rows, x, 10.0, g);
    benchmark::DoNotOptimize(g.data());
  }
}
BENCHMARK(BM_StochasticGradient);

void BM_ScgSolve(benchmark::State& state) {
  MgbaProblem& p = problem();
  SolverOptions options;
  options.max_iterations = static_cast<std::size_t>(state.range(0));
  options.convergence_tol = 0.0;  // fixed iteration count
  for (auto _ : state) {
    const SolveResult r = solve_scg(p, {}, options);
    benchmark::DoNotOptimize(r.x.data());
  }
}
BENCHMARK(BM_ScgSolve)->Arg(50)->Arg(200);

void BM_AliasTableDraw(benchmark::State& state) {
  const auto norms = problem().matrix().row_norms_sq();
  std::vector<double> weights(norms.begin(), norms.end());
  for (double& w : weights) w = std::max(w, 1e-9);
  const AliasTable table(weights);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.draw(rng));
  }
}
BENCHMARK(BM_AliasTableDraw);

void BM_FullTimingUpdate(benchmark::State& state) {
  Timer& timer = *stack().timer;
  const auto derates = compute_gba_derates(timer.graph(), stack().table);
  for (auto _ : state) {
    timer.set_instance_derates(derates);  // forces a full propagation
    timer.update_timing();
    benchmark::DoNotOptimize(timer.wns(Mode::Late));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(timer.graph().num_arcs()));
}
BENCHMARK(BM_FullTimingUpdate);

void BM_IncrementalTimingUpdate(benchmark::State& state) {
  Timer& timer = *stack().timer;
  Design& design = stack().design();
  timer.update_timing();
  // Alternate one gate between two drive strengths.
  InstanceId victim = kInvalidId;
  for (std::size_t i = 0; i < design.num_instances(); ++i) {
    const auto id = static_cast<InstanceId>(i);
    if (design.cell_of(id).footprint == "NAND2") {
      victim = id;
      break;
    }
  }
  const auto family = design.library().footprint_family("NAND2");
  bool toggle = false;
  for (auto _ : state) {
    design.resize_instance(victim, family[toggle ? 1 : 0]);
    toggle = !toggle;
    timer.invalidate_instance(victim);
    timer.update_timing();
    benchmark::DoNotOptimize(timer.tns(Mode::Late));
  }
}
BENCHMARK(BM_IncrementalTimingUpdate);

void BM_DepthAnalysis(benchmark::State& state) {
  const TimingGraph& graph = stack().timer->graph();
  for (auto _ : state) {
    const DepthAnalysis analysis(graph);
    benchmark::DoNotOptimize(analysis.info(0).depth);
  }
}
BENCHMARK(BM_DepthAnalysis);

void BM_PathEnumeration(benchmark::State& state) {
  Timer& timer = *stack().timer;
  timer.update_timing();
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const PathEnumerator enumerator(timer, k);
    benchmark::DoNotOptimize(
        enumerator.paths_to(timer.graph().endpoints().front()));
  }
}
BENCHMARK(BM_PathEnumeration)->Arg(1)->Arg(8)->Arg(20);

void BM_PbaPathEvaluation(benchmark::State& state) {
  Timer& timer = *stack().timer;
  timer.update_timing();
  const PathEnumerator enumerator(timer, 4);
  const std::vector<TimingPath> paths = enumerator.all_paths();
  const PathEvaluator evaluator(timer, stack().table);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(paths[i % paths.size()]));
    ++i;
  }
}
BENCHMARK(BM_PbaPathEvaluation);

// --- sweep kernels -----------------------------------------------------------
// Inputs are deterministic pseudo-random vectors sized well past
// kernels::kBlock so the blocked reductions take their full multi-block
// path.

constexpr std::size_t kKernelN = 1 << 15;

std::vector<double> random_vec(std::size_t n, std::uint64_t seed, double lo,
                               double hi) {
  std::vector<double> v(n);
  Rng rng(seed);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

void BM_KernelEffCand(benchmark::State& state) {
  const auto base = random_vec(kKernelN, 1, 1.0, 80.0);
  const auto fd = random_vec(kKernelN, 2, 0.9, 1.1);
  const auto fw = random_vec(kKernelN, 3, 0.85, 1.25);
  const auto arr = random_vec(kKernelN, 4, 0.0, 4000.0);
  std::vector<double> eff(kKernelN), cand(kKernelN);
  for (auto _ : state) {
    kernels::eff_cand(base.data(), fd.data(), fw.data(), arr.data(),
                      eff.data(), cand.data(), kKernelN);
    benchmark::DoNotOptimize(cand.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelN));
}
BENCHMARK(BM_KernelEffCand);

void BM_KernelGather(benchmark::State& state) {
  const auto src = random_vec(4 * kKernelN, 5, 0.0, 4000.0);
  std::vector<std::uint32_t> idx(kKernelN);
  Rng rng(6);
  for (auto& i : idx) {
    i = static_cast<std::uint32_t>(rng.uniform_index(src.size()));
  }
  std::vector<double> out(kKernelN);
  for (auto _ : state) {
    kernels::gather(src.data(), idx.data(), out.data(), kKernelN);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelN));
}
BENCHMARK(BM_KernelGather);

void BM_KernelProbe(benchmark::State& state) {
  const auto slew = random_vec(kKernelN, 7, 1.0, 200.0);
  std::vector<std::uint64_t> memo_bits(kKernelN);
  std::vector<std::uint32_t> memo_key(kKernelN), want_key(kKernelN);
  std::vector<std::uint8_t> hit(kKernelN);
  Rng rng(8);
  for (std::size_t i = 0; i < kKernelN; ++i) {
    // ~90% hit rate: the steady state of the solver loop's warm memo.
    const bool is_hit = rng.uniform(0.0, 1.0) < 0.9;
    memo_bits[i] = is_hit ? std::bit_cast<std::uint64_t>(slew[i]) : 0;
    want_key[i] = static_cast<std::uint32_t>(i % 37);
    memo_key[i] = is_hit ? want_key[i] : want_key[i] + 1;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::probe(slew.data(), memo_bits.data(),
                                            memo_key.data(), want_key.data(),
                                            hit.data(), kKernelN));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelN));
}
BENCHMARK(BM_KernelProbe);

void BM_KernelReduceMin(benchmark::State& state) {
  const auto x = random_vec(kKernelN, 9, -50.0, 500.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::reduce_min(x.data(), kKernelN));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelN));
}
BENCHMARK(BM_KernelReduceMin);

void BM_KernelDotGather(benchmark::State& state) {
  const auto vals = random_vec(kKernelN, 10, -1.0, 1.0);
  const auto x = random_vec(4 * kKernelN, 11, -1.0, 1.0);
  std::vector<std::uint32_t> cols(kKernelN);
  Rng rng(12);
  for (auto& c : cols) {
    c = static_cast<std::uint32_t>(rng.uniform_index(x.size()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernels::dot_gather(vals.data(), cols.data(), x.data(), kKernelN));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelN));
}
BENCHMARK(BM_KernelDotGather);

}  // namespace

BENCHMARK_MAIN();
