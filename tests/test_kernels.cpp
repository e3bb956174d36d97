/// Kernel tests: every kernel must match a plain per-element C++
/// expression on randomized inputs seeded with ±inf / denormal /
/// signed-zero edge values (NaN-free — the engine never feeds NaN into a
/// sweep); reductions must follow the one canonical blocked order
/// documented in kernels.hpp; and at the engine level the full sweep and
/// the incremental frontier must land on the timing-state bits of a freshly
/// built Timer at 1 and 4 threads. The tier-1 script re-runs Kernel* under
/// ASan+UBSan.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "netlist/design.hpp"
#include "sta/kernels.hpp"
#include "sta/state_signature.hpp"
#include "sta/timer.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mgba {
namespace {

using testing_helpers::GeneratedStack;
using testing_helpers::small_options;

struct ThreadGuard {
  std::size_t saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

/// Randomized doubles with every NaN-free edge class the sweeps can see:
/// ±infinity (unconstrained-path sentinels), denormals, both signed zeros,
/// and magnitudes from 1e-300 to 1e300.
std::vector<double> edge_vec(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_index(12)) {
      case 0:
        v[i] = kInf;
        break;
      case 1:
        v[i] = -kInf;
        break;
      case 2:
        v[i] = 0.0;
        break;
      case 3:
        v[i] = -0.0;
        break;
      case 4:
        v[i] = kDenorm * static_cast<double>(1 + rng.uniform_index(9));
        break;
      case 5:
        v[i] = -kDenorm * static_cast<double>(1 + rng.uniform_index(9));
        break;
      case 6:
        v[i] = rng.uniform(-1e300, 1e300);
        break;
      case 7:
        v[i] = rng.uniform(-1e-300, 1e-300);
        break;
      default:
        v[i] = rng.uniform(-5000.0, 5000.0);
        break;
    }
  }
  return v;
}

std::vector<std::uint32_t> index_vec(std::size_t n, std::size_t bound,
                                     std::uint64_t seed) {
  std::vector<std::uint32_t> idx(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    idx[i] = static_cast<std::uint32_t>(rng.uniform_index(bound));
  }
  return idx;
}

/// Lengths that straddle the unrolled bodies and the kBlock reduction
/// boundary (0, short tails, one/many blocks ± 1).
const std::size_t kLengths[] = {0,
                               1,
                               2,
                               3,
                               5,
                               8,
                               13,
                               31,
                               257,
                               kernels::kBlock - 1,
                               kernels::kBlock,
                               kernels::kBlock + 1,
                               3 * kernels::kBlock - 3,
                               3 * kernels::kBlock + 5};

// --- canonical blocked reduction order ---------------------------------------

// MIN(p, q) = p < q ? p : q — resolves -0.0/+0.0 ties toward q.
double vmin(double p, double q) { return p < q ? p : q; }

/// Independent reimplementation of the canonical order documented in
/// kernels.hpp: kBlock-element blocks, four interleaved accumulators
/// (element j of a block feeds accumulator j % 4), the fixed combine
/// (a0 op a2) op (a1 op a3), and a sequential fold of block results.
double canonical_min(const double* x, std::size_t n) {
  double total = kInf;
  for (std::size_t b = 0; b < n; b += kernels::kBlock) {
    const std::size_t m = std::min(kernels::kBlock, n - b);
    double acc[4] = {kInf, kInf, kInf, kInf};
    for (std::size_t j = 0; j < m; ++j) acc[j & 3] = vmin(acc[j & 3], x[b + j]);
    total = vmin(total, vmin(vmin(acc[0], acc[2]), vmin(acc[1], acc[3])));
  }
  return total;
}

double canonical_sum_neg(const double* x, std::size_t n) {
  double total = 0.0;
  for (std::size_t b = 0; b < n; b += kernels::kBlock) {
    const std::size_t m = std::min(kernels::kBlock, n - b);
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < m; ++j) {
      acc[j & 3] += x[b + j] < 0.0 ? x[b + j] : 0.0;
    }
    total += (acc[0] + acc[2]) + (acc[1] + acc[3]);
  }
  return total;
}

double canonical_dot(const double* vals, const std::uint32_t* cols,
                     const double* x, std::size_t n) {
  double total = 0.0;
  for (std::size_t b = 0; b < n; b += kernels::kBlock) {
    const std::size_t m = std::min(kernels::kBlock, n - b);
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < m; ++j) {
      acc[j & 3] += vals[b + j] * x[cols[b + j]];
    }
    total += (acc[0] + acc[2]) + (acc[1] + acc[3]);
  }
  return total;
}

bool same_double(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// There is one kernel implementation; the KernelTierEquality suite checks
// it against the per-element expressions and the canonical fold above.

TEST(KernelTierEquality, ElementwiseKernels) {
  for (const std::size_t n : kLengths) {
    const std::vector<double> base = edge_vec(n, 1000 + n);
    const std::vector<double> fd = edge_vec(n, 2000 + n);
    const std::vector<double> fw = edge_vec(n, 3000 + n);
    const std::vector<double> arr = edge_vec(n, 4000 + n);
    const std::vector<double> y0 = edge_vec(n, 5000 + n);
    const std::vector<std::uint32_t> idx =
        index_vec(n, n == 0 ? 1 : n, 6000 + n);

    std::vector<double> eff(n), cand(n), sub(n), gath(n), factor(n);
    std::vector<std::uint8_t> ne(n);
    std::vector<double> ax = y0;
    std::vector<double> sc = y0;
    kernels::eff_cand(base.data(), fd.data(), fw.data(), arr.data(),
                      eff.data(), cand.data(), n);
    kernels::subtract(base.data(), fd.data(), sub.data(), n);
    kernels::axpy(1.75, fw.data(), ax.data(), n);
    kernels::scale(-0.375, sc.data(), n);
    kernels::gather(arr.data(), idx.data(), gath.data(), n);
    kernels::weight_factor(base.data(), 0.05, factor.data(), n);
    kernels::flag_ne(base.data(), fd.data(), ne.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const double e = (base[i] * fd[i]) * fw[i];
      const double s = 1.0 + base[i];
      EXPECT_TRUE(same_double(eff[i], e)) << "eff n=" << n << " i=" << i;
      EXPECT_TRUE(same_double(cand[i], arr[i] + e))
          << "cand n=" << n << " i=" << i;
      EXPECT_TRUE(same_double(sub[i], base[i] - fd[i]))
          << "subtract n=" << n << " i=" << i;
      EXPECT_TRUE(same_double(ax[i], y0[i] + 1.75 * fw[i]))
          << "axpy n=" << n << " i=" << i;
      EXPECT_TRUE(same_double(sc[i], y0[i] * -0.375))
          << "scale n=" << n << " i=" << i;
      EXPECT_TRUE(same_double(gath[i], arr[idx[i]]))
          << "gather n=" << n << " i=" << i;
      EXPECT_TRUE(same_double(factor[i], 0.05 > s ? 0.05 : s))
          << "weight_factor n=" << n << " i=" << i;
      EXPECT_EQ(ne[i], base[i] != fd[i] ? 1 : 0)
          << "flag_ne n=" << n << " i=" << i;
    }
  }
}

TEST(KernelTierEquality, ProbeKernel) {
  for (const std::size_t n : kLengths) {
    const std::vector<double> base = edge_vec(n, 1000 + n);
    // Delay-memo probe: ~30% misses, split between a stale key and stale
    // slew bits.
    std::vector<std::uint64_t> memo_bits(n);
    std::vector<std::uint32_t> memo_key(n), want_key(n);
    Rng rng(7100 + n);
    for (std::size_t i = 0; i < n; ++i) {
      want_key[i] = static_cast<std::uint32_t>(rng.uniform_index(1u << 20));
      memo_key[i] = want_key[i];
      memo_bits[i] = std::bit_cast<std::uint64_t>(base[i]);
      const std::size_t miss = rng.uniform_index(10);
      if (miss < 2) memo_key[i] ^= 1u;
      if (miss == 2) memo_bits[i] ^= 0x10u;
    }
    std::vector<std::uint8_t> hit(n);
    const std::size_t hits =
        kernels::probe(base.data(), memo_bits.data(), memo_key.data(),
                       want_key.data(), hit.data(), n);
    std::size_t want_hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool h = memo_key[i] == want_key[i] &&
                     memo_bits[i] == std::bit_cast<std::uint64_t>(base[i]);
      EXPECT_EQ(hit[i], h ? 1 : 0) << "probe n=" << n << " i=" << i;
      want_hits += h ? 1 : 0;
    }
    EXPECT_EQ(hits, want_hits) << "probe n=" << n;
  }
}

TEST(KernelTierEquality, Reductions) {
  for (const std::size_t n : kLengths) {
    const std::vector<double> fw = edge_vec(n, 3000 + n);
    const std::vector<double> arr = edge_vec(n, 4000 + n);
    const std::vector<std::uint32_t> idx =
        index_vec(n, n == 0 ? 1 : n, 6000 + n);
    // Reductions against the canonical fold written out above.
    std::size_t negatives = 0;
    for (std::size_t i = 0; i < n; ++i) negatives += arr[i] < 0.0 ? 1 : 0;
    EXPECT_EQ(kernels::count_neg(arr.data(), n), negatives) << "n=" << n;
    EXPECT_TRUE(same_double(kernels::reduce_min(arr.data(), n),
                            canonical_min(arr.data(), n)))
        << "reduce_min n=" << n;
    EXPECT_TRUE(same_double(kernels::reduce_sum_neg(arr.data(), n),
                            canonical_sum_neg(arr.data(), n)))
        << "reduce_sum_neg n=" << n;
    EXPECT_TRUE(same_double(
        kernels::dot_gather(fw.data(), idx.data(), arr.data(), n),
        canonical_dot(fw.data(), idx.data(), arr.data(), n)))
        << "dot_gather n=" << n;
  }
}

TEST(KernelReduction, MatchesCanonicalBlockOrderAtEveryTier) {
  for (const std::size_t n : kLengths) {
    // Finite values only: sums over random ±inf mixes produce NaN, which
    // never compares equal and is not a state the engine feeds reductions.
    std::vector<double> x(n);
    Rng rng(9000 + n);
    for (std::size_t i = 0; i < n; ++i) x[i] = rng.uniform(-3000.0, 1000.0);
    EXPECT_TRUE(
        same_double(kernels::reduce_min(x.data(), n), canonical_min(x.data(), n)))
        << "n=" << n;
    EXPECT_TRUE(same_double(kernels::reduce_sum_neg(x.data(), n),
                            canonical_sum_neg(x.data(), n)))
        << "n=" << n;
  }
}

TEST(KernelReduction, MinInvariantUnderIdentityPadding) {
  // Appending +inf identity elements extends or adds blocks but must not
  // move any existing element to a different accumulator — the result is
  // bit-identical at every padded length.
  const std::size_t n = 2 * kernels::kBlock + 7;
  const std::vector<double> x = edge_vec(n, 9500);
  const double want = kernels::reduce_min(x.data(), n);
  for (const std::size_t pad :
       {std::size_t{1}, std::size_t{3}, kernels::kBlock - 7,
        kernels::kBlock + 9}) {
    std::vector<double> padded = x;
    padded.resize(n + pad, kInf);
    EXPECT_TRUE(same_double(
        kernels::reduce_min(padded.data(), padded.size()), want))
        << "pad=" << pad;
  }
}

// --- engine-level bit-identity ----------------------------------------------

std::optional<std::size_t> sizable_sibling(const Library& library,
                                           const Design& design,
                                           InstanceId inst) {
  const LibCell& cell = design.cell_of(inst);
  if (cell.kind == CellKind::FlipFlop) return std::nullopt;
  for (std::size_t j = 0; j < library.num_cells(); ++j) {
    const LibCell& c = library.cell(j);
    if (c.footprint == cell.footprint && c.name != cell.name) return j;
  }
  return std::nullopt;
}

/// A deterministic sequence of sizable (instance, sibling cell) pairs.
std::vector<std::pair<InstanceId, std::size_t>> resize_plan(
    const Library& library, const Design& design, std::size_t count,
    std::uint64_t seed) {
  std::vector<std::pair<InstanceId, std::size_t>> plan;
  Rng rng(seed);
  while (plan.size() < count) {
    const auto inst =
        static_cast<InstanceId>(rng.uniform_index(design.num_instances()));
    const auto sibling = sizable_sibling(library, design, inst);
    if (!sibling.has_value()) continue;
    if (design.instance(inst).cell == *sibling) continue;
    plan.emplace_back(inst, *sibling);
  }
  return plan;
}

std::vector<double> make_weights(std::size_t num_instances,
                                 std::uint64_t seed) {
  std::vector<double> w(num_instances);
  Rng rng(seed);
  for (double& v : w) v = rng.uniform(-0.15, 0.25);
  return w;
}

/// The state of a Timer built from scratch on \p stack's design with its
/// derates and weights: empty memo, one full sweep.
std::vector<double> fresh_signature(GeneratedStack& stack) {
  Timer fresh(stack.design(), stack.timer->constraints());
  fresh.set_instance_derates(compute_gba_derates(fresh.graph(), stack.table));
  fresh.set_instance_weights(stack.timer->instance_weights());
  fresh.update_timing();
  return state_signature(fresh);
}

struct TraceStep {
  std::vector<double> head;   ///< the stack's timer after the step
  std::vector<double> fresh;  ///< a freshly built Timer on the same inputs
};

/// Full update, a weight install, then six told resizes — the full sweep
/// and the incremental frontier — pairing the head's signature after every
/// step with a freshly built Timer's.
std::vector<TraceStep> sweep_trace(GeneratedStack& stack, std::uint64_t seed) {
  std::vector<TraceStep> steps;
  const auto record = [&] {
    steps.push_back({state_signature(*stack.timer), fresh_signature(stack)});
  };
  record();
  stack.timer->set_instance_weights(
      make_weights(stack.design().num_instances(), seed));
  stack.timer->update_timing();
  record();
  for (const auto& [inst, cell] :
       resize_plan(stack.library, stack.design(), 6, seed + 17)) {
    stack.design().resize_instance(inst, cell);
    stack.timer->invalidate_instance(inst);
    stack.timer->update_timing();
    record();
  }
  return steps;
}

TEST(KernelSweep, WeightAndResizeTraceMatchesFreshTimer) {
  ThreadGuard thread_guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_num_threads(threads);
    GeneratedStack stack(small_options(902));
    const std::vector<TraceStep> steps = sweep_trace(stack, 922);
    ASSERT_EQ(steps.size(), 8u);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      ASSERT_TRUE(same_bits(steps[i].head, steps[i].fresh))
          << "step " << i << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace mgba
