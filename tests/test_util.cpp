#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "linalg/histogram.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace mgba {
namespace {

#ifndef NDEBUG
// Compiled only when assertions are: scripts/tier1.sh requires this test in
// the list of its ASan+UBSan build, so that pass fails if NDEBUG ever
// compiles MGBA_DCHECK (and CowVec::mut's assert) out of it again.
TEST(CheckDeathTest, DcheckAbortsWithAssertionsOn) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(MGBA_DCHECK(1 + 1 == 3), "MGBA_CHECK failed: 1 \\+ 1 == 3");
}
#endif

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, UniformRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.03);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinctSorted) {
  Rng rng(29);
  for (const std::size_t n : {10u, 100u, 1000u}) {
    for (const std::size_t k : {1u, 3u, 9u}) {
      const auto sample = rng.sample_without_replacement(n, k);
      ASSERT_EQ(sample.size(), k);
      EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
      EXPECT_TRUE(std::adjacent_find(sample.begin(), sample.end()) ==
                  sample.end());
      for (const std::size_t s : sample) EXPECT_LT(s, n);
    }
  }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(31);
  const auto sample = rng.sample_without_replacement(8, 8);
  ASSERT_EQ(sample.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Strings, SplitBasic) {
  const auto tokens = split("a  b\tc ");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "b");
  EXPECT_EQ(tokens[2], "c");
}

TEST(Strings, SplitEmpty) {
  EXPECT_TRUE(split("").empty());
  EXPECT_TRUE(split("   \t ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("design top", "design"));
  EXPECT_FALSE(starts_with("des", "design"));
}

TEST(Strings, Format) {
  EXPECT_EQ(str_format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(str_format("%.2f", 1.2345), "1.23");
}

TEST(Histogram, BinningAndEdges) {
  Histogram h(0.0, 1.0, 10);
  h.add(0.05);   // bin 0
  h.add(0.999);  // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(5.0);    // clamps to bin 9
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, FractionIn) {
  Histogram h(-1.0, 1.0, 4);
  for (const double v : {-0.5, -0.005, 0.0, 0.005, 0.5}) h.add(v);
  EXPECT_DOUBLE_EQ(h.fraction_in(-0.01, 0.01), 3.0 / 5.0);
}

TEST(Histogram, TextRendering) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.1);
  h.add(0.9);
  const std::string text = h.to_text(10);
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_NE(text.find('\n'), std::string::npos);
}

TEST(Stopwatch, MeasuresForwardTime) {
  Stopwatch w;
  EXPECT_GE(w.seconds(), 0.0);
  w.reset();
  EXPECT_GE(w.millis(), 0.0);
}

}  // namespace
}  // namespace mgba
