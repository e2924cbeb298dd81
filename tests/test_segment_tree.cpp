#include "util/segment_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "testsupport/reference_segment_tree.h"
#include "util/rng.h"

namespace esva {
namespace {

TEST(RangeAddMaxTree, EmptyTree) {
  RangeAddMaxTree tree(0);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.max_all(), 0.0);
  EXPECT_EQ(tree.min_all(), 0.0);
}

TEST(RangeAddMaxTree, SingleElement) {
  RangeAddMaxTree tree(1);
  EXPECT_EQ(tree.max(0, 0), 0.0);
  tree.add(0, 0, 3.5);
  EXPECT_EQ(tree.max(0, 0), 3.5);
  tree.add(0, 0, -1.0);
  EXPECT_EQ(tree.max(0, 0), 2.5);
  EXPECT_EQ(tree.max_all(), 2.5);
}

TEST(RangeAddMaxTree, InitiallyAllZero) {
  RangeAddMaxTree tree(16);
  EXPECT_EQ(tree.max(0, 15), 0.0);
  EXPECT_EQ(tree.max(3, 7), 0.0);
}

TEST(RangeAddMaxTree, DisjointRangeAdds) {
  RangeAddMaxTree tree(10);
  tree.add(0, 4, 1.0);
  tree.add(5, 9, 2.0);
  EXPECT_EQ(tree.max(0, 4), 1.0);
  EXPECT_EQ(tree.max(5, 9), 2.0);
  EXPECT_EQ(tree.max(0, 9), 2.0);
  EXPECT_EQ(tree.max(4, 5), 2.0);
}

TEST(RangeAddMaxTree, OverlappingAddsAccumulate) {
  RangeAddMaxTree tree(10);
  tree.add(0, 6, 1.0);
  tree.add(4, 9, 1.0);
  EXPECT_EQ(tree.max(0, 3), 1.0);
  EXPECT_EQ(tree.max(4, 6), 2.0);
  EXPECT_EQ(tree.max(7, 9), 1.0);
  EXPECT_EQ(tree.max_all(), 2.0);
}

TEST(RangeAddMaxTree, NegativeDeltasRelease) {
  RangeAddMaxTree tree(8);
  tree.add(0, 7, 5.0);
  tree.add(2, 5, -5.0);
  EXPECT_EQ(tree.max(2, 5), 0.0);
  EXPECT_EQ(tree.max(0, 7), 5.0);
}

TEST(RangeAddMaxTree, QueryDoesNotMutate) {
  RangeAddMaxTree tree(8);
  tree.add(1, 6, 2.0);
  const double first = tree.max(0, 7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(tree.max(0, 7), first);
}

TEST(RangeAddMaxTree, NonPowerOfTwoSize) {
  RangeAddMaxTree tree(13);
  tree.add(12, 12, 7.0);
  EXPECT_EQ(tree.max(12, 12), 7.0);
  EXPECT_EQ(tree.max(0, 11), 0.0);
  EXPECT_EQ(tree.max_all(), 7.0);
}

TEST(RangeAddMaxTree, MinAllTracksTheFloor) {
  RangeAddMaxTree tree(10);
  EXPECT_EQ(tree.min_all(), 0.0);
  tree.add(0, 9, 2.0);
  EXPECT_EQ(tree.min_all(), 2.0);
  tree.add(3, 5, 4.0);
  EXPECT_EQ(tree.min_all(), 2.0);  // the untouched units are the floor
  tree.add(0, 2, -1.5);
  EXPECT_EQ(tree.min_all(), 0.5);
  EXPECT_EQ(tree.max_all(), 6.0);
}

TEST(RangeAddMaxTree, FirstAboveLocatesTheEarliestViolation) {
  RangeAddMaxTree tree(12);
  const auto above = [](double threshold) {
    return [threshold](double v) { return v > threshold; };
  };
  EXPECT_EQ(tree.first_above(0, 11, above(0.5)), RangeAddMaxTree::npos);
  tree.add(4, 7, 3.0);
  tree.add(9, 10, 5.0);
  EXPECT_EQ(tree.first_above(0, 11, above(0.5)), 4u);
  EXPECT_EQ(tree.first_above(0, 11, above(4.0)), 9u);
  EXPECT_EQ(tree.first_above(5, 11, above(0.5)), 5u);
  EXPECT_EQ(tree.first_above(8, 8, above(0.5)), RangeAddMaxTree::npos);
  EXPECT_EQ(tree.first_above(0, 3, above(0.5)), RangeAddMaxTree::npos);
  EXPECT_EQ(tree.first_above(0, 11, above(10.0)), RangeAddMaxTree::npos);
}

TEST(RangeAddMaxTree, FirstAboveOnSingleUnitTree) {
  RangeAddMaxTree tree(1);
  const auto positive = [](double v) { return v > 0.0; };
  EXPECT_EQ(tree.first_above(0, 0, positive), RangeAddMaxTree::npos);
  tree.add(0, 0, 1.0);
  EXPECT_EQ(tree.first_above(0, 0, positive), 0u);
}

// Property: behaves identically to a plain array under random operations.
TEST(RangeAddMaxTreeProperty, MatchesNaiveArray) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 200));
    RangeAddMaxTree tree(n);
    std::vector<double> naive(n, 0.0);
    for (int op = 0; op < 200; ++op) {
      const auto lo = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto hi = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(n) - 1));
      if (rng.bernoulli(0.6)) {
        const double delta = rng.uniform_double(-5.0, 10.0);
        tree.add(lo, hi, delta);
        for (std::size_t k = lo; k <= hi; ++k) naive[k] += delta;
      } else {
        const double expected = *std::max_element(naive.begin() + static_cast<std::ptrdiff_t>(lo),
                                                  naive.begin() + static_cast<std::ptrdiff_t>(hi) + 1);
        ASSERT_NEAR(tree.max(lo, hi), expected, 1e-9)
            << "trial " << trial << " op " << op;
      }
    }
    ASSERT_NEAR(tree.max_all(), *std::max_element(naive.begin(), naive.end()),
                1e-9);
  }
}

// Differential fuzz: the flat iterative tree against the original recursive
// implementation it replaced (testsupport/reference_segment_tree.h), under
// random add/max interleavings across sizes from a single unit up — the
// equivalence proof demanded by the replacement. The two layouts associate
// their floating-point sums differently, so values are compared to 1e-9
// (far below the library's feasibility granularity), not bit-for-bit.
TEST(RangeAddMaxTreeProperty, MatchesRecursiveReferenceTree) {
  Rng rng(20260807);
  for (int trial = 0; trial < 120; ++trial) {
    // Bias towards small and awkward sizes (1, 2, 3, powers of two ± 1).
    const std::size_t n = static_cast<std::size_t>(
        trial < 40 ? rng.uniform_int(1, 9) : rng.uniform_int(1, 300));
    RangeAddMaxTree flat(n);
    ReferenceRangeAddMaxTree reference(n);
    ASSERT_EQ(flat.size(), reference.size());
    for (int op = 0; op < 150; ++op) {
      const auto lo = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto hi = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(lo), static_cast<std::int64_t>(n) - 1));
      if (rng.bernoulli(0.55)) {
        const double delta = rng.uniform_double(-6.0, 10.0);
        flat.add(lo, hi, delta);
        reference.add(lo, hi, delta);
      } else {
        ASSERT_NEAR(flat.max(lo, hi), reference.max(lo, hi), 1e-9)
            << "trial " << trial << " op " << op << " n " << n << " ["
            << lo << ", " << hi << "]";
      }
      if (op % 25 == 0) {
        ASSERT_NEAR(flat.max_all(), reference.max_all(), 1e-9);
      }
    }
  }
}

// Differential fuzz for the descent: first_above against a naive scan over a
// mirrored plain array, plus min_all against std::min_element. Thresholds are
// drawn continuously, so ties with stored values have measure zero and exact
// predicate comparisons are stable.
TEST(RangeAddMaxTreeProperty, FirstAboveAndMinAllMatchNaive) {
  Rng rng(555);
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t n = static_cast<std::size_t>(
        trial < 30 ? rng.uniform_int(1, 10) : rng.uniform_int(1, 260));
    RangeAddMaxTree tree(n);
    std::vector<double> naive(n, 0.0);
    for (int op = 0; op < 120; ++op) {
      const auto lo = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto hi = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(lo), static_cast<std::int64_t>(n) - 1));
      if (rng.bernoulli(0.5)) {
        const double delta = rng.uniform_double(-6.0, 10.0);
        tree.add(lo, hi, delta);
        for (std::size_t k = lo; k <= hi; ++k) naive[k] += delta;
      } else {
        const double threshold = rng.uniform_double(-10.0, 20.0);
        const auto pred = [threshold](double v) { return v > threshold; };
        std::size_t expected = RangeAddMaxTree::npos;
        for (std::size_t k = lo; k <= hi; ++k) {
          if (naive[k] > threshold) {
            expected = k;
            break;
          }
        }
        ASSERT_EQ(tree.first_above(lo, hi, pred), expected)
            << "trial " << trial << " op " << op << " n " << n << " ["
            << lo << ", " << hi << "] threshold " << threshold;
      }
      if (op % 20 == 0) {
        ASSERT_NEAR(tree.min_all(), *std::min_element(naive.begin(), naive.end()),
                    1e-9);
        ASSERT_NEAR(tree.max_all(), *std::max_element(naive.begin(), naive.end()),
                    1e-9);
      }
    }
  }
}

// grow() keeps every node's doubles, so a grown tree answers every query
// bit-for-bit like a tree built at the larger size and fed the same adds —
// even with deltas whose sums round differently under another tree shape.
TEST(RangeAddMaxTreeProperty, GrowIsBitIdenticalToBuildingAtTheLargerSize) {
  Rng rng(9001);
  for (int trial = 0; trial < 40; ++trial) {
    std::size_t n = std::size_t{1} << rng.uniform_int(0, 4);
    RangeAddMaxTree grown(0);
    grown.grow(n);
    struct Add {
      std::size_t lo, hi;
      double delta;
    };
    std::vector<Add> log;
    for (int phase = 0; phase < 4; ++phase) {
      for (int op = 0; op < 30; ++op) {
        const auto lo = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        const auto hi = static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(lo), static_cast<std::int64_t>(n) - 1));
        const Add add{lo, hi, rng.uniform_double(-3.0, 7.0)};
        grown.add(add.lo, add.hi, add.delta);
        log.push_back(add);
      }
      RangeAddMaxTree fresh(n);
      for (const Add& add : log) fresh.add(add.lo, add.hi, add.delta);
      ASSERT_EQ(grown.size(), fresh.size());
      ASSERT_EQ(grown.max_all(), fresh.max_all()) << "trial " << trial;
      ASSERT_EQ(grown.min_all(), fresh.min_all()) << "trial " << trial;
      for (int q = 0; q < 40; ++q) {
        const auto lo = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        const auto hi = static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(lo), static_cast<std::int64_t>(n) - 1));
        ASSERT_EQ(grown.max(lo, hi), fresh.max(lo, hi)) << "trial " << trial;
        const double threshold = rng.uniform_double(-3.0, 10.0);
        const auto pred = [threshold](double v) { return v > threshold; };
        ASSERT_EQ(grown.first_above(lo, hi, pred),
                  fresh.first_above(lo, hi, pred));
      }
      n <<= rng.uniform_int(1, 2);
      grown.grow(n);
    }
  }
}

}  // namespace
}  // namespace esva
