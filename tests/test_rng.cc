/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "sim/rng.hh"

using namespace tlsim;

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(77);
    std::uint64_t first = a.next();
    a.next();
    a.reseed(77);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowOneAlwaysZero)
{
    Rng rng(6);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(8);
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.range(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, RealMeanNearHalf)
{
    Rng rng(10);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.real();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng rng(12);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(13);
    const double mean = 5.0;
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(mean));
    EXPECT_NEAR(sum / n, mean, 0.15);
}

TEST(Rng, GeometricZeroMean)
{
    Rng rng(14);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.geometric(0.0), 0u);
}

TEST(Rng, ZipfWithinBounds)
{
    Rng rng(15);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.zipf(1000, 0.8), 1000u);
}

TEST(Rng, ZipfSkewConcentratesHead)
{
    Rng rng(16);
    const int n = 100000;
    int head_skewed = 0, head_uniform = 0;
    for (int i = 0; i < n; ++i) {
        if (rng.zipf(10000, 1.2) < 100)
            ++head_skewed;
        if (rng.zipf(10000, 0.0) < 100)
            ++head_uniform;
    }
    // Strong skew puts far more mass on the first 1% of ranks.
    EXPECT_GT(head_skewed, 10 * head_uniform);
}

TEST(Rng, ZipfSingleItem)
{
    Rng rng(17);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.zipf(1, 0.9), 0u);
}

/** Property sweep: below() stays in range across bounds and seeds. */
class RngBoundSweep
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RngBoundSweep, BelowAlwaysInBounds)
{
    std::uint64_t bound = GetParam();
    Rng rng(bound * 31 + 7);
    std::uint64_t max_seen = 0;
    for (int i = 0; i < 5000; ++i) {
        auto v = rng.below(bound);
        EXPECT_LT(v, bound);
        max_seen = std::max(max_seen, v);
    }
    if (bound > 4) {
        EXPECT_GT(max_seen, bound / 2); // upper half is reachable
    }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundSweep,
                         ::testing::Values(1, 2, 3, 7, 16, 100, 1023,
                                           1024, 1u << 20));
