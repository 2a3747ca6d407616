/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "sim/rng.hh"
#include "workload/profile.hh"

using namespace tlsim;

namespace
{

// The draws as Rng implemented them before the precomputed
// distributions existed, kept verbatim as the exactness reference.

/** The geometric draw for mean > 0 at u = real(). */
std::uint64_t
refGeometricAt(double u, double mean)
{
    double p = 1.0 / (mean + 1.0);
    if (u >= 1.0)
        u = 0.9999999999999999;
    double g = std::log(1.0 - u) / std::log(1.0 - p);
    if (g > 1e18)
        g = 1e18;
    return static_cast<std::uint64_t>(g);
}

std::uint64_t
refGeometric(Rng &rng, double mean)
{
    if (mean <= 0.0)
        return 0;
    return refGeometricAt(rng.real(), mean);
}

std::uint64_t
refZipf(Rng &rng, std::uint64_t n, double s)
{
    if (s <= 0.0)
        return rng.below(n);
    double u = rng.real();
    double one_minus_s = 1.0 - s;
    double nn = static_cast<double>(n);
    double rank;
    if (one_minus_s > 1e-9 || one_minus_s < -1e-9) {
        double max_cdf = std::pow(nn, one_minus_s) - 1.0;
        rank = std::pow(1.0 + u * max_cdf, 1.0 / one_minus_s);
    } else {
        rank = std::exp(u * std::log(nn));
    }
    std::uint64_t r = static_cast<std::uint64_t>(rank);
    if (r >= n)
        r = n - 1;
    return r;
}

constexpr int exactDraws = 20'000;

/** The means the paper profiles' generators draw their gaps with. */
std::vector<double>
profileGapMeans()
{
    std::vector<double> means;
    for (const auto &prof : workload::paperBenchmarks()) {
        for (double per : {prof.instrPerMem, prof.instrPerIBlock}) {
            double mean = std::max(1.0, per) - 1.0;
            if (std::find(means.begin(), means.end(), mean) == means.end())
                means.push_back(mean);
        }
    }
    return means;
}

/**
 * Compares dist.draw(m) with the old formula at every m of [lo, hi]
 * clipped to [0, 2^53); returns the mismatches, reporting the first.
 */
std::uint64_t
geometricMismatches(const GeometricDist &dist, double mean,
                    std::uint64_t lo, std::uint64_t hi)
{
    constexpr std::uint64_t top = (std::uint64_t(1) << 53) - 1;
    hi = std::min(hi, top);
    std::uint64_t bad = 0;
    for (std::uint64_t m = lo; m <= hi; ++m) {
        std::uint64_t want = mean <= 0.0 ? 0 : refGeometricAt(m * 0x1.0p-53,
                                                              mean);
        std::uint64_t got = dist.draw(m);
        if (got != want && bad++ == 0)
            ADD_FAILURE() << "mean " << mean << " m " << m << ": draw "
                          << got << ", reference " << want;
    }
    return bad;
}

} // namespace

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

// GeometricDist and Rng::geometric draw for draw equal to the old
// formula, and consume the same number of raw values. The table's
// answers are checked where they could go wrong: at every m within
// 2 * band of each threshold, at every bucket edge, at both ends of
// [0, 2^53) and at 2^20 random m.
TEST(RngDist, GeometricMatchesReference)
{
    std::vector<double> means = {0.0, -0.0, -1.0, -1e-300, 1e-9, 0.5,
                                 1.0, 3.0, 15.0, 63.0, 1e3, 1e6, 1e12,
                                 1e15};
    for (double mean : profileGapMeans())
        means.push_back(mean);
    constexpr std::uint64_t w = GeometricDist::band;
    constexpr int shift = 53 - GeometricDist::bucketBits;
    for (double mean : means) {
        GeometricDist dist(mean);
        Rng a(11), b(11), c(11);
        for (int i = 0; i < exactDraws; ++i) {
            std::uint64_t want = refGeometric(c, mean);
            ASSERT_EQ(dist(a), want) << "mean " << mean << " draw " << i;
            ASSERT_EQ(b.geometric(mean), want) << "mean " << mean;
        }
        std::uint64_t after = c.next();
        EXPECT_EQ(a.next(), after) << "mean " << mean;
        EXPECT_EQ(b.next(), after) << "mean " << mean;

        std::uint64_t bad = 0;
        for (std::uint64_t t : dist.thresholds())
            bad += geometricMismatches(dist, mean, t > 2 * w ? t - 2 * w : 0,
                                       t + 2 * w);
        for (std::uint64_t e = 1; e < (std::uint64_t(1) << 53) >> shift;
             ++e)
            bad += geometricMismatches(dist, mean, (e << shift) - 1,
                                       e << shift);
        bad += geometricMismatches(dist, mean, 0, 0);
        bad += geometricMismatches(dist, mean, (std::uint64_t(1) << 53) - 1,
                                   (std::uint64_t(1) << 53) - 1);
        Rng r(97);
        for (int i = 0; i < (1 << 20); ++i) {
            std::uint64_t m = r.bits53();
            bad += geometricMismatches(dist, mean, m, m);
        }
        EXPECT_EQ(bad, 0u) << "mean " << mean;
    }
}

// The table answers nearly every draw on the means the generator
// uses. A silently empty table would still draw exactly.
TEST(RngDist, GeometricTableResolvesProfileDraws)
{
    for (double mean : profileGapMeans()) {
        GeometricDist dist(mean);
        auto t = dist.thresholds();
        ASSERT_FALSE(t.empty()) << "mean " << mean;
        EXPECT_TRUE(std::is_sorted(t.begin(), t.end())) << "mean " << mean;
        Rng r(5);
        const int n = 1 << 20;
        int evaluated = 0;
        for (int i = 0; i < n; ++i)
            evaluated += dist.fromTable(r.bits53()) ==
                         GeometricDist::notInTable;
        EXPECT_LT(evaluated, n / 1000) << "mean " << mean;
    }
}

// Thresholds are the least m where the draw reaches k, and a copied
// distribution draws what the original does.
TEST(RngDist, GeometricThresholdsAreFirstReach)
{
    GeometricDist dist(3.0);
    auto t = dist.thresholds();
    ASSERT_FALSE(t.empty());
    for (std::size_t i = 0; i < t.size(); ++i) {
        std::uint64_t k = i + 1;
        EXPECT_GE(GeometricDist::invert(t[i], std::log(0.75)), k);
        EXPECT_LT(GeometricDist::invert(t[i] - 1, std::log(0.75)), k);
    }
    GeometricDist copy = dist;
    Rng a(3), b(3);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(copy(a), dist(b));
}

TEST(RngDist, ZipfMatchesReference)
{
    for (double s : {-0.5, 0.0, 0.4, 0.8, 1.0 - 1e-10, 1.0, 1.0 + 1e-10,
                     1.2, 2.5}) {
        for (std::uint64_t n : {std::uint64_t(1), std::uint64_t(2),
                                std::uint64_t(512), std::uint64_t(32768),
                                std::uint64_t(1) << 40}) {
            ZipfDist dist(n, s);
            Rng a(17), b(17), c(17);
            for (int i = 0; i < exactDraws; ++i) {
                std::uint64_t want = refZipf(c, n, s);
                ASSERT_EQ(dist(a), want)
                    << "s " << s << " n " << n << " draw " << i;
                ASSERT_EQ(b.zipf(n, s), want) << "s " << s << " n " << n;
            }
            std::uint64_t after = c.next();
            EXPECT_EQ(a.next(), after) << "s " << s << " n " << n;
            EXPECT_EQ(b.next(), after) << "s " << s << " n " << n;
        }
    }
}

TEST(RngDist, ZipfChecksItemsAtDrawTime)
{
    // Building over zero items is allowed (profiles that never draw
    // from a distribution still construct); drawing panics.
    ZipfDist dist(0, 0.8);
    Rng rng(1);
    EXPECT_THROW(dist(rng), PanicError);
    EXPECT_THROW(rng.zipf(0, 1.0), PanicError);
}

TEST(RngDist, BernoulliMatchesChance)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (double p : {0.0, -0.0, -1.0, 1.0, 1.5, inf, -inf, nan,
                     std::numeric_limits<double>::denorm_min(), DBL_MIN,
                     0x1.0p-53, 0x1.0p-54, 0x1.8p-53, 1e-17, 0.1,
                     1.0 / 3.0, 0.5, std::nextafter(1.0, 0.0)}) {
        BernoulliDist dist(p);
        Rng a(23), c(23);
        for (int i = 0; i < exactDraws; ++i) {
            bool want = c.chance(p);
            ASSERT_EQ(dist(a), want) << "p " << p << " draw " << i;
        }
        EXPECT_EQ(a.next(), c.next()) << "p " << p;

        // Random draws almost never land on the threshold; check the
        // mantissas around it directly: hit(m) == (m * 2^-53 < p).
        double scaled = p * 0x1.0p53;
        std::uint64_t top = std::uint64_t(1) << 53;
        std::uint64_t edge = 0;
        if (scaled > 0.0)
            edge = scaled >= 0x1.0p53 ? top
                                      : static_cast<std::uint64_t>(scaled);
        for (std::uint64_t m :
             {std::uint64_t(0), std::uint64_t(1), std::uint64_t(2),
              edge > 0 ? edge - 1 : 0, edge, edge + 1, top - 2,
              top - 1}) {
            if (m >= top)
                continue;
            EXPECT_EQ(dist.hit(m), m * 0x1.0p-53 < p)
                << "p " << p << " m " << m;
        }
    }
}

TEST(RngDist, BitsAreTheRealMantissa)
{
    Rng a(29), b(29);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.bits53() * 0x1.0p-53, b.real());
}
