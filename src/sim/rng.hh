/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Implements xoshiro256++ seeded via splitmix64 so that every
 * experiment is exactly reproducible from a single integer seed,
 * independent of the platform's std::mt19937 implementation details.
 */

#ifndef TLSIM_SIM_RNG_HH
#define TLSIM_SIM_RNG_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <span>

#include "sim/logging.hh"

namespace tlsim
{

/**
 * xoshiro256++ pseudo-random generator with convenience distributions.
 *
 * All workload generators and randomized policies in the simulator
 * draw from instances of this class; two runs with equal seeds produce
 * bit-identical traces.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x5eed'cafe'f00d'd00dULL)
    {
        reseed(seed);
    }

    /** Re-initialize the state from a new seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state) {
            // splitmix64 step.
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result =
            rotl(state[0] + state[3], 23) + state[0];
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        TLSIM_ASSERT(bound > 0, "Rng::below bound must be positive");
        // Lemire's multiply-shift rejection method (unbiased).
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        std::uint64_t lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            std::uint64_t threshold = (-bound) % bound;
            while (lo < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        TLSIM_ASSERT(lo <= hi, "Rng::range requires lo <= hi");
        return lo + below(hi - lo + 1);
    }

    /**
     * Uniform 53-bit integer in [0, 2^53): the mantissa of the next
     * real(), which is exactly bits53() * 2^-53.
     */
    std::uint64_t bits53() { return next() >> 11; }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return bits53() * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability p. */
    bool
    chance(double p)
    {
        return real() < p;
    }

    /**
     * Geometrically distributed count with mean @p mean (>= 0).
     * Used for "instructions until next event" style draws.
     */
    std::uint64_t geometric(double mean);

    /**
     * Zipf-like rank selection over n items with exponent s, using a
     * fast approximate inverse-CDF (good enough for workload skew).
     */
    std::uint64_t zipf(std::uint64_t n, double s);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

/**
 * Rng::geometric for a fixed mean, as an exact inverse-CDF table.
 *
 * A draw is f(m) = trunc(log(1 - m * 2^-53) / log(1 - p)) of one
 * m = bits53(), p = 1 / (mean + 1): the expression Rng::geometric
 * evaluates (invert()). The constructor finds, for k = 1..K, the
 * threshold T_k, the least m with f(m) >= k, by evaluating f itself:
 * it brackets the first guess ceil(2^53 * -expm1(k * log(1 - p))) and
 * bisects. A draw finds k with T_k <= m < T_{k+1} from a 2^bucketBits
 * index on m's top bits and a short compare loop, and returns k only
 * when k < K and m is more than `band` away from both thresholds.
 * Anywhere else (the tail m >= T_K - band, the band around each
 * threshold, a mean <= 0, a log(1 - p) that is 0, -inf or NaN) it
 * evaluates f.
 *
 * Why that is exact: 1 - m * 2^-53 is exact and falls as m grows;
 * dividing by the negative constant log(1 - p) and truncating are
 * both monotone. So f can step out of order only where log's rounding
 * straddles an integer boundary of the quotient. An error of e ulp in
 * log (the divide's rounding adds under one more) moves the
 * quotient's crossing of k by under e m-units: |d log(x) / dm| =
 * 2^-53 / x, and ulp(log x) * x * 2^53 <= 2 * |log x| * x <= 2 / e,
 * for x = 1 - m * 2^-53. Each T_k is a point where f steps from < k
 * to >= k, so it lies within that few-unit band around the crossing.
 * glibc documents 1-2 ulp, so for any log error below ~1000 ulp every
 * m more than `band` = 1024 past T_k and more than `band` short of
 * T_{k+1} has f(m) == k.
 *
 * K stops where the tail mass q^K = (1 - p)^K drops below 2^-24,
 * capped at maxThresholds, so on the paper profiles' means fewer than
 * 1 in 10^7 draws evaluate log. The table is held by value: a
 * distribution, and the TraceGenerator that owns it, copies as plain
 * data.
 */
class GeometricDist
{
  public:
    /** m-units around each threshold that evaluate f. */
    static constexpr std::uint64_t band = 1024;
    /** log2 of the bucket index's size, on m's top bits. */
    static constexpr int bucketBits = 10;
    /** Cap on K; a bucket holds k <= K in one byte. */
    static constexpr unsigned maxThresholds = 255;
    /** fromTable()'s answer where a draw evaluates f. */
    static constexpr std::uint64_t notInTable = ~std::uint64_t(0);

    explicit GeometricDist(double mean);

    std::uint64_t
    operator()(Rng &rng) const
    {
        return drawn ? draw(rng.bits53()) : 0;
    }

    /** The draw on an already drawn m = bits53(); 0 for mean <= 0. */
    std::uint64_t
    draw(std::uint64_t m) const
    {
        if (!drawn)
            return 0;
        std::uint64_t k = fromTable(m);
        return k != notInTable ? k : invert(m, logQ);
    }

    /** The table's k for @p m, or notInTable where f is evaluated. */
    std::uint64_t
    fromTable(std::uint64_t m) const
    {
        // The index and the loop only step past thresholds <= m, so
        // bounds[k] <= m < bounds[k + 1] and neither difference wraps.
        unsigned k = bucket[m >> (53 - bucketBits)];
        while (m >= bounds[k + 1])
            ++k;
        if (k < count && m - bounds[k] > band && bounds[k + 1] - m > band)
            return k;
        return notInTable;
    }

    /** T_1..T_K; empty where every draw evaluates f. */
    std::span<const std::uint64_t>
    thresholds() const
    {
        return {bounds.data() + 1, count};
    }

    /**
     * f(m): the inverse CDF of the geometric distribution on
     * {0, 1, 2, ...} at real() = m * 2^-53, for logQ = log(1 - p).
     * m < 2^53 keeps u below 1, so u needs no clamp.
     */
    static std::uint64_t
    invert(std::uint64_t m, double logQ)
    {
        double u = m * 0x1.0p-53;
        double g = std::log(1.0 - u) / logQ;
        if (g > 1e18)
            g = 1e18;
        return static_cast<std::uint64_t>(g);
    }

  private:
    /** False for mean <= 0: the draw is 0 and consumes nothing. */
    bool drawn;
    double logQ;
    /** K: the number of thresholds found. */
    unsigned count = 0;
    /** T_0 = 0, T_1..T_K, then 2^53 (which no m reaches) to the end. */
    std::array<std::uint64_t, maxThresholds + 2> bounds{};
    /** Per bucket of m's top bits: the k with T_k <= its first m. */
    std::array<std::uint8_t, std::size_t(1) << bucketBits> bucket{};
};

/**
 * Rng::zipf for fixed (n, s). It holds pow(n, 1 - s) - 1 and
 * 1 / (1 - s), or log(n) for s within 1e-9 of 1, so a draw costs one
 * std::pow or std::exp. n > 0 is checked per draw, so a distribution
 * that is never drawn from may be built with n == 0.
 */
class ZipfDist
{
  public:
    ZipfDist(std::uint64_t n, double s)
        : items(n), uniform(s <= 0.0),
          power(1.0 - s > 1e-9 || 1.0 - s < -1e-9)
    {
        if (uniform)
            return;
        double nn = static_cast<double>(n);
        if (power) {
            maxCdf = std::pow(nn, 1.0 - s) - 1.0;
            invExponent = 1.0 / (1.0 - s);
        } else {
            logN = std::log(nn);
        }
    }

    std::uint64_t
    operator()(Rng &rng) const
    {
        TLSIM_ASSERT(items > 0, "Rng::zipf requires n > 0");
        if (uniform)
            return rng.below(items);
        // Approximate inverse CDF for the continuous analogue.
        double u = rng.real();
        double rank = power ? std::pow(1.0 + u * maxCdf, invExponent)
                            : std::exp(u * logN);
        std::uint64_t r = static_cast<std::uint64_t>(rank);
        if (r >= items)
            r = items - 1;
        return r;
    }

  private:
    std::uint64_t items;
    /** s <= 0: a uniform rank. */
    bool uniform;
    /** |1 - s| > 1e-9: the power-law branch, else the s == 1 one. */
    bool power;
    double maxCdf = 0.0;
    double invExponent = 0.0;
    double logN = 0.0;
};

/**
 * Rng::chance for a fixed p, as an integer compare. real() is
 * m * 2^-53 for the 53-bit m = bits53(), so real() < p holds exactly
 * when m < ceil(p * 2^53) (the product is exact: a power-of-two
 * scale).
 */
class BernoulliDist
{
  public:
    explicit BernoulliDist(double p) : threshold(thresholdOf(p)) {}

    bool operator()(Rng &rng) const { return hit(rng.bits53()); }

    /** The trial on an already drawn m = bits53(). */
    bool hit(std::uint64_t m) const { return m < threshold; }

  private:
    static std::uint64_t
    thresholdOf(double p)
    {
        constexpr double scale = 0x1.0p53;
        if (!(p > 0.0)) // also NaN: real() < NaN never holds
            return 0;
        if (p >= 1.0)
            return std::uint64_t(1) << 53;
        return static_cast<std::uint64_t>(std::ceil(p * scale));
    }

    std::uint64_t threshold;
};

inline std::uint64_t
Rng::geometric(double mean)
{
    if (mean <= 0.0)
        return 0;
    return GeometricDist::invert(bits53(),
                                 std::log(1.0 - 1.0 / (mean + 1.0)));
}

inline std::uint64_t
Rng::zipf(std::uint64_t n, double s)
{
    return ZipfDist(n, s)(*this);
}

} // namespace tlsim

#endif // TLSIM_SIM_RNG_HH
