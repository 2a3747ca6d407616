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

#include <cmath>
#include <cstdint>

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
 * Rng::geometric for a fixed mean. It holds the constant log(1 - p),
 * so a draw costs one std::log; the constant is the same double
 * expression Rng::geometric would evaluate, so draws are exact.
 */
class GeometricDist
{
  public:
    explicit GeometricDist(double mean)
        : drawn(!(mean <= 0.0)),
          logQ(drawn ? std::log(1.0 - 1.0 / (mean + 1.0)) : 0.0)
    {
    }

    std::uint64_t
    operator()(Rng &rng) const
    {
        if (!drawn)
            return 0;
        double u = rng.real();
        if (u >= 1.0)
            u = 0.9999999999999999;
        // Inverse-CDF of the geometric distribution on {0, 1, 2, ...}.
        double g = std::log(1.0 - u) / logQ;
        if (g > 1e18)
            g = 1e18;
        return static_cast<std::uint64_t>(g);
    }

  private:
    /** False for mean <= 0: the draw is 0 and consumes nothing. */
    bool drawn;
    double logQ;
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
    return GeometricDist(mean)(*this);
}

inline std::uint64_t
Rng::zipf(std::uint64_t n, double s)
{
    return ZipfDist(n, s)(*this);
}

} // namespace tlsim

#endif // TLSIM_SIM_RNG_HH
