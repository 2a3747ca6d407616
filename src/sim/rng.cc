#include "sim/rng.hh"

namespace tlsim
{

namespace
{

constexpr std::uint64_t mTop = (std::uint64_t(1) << 53) - 1;

/**
 * T_k: the least m with invert(m, logQ) >= k, for k >= 1; mTop + 1 if
 * no m reaches k. Brackets the closed-form guess with doubling steps
 * (invert(0) == 0 < k bounds it below), then bisects.
 */
std::uint64_t
threshold(unsigned k, double logQ)
{
    double guess = std::ceil(0x1.0p53 * -std::expm1(k * logQ));
    std::uint64_t g = guess < static_cast<double>(mTop)
                          ? static_cast<std::uint64_t>(guess)
                          : mTop;
    // Invariant once bracketed: invert(lo) < k <= invert(hi).
    std::uint64_t lo, hi;
    if (GeometricDist::invert(g, logQ) >= k) {
        hi = g;
        for (std::uint64_t step = 1;; step *= 2) {
            lo = hi > step ? hi - step : 0;
            if (GeometricDist::invert(lo, logQ) < k)
                break;
            hi = lo;
        }
    } else {
        lo = g;
        for (std::uint64_t step = 1;; step *= 2) {
            if (lo == mTop)
                return mTop + 1;
            hi = mTop - lo > step ? lo + step : mTop;
            if (GeometricDist::invert(hi, logQ) >= k)
                break;
            lo = hi;
        }
    }
    while (hi - lo > 1) {
        std::uint64_t mid = lo + (hi - lo) / 2;
        (GeometricDist::invert(mid, logQ) >= k ? hi : lo) = mid;
    }
    return hi;
}

} // namespace

GeometricDist::GeometricDist(double mean)
    : drawn(!(mean <= 0.0)),
      logQ(drawn ? std::log(1.0 - 1.0 / (mean + 1.0)) : 0.0)
{
    bounds.fill(mTop + 1);
    bounds[0] = 0;
    // No table for mean <= 0 (logQ is 0) or where log(1 - p) is 0,
    // -inf or NaN: those draws all evaluate f.
    if (!(logQ < 0.0) || std::isinf(logQ))
        return;
    // The tail mass beyond K is exp(K * logQ) < 2^-24.
    double tail = std::ceil(-24.0 * std::log(2.0) / logQ);
    unsigned want = tail < maxThresholds ? static_cast<unsigned>(tail)
                                         : maxThresholds;
    while (count < want) {
        std::uint64_t t = threshold(count + 1, logQ);
        if (t > mTop)
            break;
        bounds[++count] = t;
    }
    unsigned k = 0;
    for (std::size_t b = 0; b < bucket.size(); ++b) {
        std::uint64_t first = std::uint64_t(b) << (53 - bucketBits);
        while (k < count && bounds[k + 1] <= first)
            ++k;
        bucket[b] = static_cast<std::uint8_t>(k);
    }
}

} // namespace tlsim
