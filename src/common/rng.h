/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * Every stochastic decision in dcfb (workload construction, trace walking,
 * background NoC traffic) draws from an explicitly seeded Rng so that runs
 * are bit-for-bit reproducible.  The generator is xorshift64*, which is
 * fast, has a 2^64-1 period, and passes the statistical tests we care
 * about for workload synthesis.
 */

#ifndef DCFB_COMMON_RNG_H
#define DCFB_COMMON_RNG_H

#include <cstdint>

namespace dcfb {

/**
 * xorshift64* pseudo-random generator with convenience draws.
 */
class Rng
{
  public:
    /** Seed the generator; a zero seed is remapped to a fixed constant. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    /** Same state: the two generators draw the same sequence. */
    bool operator==(const Rng &) const = default;

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw that is true with probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Zipf-like popularity draw over [0, n): smaller indices are more
     * popular.  @p skew of 0 degenerates to uniform; ~0.8-1.2 resembles the
     * function-popularity skew of server software.
     */
    std::uint64_t
    zipf(std::uint64_t n, double skew)
    {
        if (skew <= 0.0 || n <= 1)
            return below(n ? n : 1);
        // Inverse-CDF approximation: u^(1/(1-skew)) biases toward 0 for
        // skew in (0,1); clamp the exponent for skew >= 1.
        double exponent = skew < 0.99 ? 1.0 / (1.0 - skew) : 64.0;
        double u = uniform();
        double biased = 1.0;
        // pow() without <cmath> dependency creep is not worth it; use it.
        biased = power(u, exponent);
        auto idx = static_cast<std::uint64_t>(biased * static_cast<double>(n));
        return idx >= n ? n - 1 : idx;
    }

  private:
    /** Minimal positive-base pow helper (u in [0,1), e >= 1). */
    static double
    power(double u, double e)
    {
        // exp(e * ln(u)) via builtins keeps the header self-contained.
        return __builtin_exp(e * __builtin_log(u > 0 ? u : 1e-300));
    }

    std::uint64_t state;
};

} // namespace dcfb

#endif // DCFB_COMMON_RNG_H
