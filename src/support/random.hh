/**
 * @file
 * Deterministic pseudo-random number generation for workloads and
 * property tests.
 *
 * A small xoshiro-style generator is used instead of std::mt19937 so
 * that workload streams are reproducible across standard library
 * implementations (the C++ standard does not pin distribution
 * algorithms).
 */

#ifndef ZARF_SUPPORT_RANDOM_HH
#define ZARF_SUPPORT_RANDOM_HH

#include <cstdint>

namespace zarf
{

/** Deterministic 64-bit PRNG (splitmix64-seeded xorshift). */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x5a4f12e9d3b7c841ull) { reseed(seed); }

    /** Reset the generator to a seed-derived state. */
    void
    reseed(uint64_t seed)
    {
        // splitmix64 to spread low-entropy seeds.
        state = seed + 0x9e3779b97f4a7c15ull;
        uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        state = z ^ (z >> 31);
        if (state == 0)
            state = 0x5a4f12e9d3b7c841ull;
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        uint64_t x = state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    uint64_t
    below(uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        return lo + static_cast<int64_t>(below(
            static_cast<uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool chance(double p) { return real() < p; }

    /** Zero-mean Gaussian via Box-Muller (cached pair discarded). */
    double
    gaussian(double sigma)
    {
        // Marsaglia polar method.
        double u, v, s;
        do {
            u = 2.0 * real() - 1.0;
            v = 2.0 * real() - 1.0;
            s = u * u + v * v;
        } while (s >= 1.0 || s == 0.0);
        double m = __builtin_sqrt(-2.0 * __builtin_log(s) / s);
        return sigma * u * m;
    }

    bool operator==(const Rng &) const = default;

  private:
    uint64_t state;
};

} // namespace zarf

#endif // ZARF_SUPPORT_RANDOM_HH
