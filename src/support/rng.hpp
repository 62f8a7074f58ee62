#ifndef GRAPHITI_SUPPORT_RNG_HPP
#define GRAPHITI_SUPPORT_RNG_HPP

/**
 * @file
 * Deterministic pseudo-random generator (splitmix64).
 *
 * Used by the trace-inclusion tester, workload generators and the
 * fault plans' coordinate draws (drawAt). We avoid std::mt19937 so
 * test results are reproducible across standard-library
 * implementations.
 */

#include <cstdint>

namespace graphiti {

/** Deterministic 64-bit PRNG with a tiny state. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    /** Next raw 64-bit sample. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, bound). @p bound must be positive. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi]. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
                        below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    std::uint64_t state_;
};

/**
 * One stateless draw: a fresh splitmix64 stream for the coordinate
 * (@p a, @p b) of plan @p seed, kept apart from other plan families
 * by @p salt. The multipliers decorrelate neighbouring coordinates
 * before the splitmix finalizer scrambles them. Fault, crash and
 * connection plans draw their schedules here, and their determinism
 * tests pin the exact streams.
 */
inline Rng
drawAt(std::uint64_t seed, std::uint64_t salt, std::uint64_t a,
       std::uint64_t b)
{
    return Rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^
               (a * 0xc2b2ae3d27d4eb4fULL) ^ (b * 0x165667b19e3779f9ULL));
}

}  // namespace graphiti

#endif  // GRAPHITI_SUPPORT_RNG_HPP
