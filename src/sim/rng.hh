/**
 * @file
 * Deterministic pseudo-random number generation (splitmix64 seeded
 * xoshiro256**). Every stochastic component takes an explicit Rng so
 * whole-system runs are reproducible from a single seed.
 */

#ifndef EHPSIM_SIM_RNG_HH
#define EHPSIM_SIM_RNG_HH

#include <cstdint>

namespace ehpsim
{

class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Uniform 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p of true. */
    bool nextBool(double p);

  private:
    std::uint64_t s_[4];
};

/**
 * Stateless counter-based uniform draw in [0, 1): hashes
 * (seed, a, b, c) through splitmix64-style mixing. Unlike a
 * stateful Rng, the result depends only on the arguments, never on
 * draw order — so the same (op, task, attempt) tuple gets the same
 * answer however events interleave, and a checkpointed run needs
 * no generator state to replay it.
 */
double counterHashUnit(std::uint64_t seed, std::uint64_t a,
                       std::uint64_t b, std::uint64_t c);

} // namespace ehpsim

#endif // EHPSIM_SIM_RNG_HH
