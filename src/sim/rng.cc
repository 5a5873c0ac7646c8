#include "sim/rng.hh"

namespace ehpsim
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // anonymous namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

double
counterHashUnit(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                std::uint64_t c)
{
    // Feed each word through the same finalizer splitmix64 uses so
    // nearby counters (op ids, task indices, attempt numbers) land
    // far apart.
    std::uint64_t x = seed;
    std::uint64_t h = splitmix64(x);
    x ^= a;
    h ^= splitmix64(x);
    x ^= b;
    h ^= splitmix64(x);
    x ^= c;
    h ^= splitmix64(x);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace ehpsim
