/**
 * @file
 * Deterministic pseudo-random number generation for simulation.
 *
 * All stochastic behaviour in the simulator (trace generation, sampling
 * choices, workload phase jitter) flows through Rng instances so that a
 * run is exactly reproducible from its seed.
 */

#ifndef PSM_UTIL_RANDOM_HH
#define PSM_UTIL_RANDOM_HH

#include <cstdint>
#include <random>
#include <vector>

namespace psm
{

/**
 * A seedable random source wrapping std::mt19937_64 with convenience
 * draws used throughout the simulator.
 */
class Rng
{
  public:
    /** Construct with an explicit seed (default fixed for replay). */
    explicit Rng(std::uint64_t seed = 0x5eedULL) : engine(seed) {}

    /** Re-seed the generator, restarting the stream. */
    void reseed(std::uint64_t seed) { engine.seed(seed); }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int
    uniformInt(int lo, int hi)
    {
        return std::uniform_int_distribution<int>(lo, hi)(engine);
    }

    /**
     * Normal draw with the given mean and standard deviation (0 gives
     * @p mean).  Draws a standard normal and scales it, libstdc++'s own
     * order of operations, so the stream is the one
     * normal_distribution(mean, stddev) yields for stddev > 0 without
     * its stddev > 0 precondition.
     */
    double
    gaussian(double mean, double stddev)
    {
        return std::normal_distribution<double>(0.0, 1.0)(engine) *
                   stddev +
               mean;
    }

    /** Exponential draw with the given rate (mean = 1/rate). */
    double
    exponential(double rate)
    {
        return std::exponential_distribution<double>(rate)(engine);
    }

    /** Bernoulli draw: true with probability p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Sample k distinct indices from [0, n) without replacement
     * (Fisher-Yates over an index vector).
     */
    std::vector<std::size_t> sampleIndices(std::size_t n, std::size_t k);

    /** Shuffle a vector in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(
                uniformInt(0, static_cast<int>(i) - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Access the underlying engine for std distributions. */
    std::mt19937_64 &raw() { return engine; }

  private:
    std::mt19937_64 engine;
};

} // namespace psm

#endif // PSM_UTIL_RANDOM_HH
