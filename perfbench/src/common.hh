/**
 * @file
 * Shared pieces of the perfbench harness: wall/CPU clocks, the span
 * recorder the traced run uses, honest percentiles and the result
 * record every workload fills.
 *
 * The harness drives the program only through its public entry
 * points.  Spans are recorded by the harness around its own calls
 * into each layer; the program's tick-rounded `*_us` timers are never
 * read as times.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Microseconds between two time points. */
double usBetween(Clock::time_point a, Clock::time_point b);

/** Process CPU time (all threads), in seconds. */
double processCpuSeconds();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Median of a sample vector (0 when empty). */
double median(std::vector<double> v);

/** Mean of the middle half of the samples (0 when empty). */
double interquartileMean(std::vector<double> v);

/** Nearest-rank percentile p in [0, 100] (0 when empty). */
double percentile(std::vector<double> v, double p);

/**
 * Median over consecutive windows of @p window samples (the last,
 * partial one merged into its predecessor) of each window's p99.  One
 * host hiccup moves one window, not the result.
 */
double windowedP99(const std::vector<double> &v, std::size_t window = 1000);

/**
 * The highest of p99.9, p99, p95, p90 and p50 that has at least ten
 * samples beyond it, or -1 when even the median lacks them.
 */
double honestPercentile(std::size_t samples);

/** One recorded span: a harness call into a layer. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0; ///< since the recorder's epoch
    std::int64_t endNs = 0;
    std::int32_t parent = -1; ///< index of the enclosing span
    std::uint64_t request = 0; ///< shared by the spans of one event
};

/**
 * In-memory span recorder.  Disabled (the untraced run) it records
 * nothing and costs one branch per scope.  Spans are written out once
 * when the run ends.  Not thread-safe: each recorder belongs to one
 * thread.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) { spans.reserve(1 << 16); }

    /** Open a span; returns its index (or -1 when disabled). */
    std::int32_t begin(const char *name, std::uint64_t request);
    void end(std::int32_t ix);

    /** Durations in microseconds of every span named @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** Append every span as one JSON object per line. */
    bool writeJsonl(const std::string &path) const;

    std::size_t size() const { return spans.size(); }

  private:
    bool on;
    Clock::time_point epoch = Clock::now();
    std::vector<Span> spans;
    std::vector<std::int32_t> stack;
};

/** RAII span scope. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name, std::uint64_t request = 0)
        : t(tracer), ix(tracer.begin(name, request))
    {
    }
    ~SpanScope() { t.end(ix); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &t;
    std::int32_t ix;
};

/** A metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one workload run produced. */
struct RunResult
{
    bool correct = true;
    std::string gate = "ok"; ///< why the correctness gate failed
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> layers;
    /** Free-form facts for the human summary (sample counts, ...). */
    std::map<std::string, std::string> info;

    void fail(const std::string &why)
    {
        if (correct)
            gate = why;
        correct = false;
    }
};

/** Options every workload receives. */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Feed the correctness gate a deliberately wrong reference. */
    bool corruptReference = false;
    std::string outDir = ".";
};

RunResult runServeChurn(const RunOptions &opt, Tracer &tracer);
RunResult runServeCapstorm(const RunOptions &opt, Tracer &tracer);
RunResult runCluster10k(const RunOptions &opt, Tracer &tracer);

/**
 * The rack probe of a traced cluster-10k run: one rack of the cluster's
 * node configuration served over socketpairs, closed loop, replaying
 * the cluster cap trace (one broadcast grant per interval, one Advance
 * per simulated second) for a fixed number of events.  Fills the
 * serve-, net- and generator-layer metrics, which the replay itself,
 * one call with no transport, has no counterpart for.
 */
void serveRackProbe(int nodes, const std::vector<double> &perNodeCaps,
                    double intervalSeconds, const RunOptions &opt,
                    Tracer &tracer, RunResult &out);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
