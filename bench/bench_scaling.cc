/**
 * @file
 * Scaling bench for the performance layer: sweeps the thread-pool
 * width over (a) a 32-node cluster cap-trace replay and (b) a
 * corpus-sized ALS fit, emitting one JSON document on stdout:
 *
 *   cluster: node-steps/second per width (and speedup vs. width 1)
 *   als:     fit milliseconds per width (and speedup vs. width 1)
 *
 * `--check` turns the bench into a regression tripwire: on a
 * multi-core host the parallel cluster replay must not be slower
 * than the serial one (speedup >= 1.0).  It exits non-zero when that
 * fails; on a single-core host the clause is vacuous.  The ALS sweep
 * runs only without `--check`.
 */

#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "cf/estimator.hh"
#include "cluster/cluster_manager.hh"
#include "cluster/power_trace.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace psm;

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Widths to sweep: 1, 2, 4, ... capped at max(4, hardware). */
std::vector<unsigned>
sweepWidths()
{
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    unsigned top = std::max(4u, hw);
    std::vector<unsigned> widths;
    for (unsigned w = 1; w <= top; w *= 2)
        widths.push_back(w);
    if (widths.back() != top)
        widths.push_back(top);
    return widths;
}

struct ClusterPoint
{
    unsigned threads = 0;
    double wallSeconds = 0.0;
    double stepsPerSec = 0.0;
};

/**
 * Replay a load-following cap trace on an N-node Equal(Ours) cluster
 * at the given pool width; a "step" is one node stepped through one
 * cap interval.
 */
ClusterPoint
clusterReplayAt(unsigned width, int servers, std::size_t intervals,
                double interval_s)
{
    util::ThreadPool::configureGlobal(width);

    cluster::ClusterConfig cfg;
    cfg.policy = cluster::ClusterPolicy::EqualOurs;
    cfg.servers = servers;
    cluster::ClusterManager cm(cfg);
    cm.populateDefault();

    cluster::TraceConfig tc;
    tc.points = intervals;
    tc.interval = toTicks(interval_s);
    cluster::PowerTrace demand = cluster::generateDiurnalDemand(tc);
    cluster::PowerTrace caps = cluster::loadFollowingCaps(
        demand, cm.uncappedDemandEstimate(), 0.25);

    ClusterPoint p;
    p.threads = width;
    p.wallSeconds = wallSeconds([&] { cm.replay(caps); });
    p.stepsPerSec = static_cast<double>(servers) *
                    static_cast<double>(intervals) / p.wallSeconds;
    return p;
}

struct AlsPoint
{
    unsigned threads = 0;
    double fitMs = 0.0;
};

/** One corpus-sized estimate (leave-nothing-out corpus, 10% mask). */
AlsPoint
alsFitAt(unsigned width, const cf::UtilityEstimator &est,
         const std::vector<cf::Measurement> &samples)
{
    util::ThreadPool::configureGlobal(width);
    AlsPoint p;
    p.threads = width;
    // Best of three: the fit is short enough to jitter.
    for (int rep = 0; rep < 3; ++rep) {
        double s = wallSeconds([&] { est.estimate(samples); });
        if (p.fitMs == 0.0 || s * 1000.0 < p.fitMs)
            p.fitMs = s * 1000.0;
    }
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseCheckArgs(argc, argv);
    if (!args)
        return 2;
    const auto [check, quick] = *args;

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    int servers = quick ? 16 : 32;
    std::size_t intervals = quick ? 2 : 4;
    double interval_s = quick ? 2.0 : 5.0;

    // --- cluster stepping sweep ------------------------------------
    std::vector<ClusterPoint> cluster_pts;
    for (unsigned w : check ? std::vector<unsigned>{1, hw}
                            : sweepWidths()) {
        cluster_pts.push_back(
            clusterReplayAt(w, servers, intervals, interval_s));
        if (check && hw == 1)
            break; // speedup clause is vacuous on one core
    }

    // --- corpus-sized ALS fit sweep --------------------------------
    const auto &plat = power::defaultPlatform();
    cf::UtilityEstimator est(plat);
    {
        cf::Profiler prof(plat, 0.0);
        Rng rng(5);
        for (const auto &p : perf::workloadLibrary()) {
            perf::PerfModel model(plat, p);
            std::vector<double> pw, hb;
            prof.measureAll(model, pw, hb, rng);
            est.addCorpusApp(p.name, pw, hb);
        }
    }
    std::vector<std::size_t> cols;
    for (std::size_t c = 0; c < est.columnCount(); c += 10)
        cols.push_back(c); // ~10% mask
    cf::Profiler prof(plat, 0.0);
    perf::PerfModel model(plat, perf::workload("stream"));
    Rng mrng(9);
    auto samples = prof.measure(model, cols, mrng);

    std::vector<AlsPoint> als_pts;
    if (!check) {
        for (unsigned w : sweepWidths())
            als_pts.push_back(alsFitAt(w, est, samples));
    }

    // --- JSON ------------------------------------------------------
    std::cout << "{\"bench\":\"scaling\",\"hardware_concurrency\":"
              << hw << ",";
    std::cout << "\"cluster\":{\"servers\":" << servers
              << ",\"intervals\":" << intervals
              << ",\"interval_s\":" << interval_s << ",\"sweep\":[";
    for (std::size_t i = 0; i < cluster_pts.size(); ++i) {
        const ClusterPoint &p = cluster_pts[i];
        std::cout << (i ? "," : "") << "{\"threads\":" << p.threads
                  << ",\"wall_s\":" << p.wallSeconds
                  << ",\"steps_per_sec\":" << p.stepsPerSec
                  << ",\"speedup\":"
                  << p.stepsPerSec / cluster_pts[0].stepsPerSec
                  << "}";
    }
    std::cout << "]},";
    std::cout << "\"als\":{\"corpus_rows\":" << est.corpusSize()
              << ",\"columns\":" << est.columnCount()
              << ",\"sampled\":" << cols.size() << ",\"sweep\":[";
    for (std::size_t i = 0; i < als_pts.size(); ++i) {
        const AlsPoint &p = als_pts[i];
        std::cout << (i ? "," : "") << "{\"threads\":" << p.threads
                  << ",\"fit_ms\":" << p.fitMs << ",\"speedup\":"
                  << als_pts[0].fitMs / p.fitMs << "}";
    }
    std::cout << "]}}" << std::endl;

    if (check && hw > 1 && cluster_pts.size() == 2) {
        double speedup =
            cluster_pts[1].stepsPerSec / cluster_pts[0].stepsPerSec;
        if (speedup < 1.0) {
            std::cerr << "FAIL: parallel cluster stepping slower than "
                         "serial (speedup "
                      << speedup << " at " << hw << " threads)\n";
            return 1;
        }
    }
    return 0;
}
