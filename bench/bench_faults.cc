/**
 * @file
 * Fault-injection bench: replays a load-following cap trace on an
 * N-node Equal(Ours) cluster while the seeded fault injector kills
 * apps, fails meter reads, pulls the ESD and crashes nodes, and
 * reports how gracefully the control plane degrades.  Emits one JSON
 * document on stdout:
 *
 *   sweep:   aggregate perf + fault/degraded counters per fault rate
 *            (rate 0 is the clean baseline)
 *   check:   the three robustness clauses (see below) when --check
 *
 * `--check` turns the bench into a regression tripwire:
 *
 *   1. completion  — the faulted 32-node replay finishes with no
 *                    crash or assert (reaching the check at all);
 *   2. visibility  — every injected fault kind with a nonzero
 *                    `fault.*` counter has its matching `degraded.*`
 *                    recovery counter nonzero, and at least one fault
 *                    was injected overall;
 *   3. determinism — the same seed replays the identical fault and
 *                    degradation schedule (and identical total
 *                    energy) at PSM_THREADS=1 and PSM_THREADS=4.
 *   4. bounded loss — the faulted replay keeps at least half of the
 *                    clean baseline's aggregate normalized perf.
 *
 * Exits non-zero when any clause fails.
 */

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "cluster/cluster_manager.hh"
#include "cluster/power_trace.hh"
#include "util/fault.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace psm;

struct FaultRun
{
    double rate = 0.0;
    unsigned threads = 0;
    double aggregatePerf = 0.0;
    Joules totalEnergy = 0.0;
    /** All fault.* / degraded.* counters of the run. */
    std::map<std::string, std::uint64_t> counters;

    std::uint64_t count(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }

    std::uint64_t totalFaults() const
    {
        std::uint64_t total = 0;
        for (const auto &[name, value] : counters)
            if (name.rfind("fault.", 0) == 0)
                total += value;
        return total;
    }
};

/**
 * Replay a load-following cap trace on an N-node Equal(Ours) cluster
 * with the ambient fault rate applied to both the per-server fault
 * plans (meter/ESD/kill/actuation) and the pool plan (node crashes).
 */
FaultRun
replayAt(double rate, unsigned width, int servers,
         std::size_t intervals, double interval_s)
{
    util::ThreadPool::configureGlobal(width);

    cluster::ClusterConfig cfg;
    cfg.policy = cluster::ClusterPolicy::EqualOurs;
    cfg.servers = servers;
    if (rate > 0.0) {
        cfg.manager.faults.setAmbientRate(rate);
        cfg.faults.setAmbientRate(rate);
    }
    cluster::ClusterManager cm(cfg);
    cm.populateDefault();

    cluster::TraceConfig tc;
    tc.points = intervals;
    tc.interval = toTicks(interval_s);
    cluster::PowerTrace demand = cluster::generateDiurnalDemand(tc);
    cluster::PowerTrace caps = cluster::loadFollowingCaps(
        demand, cm.uncappedDemandEstimate(), 0.25);

    cluster::ClusterResult res = cm.replay(caps);

    FaultRun run;
    run.rate = rate;
    run.threads = width;
    run.aggregatePerf = res.aggregatePerf;
    run.totalEnergy = res.totalEnergy;
    core::Telemetry agg = cm.aggregateTelemetry();
    for (const auto &[name, value] : agg.counters()) {
        if (name.rfind("fault.", 0) == 0 ||
            name.rfind("degraded.", 0) == 0)
            run.counters.emplace(name, value);
    }
    return run;
}

/** fault.* counter -> the degraded.* action that must accompany it. */
const std::vector<std::pair<const char *, const char *>> &
recoveryMap()
{
    static const std::vector<std::pair<const char *, const char *>>
        map = {
            {"fault.meter_stale", "degraded.meter_fallback"},
            {"fault.meter_nan", "degraded.meter_fallback"},
            {"fault.esd_loss", "degraded.esd_unavailable"},
            {"fault.esd_fade", "degraded.esd_capacity"},
            {"fault.app_kill", "degraded.app_reaped"},
            {"fault.node_crash", "degraded.node_isolated"},
            {"fault.node_exception", "degraded.node_isolated"},
            {"fault.actuation_stuck", "degraded.knobs_to_rapl"},
        };
    return map;
}

void
printRun(const FaultRun &run, bool first)
{
    std::cout << (first ? "" : ",") << "{\"rate\":" << run.rate
              << ",\"threads\":" << run.threads
              << ",\"aggregate_perf\":" << run.aggregatePerf
              << ",\"total_energy_j\":" << run.totalEnergy
              << ",\"counters\":{";
    bool first_counter = true;
    for (const auto &[name, value] : run.counters) {
        std::cout << (first_counter ? "" : ",") << "\"" << name
                  << "\":" << value;
        first_counter = false;
    }
    std::cout << "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseCheckArgs(argc, argv);
    if (!args)
        return 2;
    const auto [check, quick] = *args;

    // The acceptance scenario is a 32-node replay; --quick only
    // shortens the horizon, not the cluster.
    int servers = 32;
    std::size_t intervals = quick ? 3 : 4;
    double interval_s = quick ? 3.0 : 5.0;
    const double faulted_rate = 0.02; // the 1-5% ambient band

    std::cout << "{\"bench\":\"faults\",\"servers\":" << servers
              << ",\"intervals\":" << intervals << ",\"interval_s\":"
              << interval_s << ",\"sweep\":[";

    // Clean baseline plus the sweep (check mode only needs baseline
    // and the faulted band edges).
    std::vector<double> rates = check
                                    ? std::vector<double>{0.0,
                                                          faulted_rate}
                                    : std::vector<double>{0.0, 0.01,
                                                          0.02, 0.05};
    std::vector<FaultRun> runs;
    for (double r : rates) {
        runs.push_back(replayAt(r, 0, servers, intervals, interval_s));
        printRun(runs.back(), runs.size() == 1);
    }
    std::cout << "],";

    // Determinism pair: same seed, same faulted rate, widths 1 and 4.
    FaultRun serial =
        replayAt(faulted_rate, 1, servers, intervals, interval_s);
    FaultRun wide =
        replayAt(faulted_rate, 4, servers, intervals, interval_s);
    std::cout << "\"determinism\":[";
    printRun(serial, true);
    printRun(wide, false);
    std::cout << "]}" << std::endl;

    if (!check)
        return 0;

    bool ok = true;
    const FaultRun &baseline = runs[0];
    const FaultRun &faulted = runs[1];

    // Clause 2: visibility — faults occurred, and each observed fault
    // kind has its recovery action.
    if (faulted.totalFaults() == 0) {
        std::cerr << "FAIL: no faults injected at rate "
                  << faulted_rate << " — vacuous run\n";
        ok = false;
    }
    for (const auto &[fault, recovery] : recoveryMap()) {
        if (faulted.count(fault) > 0 && faulted.count(recovery) == 0) {
            std::cerr << "FAIL: " << fault << " = "
                      << faulted.count(fault) << " but " << recovery
                      << " = 0 (fault without recovery action)\n";
            ok = false;
        }
    }

    // Clause 3: determinism across thread-pool widths.
    if (serial.counters != wide.counters) {
        std::cerr << "FAIL: fault/degraded counters differ between "
                     "PSM_THREADS=1 and PSM_THREADS=4\n";
        for (const auto &[name, value] : serial.counters) {
            std::uint64_t other = wide.count(name);
            if (value != other) {
                std::cerr << "  " << name << ": " << value << " vs "
                          << other << "\n";
            }
        }
        ok = false;
    }
    if (serial.totalEnergy != wide.totalEnergy) {
        std::cerr << "FAIL: total energy differs between widths ("
                  << serial.totalEnergy << " J vs "
                  << wide.totalEnergy << " J)\n";
        ok = false;
    }

    // Clause 4: bounded utility loss vs. the clean baseline.
    if (baseline.aggregatePerf > 0.0 &&
        faulted.aggregatePerf < 0.5 * baseline.aggregatePerf) {
        std::cerr << "FAIL: faulted perf " << faulted.aggregatePerf
                  << " lost more than half of clean baseline "
                  << baseline.aggregatePerf << "\n";
        ok = false;
    }
    return ok ? 0 : 1;
}
