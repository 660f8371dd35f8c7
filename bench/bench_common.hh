/**
 * @file
 * Shared helpers for the per-figure benchmark binaries.
 *
 * Every binary regenerates one table or figure from the paper's
 * evaluation: it runs the relevant experiment on the simulated
 * platform and prints the same rows/series the paper reports, so the
 * output can be compared against the published figure shape by shape.
 */

#ifndef PSM_BENCH_BENCH_COMMON_HH
#define PSM_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cf/profiler.hh"
#include "core/manager.hh"
#include "core/telemetry.hh"
#include "core/utility_curve.hh"
#include "perf/workloads.hh"
#include "util/random.hh"
#include "util/table.hh"

namespace psm::bench
{

/** The flags of a bench that doubles as a CTest tripwire. */
struct CheckArgs
{
    bool check = false; ///< gate on the bench's properties
    bool quick = false; ///< shorter runs, same gates
};

/**
 * Parse `[--check] [--quick]`.  Any other argument prints the usage
 * line to stderr and yields nullopt; the caller then exits with 2.
 */
inline std::optional<CheckArgs>
parseCheckArgs(int argc, char **argv)
{
    CheckArgs args;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            args.check = true;
        else if (std::strcmp(argv[i], "--quick") == 0)
            args.quick = true;
        else {
            std::cerr << "usage: " << argv[0]
                      << " [--check] [--quick]\n";
            return std::nullopt;
        }
    }
    return args;
}

/**
 * Env-gated control-plane telemetry dump: set PSM_TELEMETRY=text or
 * PSM_TELEMETRY=json to stream each experiment's bus to stderr (the
 * figure tables on stdout stay clean).  @p label names the experiment
 * in the dump header.
 */
inline void
maybeDumpTelemetry(const core::Telemetry &tel, const std::string &label)
{
    const char *fmt = std::getenv("PSM_TELEMETRY");
    if (!fmt || !*fmt)
        return;
    if (std::strcmp(fmt, "json") == 0) {
        std::cerr << "{\"experiment\":\"" << label
                  << "\",\"telemetry\":";
        tel.dumpJson(std::cerr);
        std::cerr << "}\n";
    } else {
        std::cerr << "--- telemetry: " << label << " ---\n";
        tel.dumpText(std::cerr);
    }
}

/** Outcome of running one Table II mix under one policy. */
struct MixOutcome
{
    double throughput = 0.0;  ///< mean normalized app throughput
    double app1Perf = 0.0;
    double app2Perf = 0.0;
    Watts avgPower = 0.0;
    double violationFraction = 0.0;
    Watts worstOvershoot = 0.0;
    Watts split1 = 0.0;       ///< latest granted power, app 1
    Watts split2 = 0.0;       ///< latest granted power, app 2
    core::CoordinationMode mode = core::CoordinationMode::Idle;
};

/**
 * Run one mix under one policy for @p duration and collect the
 * outcome.  The CF corpus is seeded with the full workload library
 * (estimation is leave-one-out inside the manager).
 */
inline MixOutcome
runMix(int mix_id, core::PolicyKind policy, Watts cap, bool with_esd,
       Tick duration = toTicks(60.0), bool oracle = false)
{
    sim::Server server;
    if (with_esd)
        server.attachEsd(esd::leadAcidUps());
    server.setCap(cap);

    core::ManagerConfig cfg;
    cfg.policy = policy;
    cfg.oracleUtilities = oracle;
    core::ServerManager manager(server, cfg);
    manager.seedCorpus(perf::workloadLibrary());

    const perf::Mix &mx = perf::mix(mix_id);
    manager.addApp(perf::workload(mx.app1));
    manager.addApp(perf::workload(mx.app2));
    manager.run(duration);

    MixOutcome out;
    out.throughput = manager.serverNormalizedThroughput();
    auto records = manager.records();
    if (records.size() == 2) {
        out.app1Perf = records[0].normalizedPerf(server.now());
        out.app2Perf = records[1].normalizedPerf(server.now());
    }
    out.avgPower = server.meter().averagePower();
    out.violationFraction = server.meter().violationFraction();
    out.worstOvershoot = server.meter().worstOvershoot();
    out.mode = manager.mode();

    const core::Allocation &alloc = manager.lastAllocation();
    if (alloc.apps.size() == 2) {
        out.split1 = alloc.apps[0].scheduled()
                         ? alloc.apps[0].point->power
                         : 0.0;
        out.split2 = alloc.apps[1].scheduled()
                         ? alloc.apps[1].point->power
                         : 0.0;
    }

    maybeDumpTelemetry(manager.telemetry(),
                       "mix" + std::to_string(mix_id) + "/" +
                           core::policyName(policy));
    return out;
}

/** Exhaustively measured (noiseless) utility surface for one app. */
inline cf::UtilitySurface
oracleSurface(const std::string &app)
{
    const auto &plat = power::defaultPlatform();
    cf::Profiler prof(plat, 0.0);
    perf::PerfModel model(plat, perf::workload(app));
    Rng rng(1);
    std::vector<double> p, h;
    prof.measureAll(model, p, h, rng);
    return cf::UtilityEstimator::surfaceFromRows(p, h);
}

/** Oracle utility curve for one app. */
inline core::UtilityCurve
oracleCurve(const std::string &app,
            core::KnobFreedom freedom = core::KnobFreedom::All)
{
    return core::UtilityCurve(app, power::defaultPlatform().knobSpace(),
                              oracleSurface(app), freedom);
}

/** The four policies compared at P_cap = 100 W (Fig. 8). */
inline const std::vector<core::PolicyKind> &
figEightPolicies()
{
    static const std::vector<core::PolicyKind> kinds = {
        core::PolicyKind::UtilUnaware,
        core::PolicyKind::ServerResAware,
        core::PolicyKind::AppAware,
        core::PolicyKind::AppResAware,
    };
    return kinds;
}

/** The four schemes compared at P_cap = 80 W (Fig. 10). */
inline const std::vector<core::PolicyKind> &
figTenPolicies()
{
    static const std::vector<core::PolicyKind> kinds = {
        core::PolicyKind::UtilUnaware,
        core::PolicyKind::ServerResAware,
        core::PolicyKind::AppResAware,
        core::PolicyKind::AppResEsdAware,
    };
    return kinds;
}

} // namespace psm::bench

#endif // PSM_BENCH_BENCH_COMMON_HH
