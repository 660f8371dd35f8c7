/**
 * @file
 * Policy arena: every registered policy races through the same
 * scenario matrix — workload mix x cap trace x fault schedule — on
 * the managed single-server platform, and each cell reports realized
 * throughput, utility, cap adherence and an M/M/1 tail-latency view
 * of the worst application.  Emits one JSON document on stdout:
 *
 *   cells:  one record per (policy, mix, trace, faults) combination
 *
 * `--check` turns the bench into a regression tripwire:
 *
 *   1. conservation — a direct PlanSelector sweep over oracle
 *                     frontiers: every policy's chosen plan fits the
 *                     offered budget at every grid point (spatial
 *                     allocations within `usable`, fair splits within
 *                     the budget);
 *   2. home turf    — the paper's App+Res+ESD-Aware baseline is not
 *                     dominated by a rival planner on its home
 *                     scenario (the stringent constant cap with an
 *                     ESD attached, no faults);
 *   3. round-trip   — every registered policy's CLI name resolves
 *                     back to its kind and its wire id survives a
 *                     capture Config encode/decode bit-exactly;
 *   4. rejection    — a Config record carrying an unregistered
 *                     policy byte or a corrupt fingerprint fails to
 *                     decode with a diagnostic, and the checked CLI
 *                     numeric parsers refuse garbage.
 *
 * Exits non-zero when any clause fails.
 */

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/plan_selector.hh"
#include "core/policy_registry.hh"
#include "perf/latency.hh"
#include "serve/replay.hh"
#include "sim/server.hh"
#include "util/parse.hh"

namespace
{

using namespace psm;

/** The M/M/1 view of a cell: a full-speed app serves at this rate. */
constexpr double kServiceScale = 100.0; // requests/s at perfNorm 1
constexpr double kOfferedLoad = 30.0;   // requests/s per app
constexpr double kSloP99 = 0.5;         // seconds

/** A named piecewise-constant cap schedule. */
struct CapSchedule
{
    std::string name;
    std::vector<Watts> caps;  ///< one cap per segment
    double segmentSeconds = 3.0;
};

/** A named fault schedule (ambient per-poll probability). */
struct FaultSchedule
{
    std::string name;
    double rate = 0.0;
};

/** Everything one (policy, mix, trace, faults) cell reports. */
struct ArenaCell
{
    std::string policy;
    int mix = 0;
    std::string trace;
    std::string faults;
    double throughput = 0.0;   ///< mean normalized throughput
    double utility = 0.0;      ///< sum of per-app normalized perf
    Watts avgPower = 0.0;
    double violationFraction = 0.0;
    Watts worstOvershoot = 0.0;
    double p99 = 0.0;          ///< worst-app M/M/1 p99 (s)
    int sloViolations = 0;     ///< apps missing the p99 SLO
};

/** Run one cell: a two-app managed server replaying the schedule. */
ArenaCell
runCell(const core::PolicyInfo &info, int mix_id,
        const CapSchedule &caps, const FaultSchedule &faults)
{
    sim::Server server;
    // Uniform hardware across the arena: every cell has the ESD;
    // whether a policy exploits it is the policy's business.
    server.attachEsd(esd::leadAcidUps());
    server.setCap(caps.caps.front());

    core::ManagerConfig cfg;
    cfg.policy = info.kind;
    cfg.oracleUtilities = true; // deterministic, calibration-free
    if (faults.rate > 0.0)
        cfg.faults.setAmbientRate(faults.rate);
    core::ServerManager manager(server, cfg);
    manager.seedCorpus(perf::workloadLibrary());

    const perf::Mix &mx = perf::mix(mix_id);
    manager.addApp(perf::workload(mx.app1));
    manager.addApp(perf::workload(mx.app2));
    for (Watts cap : caps.caps) {
        manager.setCap(cap);
        manager.run(toTicks(caps.segmentSeconds));
    }

    ArenaCell cell;
    cell.policy = info.cliName;
    cell.mix = mix_id;
    cell.trace = caps.name;
    cell.faults = faults.name;
    cell.throughput = manager.serverNormalizedThroughput();
    for (const core::AppRecord &rec : manager.records()) {
        double perf = rec.normalizedPerf(server.now());
        cell.utility += perf;
        double p99 = perf::LatencyModel::p99(perf * kServiceScale,
                                             kOfferedLoad);
        cell.p99 = std::max(cell.p99, p99);
        if (!(p99 <= kSloP99))
            ++cell.sloViolations;
    }
    cell.avgPower = server.meter().averagePower();
    cell.violationFraction = server.meter().violationFraction();
    cell.worstOvershoot = server.meter().worstOvershoot();

    bench::maybeDumpTelemetry(manager.telemetry(),
                       "arena/" + cell.policy + "/mix" +
                           std::to_string(mix_id) + "/" + caps.name +
                           "/" + faults.name);
    return cell;
}

void
printCell(const ArenaCell &cell, bool first)
{
    std::cout << (first ? "" : ",") << "{\"policy\":\"" << cell.policy
              << "\",\"mix\":" << cell.mix << ",\"trace\":\""
              << cell.trace << "\",\"faults\":\"" << cell.faults
              << "\",\"throughput\":" << cell.throughput
              << ",\"utility\":" << cell.utility << ",\"avg_power_w\":"
              << cell.avgPower << ",\"violation_fraction\":"
              << cell.violationFraction << ",\"worst_overshoot_w\":"
              << cell.worstOvershoot << ",\"p99_s\":";
    if (cell.p99 == perf::LatencyModel::unstable)
        std::cout << "\"unstable\"";
    else
        std::cout << cell.p99;
    std::cout << ",\"slo_violations\":" << cell.sloViolations << "}";
}

/**
 * Clause 1: direct planner-level conservation.  Realized meter
 * violations are transiently nonzero by design (actuation lag), so
 * the exact invariant is checked where it is exact: the selector's
 * chosen plan against the budget it was offered.
 */
bool
checkConservation()
{
    bool ok = true;
    std::vector<core::UtilityCurve> curves;
    for (const char *name : {"stream", "kmeans", "pagerank", "x264"})
        curves.push_back(bench::oracleCurve(name));
    std::vector<const core::UtilityCurve *> ptrs;
    for (const core::UtilityCurve &c : curves)
        ptrs.push_back(&c);
    core::UtilityCurve avg(
        "server-average", power::defaultPlatform().knobSpace(),
        core::averageSurfaces({bench::oracleSurface("stream"),
                               bench::oracleSurface("kmeans"),
                               bench::oracleSurface("pagerank"),
                               bench::oracleSurface("x264")}),
        core::KnobFreedom::All);

    core::PlanSelector selector(power::defaultPlatform(),
                                core::AllocatorConfig{});
    for (const core::PolicyInfo &info :
         core::PolicyRegistry::instance().all()) {
        for (double budget = 10.0; budget <= 150.0; budget += 3.5) {
            core::PlanInputs in;
            in.policy = info.kind;
            in.cap = budget;
            in.budget = budget;
            in.curves = ptrs;
            in.appCount = ptrs.size();
            in.serverAverage = &avg;
            core::PlanDecision d = selector.select(in);
            double n = static_cast<double>(ptrs.size());
            double granted = 0.0;
            switch (d.choice) {
              case core::PlanChoice::SpatialUtility:
                granted = d.alloc.used;
                break;
              case core::PlanChoice::FairRaplSpace:
              case core::PlanChoice::ServerAvgSpace:
                granted = d.perAppBudget * n;
                break;
              default:
                // Temporal/idle plans run at most one app at a time
                // within the ON budget; nothing concurrent to sum.
                continue;
            }
            if (granted > budget + 1e-6) {
                std::cerr << "FAIL: " << info.cliName << " grants "
                          << granted << " W of a " << budget
                          << " W budget ("
                          << core::planChoiceName(d.choice) << ")\n";
                ok = false;
            }
        }
    }
    return ok;
}

/** Clause 3/4: registry round-trips and malformed-input rejection. */
bool
checkRoundTripsAndRejection()
{
    bool ok = true;
    const auto &reg = core::PolicyRegistry::instance();

    for (const core::PolicyInfo &info : reg.all()) {
        // CLI spelling resolves back to the same policy (the path
        // psm-served --policy takes).
        const core::PolicyInfo *by_name = reg.findName(info.cliName);
        if (!by_name || by_name->kind != info.kind) {
            std::cerr << "FAIL: CLI name '" << info.cliName
                      << "' does not round-trip\n";
            ok = false;
            continue;
        }
        // Wire id survives a capture Config encode/decode, and the
        // re-encoded record is bit-exact.
        serve::EngineConfig cfg;
        cfg.manager.policy = info.kind;
        std::vector<std::uint8_t> bytes =
            serve::encodeCaptureConfig(cfg);
        serve::EngineConfig decoded;
        std::string error;
        if (!serve::decodeCaptureConfig(bytes, decoded, &error)) {
            std::cerr << "FAIL: Config round-trip of "
                      << info.cliName << " rejected: " << error
                      << "\n";
            ok = false;
            continue;
        }
        if (decoded.manager.policy != info.kind ||
            serve::encodeCaptureConfig(decoded) != bytes) {
            std::cerr << "FAIL: Config round-trip of "
                      << info.cliName << " not bit-exact\n";
            ok = false;
        }
    }

    // An unregistered policy byte must be refused with a reason.
    {
        serve::EngineConfig cfg;
        std::vector<std::uint8_t> bytes =
            serve::encodeCaptureConfig(cfg);
        // Config layout: version u8, nodes u32, cap f64, esd u8,
        // seedBase u64, seedCorpus u8, maxAdvance f64, policy u8.
        const std::size_t policy_off = 1 + 4 + 8 + 1 + 8 + 1 + 8;
        bytes[policy_off] = 250;
        // Re-seal the FNV-1a fingerprint over the mutated body so
        // only the policy validation can reject it.
        std::uint64_t h = 14695981039346656037ULL;
        for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
            h ^= bytes[i];
            h *= 1099511628211ULL;
        }
        for (std::size_t i = 0; i < 8; ++i)
            bytes[bytes.size() - 8 + i] =
                static_cast<std::uint8_t>(h >> (8 * i));
        serve::EngineConfig decoded;
        std::string error;
        if (serve::decodeCaptureConfig(bytes, decoded, &error)) {
            std::cerr << "FAIL: unregistered policy byte 250 "
                         "decoded\n";
            ok = false;
        } else if (error.find("policy") == std::string::npos) {
            std::cerr << "FAIL: policy rejection lacks a diagnostic "
                         "(got '" << error << "')\n";
            ok = false;
        }
        // And a corrupt fingerprint is caught before any field.
        bytes.back() ^= 0xff;
        if (serve::decodeCaptureConfig(bytes, decoded, &error)) {
            std::cerr << "FAIL: corrupt fingerprint decoded\n";
            ok = false;
        }
    }

    // The checked CLI parsers refuse what atoi silently accepted.
    {
        long l = 0;
        double f = 0.0;
        std::uint16_t port = 0;
        bool rejects = !util::parseLong("12x", l) &&
                       !util::parseLong("", l) &&
                       !util::parseLong("9999999999999999999999", l) &&
                       !util::parseFiniteDouble("nan", f) &&
                       !util::parseFiniteDouble("80W", f) &&
                       !util::parsePort("0", port) &&
                       !util::parsePort("70000", port) &&
                       !util::parsePort("-1", port);
        bool accepts = util::parseLong("-3", l) && l == -3 &&
                       util::parseFiniteDouble("80.5", f) &&
                       f == 80.5 && util::parsePort("7633", port) &&
                       port == 7633;
        if (!rejects || !accepts) {
            std::cerr << "FAIL: checked CLI parsers mis-handle "
                         "garbage or valid input\n";
            ok = false;
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseCheckArgs(argc, argv);
    if (!args)
        return 2;
    const auto [check, quick] = *args;

    // The scenario matrix.  "tight-80" is the paper's stringent
    // constant cap (Fig. 10's P_cap) — the baseline's home turf;
    // "step" exercises E1 cap-change replanning in both directions.
    std::vector<CapSchedule> traces = {
        {"tight-80", {80.0, 80.0, 80.0}, quick ? 3.0 : 5.0},
        {"step", {110.0, 70.0, 95.0}, quick ? 3.0 : 5.0},
    };
    if (!quick)
        traces.push_back({"diurnal", {120.0, 95.0, 75.0, 90.0, 110.0},
                          5.0});
    std::vector<FaultSchedule> faults = {{"none", 0.0},
                                         {"ambient", 0.02}};
    std::vector<int> mixes = quick ? std::vector<int>{1, 8}
                                   : std::vector<int>{1, 5, 8, 12};

    const auto &policies = core::PolicyRegistry::instance().all();
    std::vector<ArenaCell> cells;
    std::cout << "{\"bench\":\"arena\",\"policies\":"
              << policies.size() << ",\"cells\":[";
    for (const core::PolicyInfo &info : policies) {
        for (int mix_id : mixes) {
            for (const CapSchedule &trace : traces) {
                for (const FaultSchedule &fault : faults) {
                    cells.push_back(
                        runCell(info, mix_id, trace, fault));
                    printCell(cells.back(), cells.size() == 1);
                }
            }
        }
    }
    std::cout << "]}" << std::endl;

    if (!check)
        return 0;

    bool ok = checkConservation();
    ok = checkRoundTripsAndRejection() && ok;

    // Clause 2: the full baseline keeps its home scenario.  Rivals
    // may win elsewhere (that is the arena's point), but if either
    // rival strictly beats App+Res+ESD-Aware under the stringent
    // constant cap with the ESD attached and no faults, the baseline
    // (or the harness) has regressed.
    auto homeUtility = [&](const std::string &policy) {
        double best = 0.0;
        for (const ArenaCell &c : cells) {
            if (c.policy == policy && c.trace == "tight-80" &&
                c.faults == "none")
                best = std::max(best, c.utility);
        }
        return best;
    };
    double baseline = homeUtility("app-res-esd-aware");
    for (const char *rival : {"fastcap", "cuttlesys"}) {
        double theirs = homeUtility(rival);
        if (theirs > baseline * 1.02 + 1e-9) {
            std::cerr << "FAIL: " << rival << " dominates the "
                      << "baseline on its home scenario ("
                      << theirs << " vs " << baseline << ")\n";
            ok = false;
        }
    }
    if (baseline <= 0.0) {
        std::cerr << "FAIL: baseline home-scenario utility is zero "
                     "— vacuous domination check\n";
        ok = false;
    }
    return ok ? 0 : 1;
}
