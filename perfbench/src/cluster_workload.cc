/**
 * @file
 * cluster-10k: ClusterManager::replay of 10240 oracle-utility nodes
 * behind a depth-3, demand-aware PowerTree, one interactive service
 * beside one batch app per node, on 10-second cap intervals.  No net,
 * serve or CF on the replay path.  The traced run adds a rack probe
 * that serves one rack of the same configuration, for the serve-, net-
 * and generator-layer figures every traced run reports.
 */

#include <cmath>
#include <cstdio>
#include <optional>

#include "cluster/cluster_manager.hh"
#include "common.hh"
#include "core/policy_registry.hh"
#include "layers.hh"
#include "perf/workloads.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

namespace
{

using namespace psm;

constexpr unsigned kWidth = 4;
constexpr int kServers = 10240;
constexpr double kIntervalS = 10.0;
/** Node-intervals per wall second the interval count is sized for. */
constexpr double kNominalRate = 2600.0;
/** Nodes of the traced rack probe and of the determinism slice. */
constexpr int kRackNodes = 16;
constexpr int kSliceNodes = 256;

cluster::ClusterConfig
clusterConfig(int servers)
{
    cluster::ClusterConfig cfg;
    cfg.servers = servers;
    cfg.manager.oracleUtilities = true;
    cfg.seedWorkloadCorpus = false;
    cfg.topology = cluster::Topology::Tree;
    cfg.treeDepth = 3;
    cfg.demandAwareSplit = true;
    cfg.interactivePerServer = 1;
    return cfg;
}

/** The NodePool a replay of @p cfg builds before its first interval. */
cluster::NodePoolConfig
poolConfig(const cluster::ClusterConfig &cfg)
{
    cluster::NodePoolConfig pc;
    pc.servers = cfg.servers;
    pc.manager = cfg.manager;
    pc.manager.policy =
        core::PolicyRegistry::instance().findName(cfg.managedPolicy)->kind;
    pc.seedBase = cfg.seed;
    pc.shardSize = cfg.shardSize;
    pc.seedWorkloadCorpus = cfg.seedWorkloadCorpus;
    pc.esd = cfg.esd;
    return pc;
}

/**
 * Per-node caps in watts, one per interval: bench_cluster_scale's
 * peak-shaving swing between ~75 W and ~55 W per node (the low half
 * sits below P_idle + P_cm, so caps bind and violations are possible),
 * with a seeded 2 W jitter.
 */
std::vector<double>
nodeCaps(std::size_t intervals, std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    std::vector<double> w;
    for (std::size_t i = 0; i < intervals; ++i)
        w.push_back((i % 2 == 0 ? 75.0 : 55.0) + 2.0 * rng.uniform());
    return w;
}

cluster::PowerTrace
capTrace(int servers, const std::vector<double> &perNode)
{
    cluster::PowerTrace caps;
    caps.interval = toTicks(kIntervalS);
    for (double w : perNode)
        caps.values.push_back(w * servers);
    return caps;
}

/** Exact (hex-float) face of a replay: equal runs print equal text. */
std::string
fingerprint(const cluster::ClusterResult &r)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%a %a %a %zu", r.aggregatePerf,
                  r.totalEnergy, r.capViolationFraction, r.allocatorCalls);
    return buf;
}

/** Replay a slice of the cluster at one pool width. */
std::string
sliceFingerprint(unsigned width, const std::vector<double> &perNode)
{
    util::ThreadPool::configureGlobal(width);
    cluster::ClusterManager cm(clusterConfig(kSliceNodes));
    cm.populateDefault();
    return fingerprint(cm.replay(capTrace(kSliceNodes, perNode)));
}

} // namespace

RunResult
runCluster10k(const RunOptions &opt, Tracer &tracer)
{
    RunResult out;
    util::ThreadPool::configureGlobal(kWidth);
    out.info["pool_width"] = std::to_string(kWidth);
    auto intervals = static_cast<std::size_t>(std::max(
        3.0, std::round(opt.seconds * kNominalRate / kServers)));
    std::vector<double> per_node = nodeCaps(intervals, opt.seed);
    cluster::ClusterConfig cfg = clusterConfig(kServers);

    // Set-up: the manager and its population, plus the NodePool build
    // that replay() performs before its first interval, in process CPU
    // seconds (CPU time excludes what a hypervisor steals).
    std::vector<double> setup, build;
    std::optional<cluster::ClusterManager> cm;
    for (int rep = 0; rep < 5; ++rep) {
        cm.reset();
        double c0 = processCpuSeconds();
        cm.emplace(cfg);
        cm->populateDefault();
        build.push_back(nodeBuildSeconds(poolConfig(cfg), 1));
        setup.push_back(processCpuSeconds() - c0);
    }
    out.endToEnd["setup_s"] = {median(setup), "s"};
    cluster::PowerTrace caps = capTrace(kServers, per_node);

    double c0 = processCpuSeconds();
    auto t0 = Clock::now();
    cluster::ClusterResult res;
    {
        SpanScope s(tracer, "cluster.replay");
        res = cm->replay(caps);
    }
    double wall = secondsSince(t0);
    double cpu = processCpuSeconds() - c0;
    double node_intervals = static_cast<double>(kServers) *
                            static_cast<double>(intervals);
    out.endToEnd["node_intervals_per_s"] = {node_intervals / wall, "1/s"};
    out.endToEnd["norm_throughput"] = {res.aggregatePerf, "ratio"};
    out.endToEnd["cap_violation_frac"] = {res.capViolationFraction, "ratio"};
    out.endToEnd["cpu_ms_per_op"] = {cpu * 1e3 / node_intervals, "ms"};
    out.attempted = static_cast<std::uint64_t>(node_intervals);
    out.info["intervals"] = std::to_string(intervals);
    out.info["energy_j"] = std::to_string(res.totalEnergy);
    out.info["fingerprint"] = fingerprint(res);

    std::map<std::string, std::uint64_t> counters;
    if (opt.trace)
        counters = cm->aggregateTelemetry().counters();
    cm.reset();
    out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};

    // Gate 1: per-level cap conservation held in every interval.
    if (res.conservationViolations)
        out.fail(std::to_string(res.conservationViolations) +
                 " power-tree conservation violations");
    // Gate 2: a slice replays bit-identically at widths 1 and 4, and
    // twice at width 4 (the same seed gives the same Eq. 1 and energy).
    std::string serial = sliceFingerprint(1, per_node);
    std::string sharded = sliceFingerprint(kWidth, per_node);
    std::string again = sliceFingerprint(kWidth, per_node);
    if (opt.corruptReference)
        serial += " corrupt";
    out.info["gate.slice_fingerprint"] = sharded;
    if (serial != sharded)
        out.fail("slice replay differs between pool widths 1 and 4");
    if (again != sharded)
        out.fail("slice replay differs between two runs at width 4");
    if (!opt.trace)
        return out;

    // Rack probe: one rack served at this cluster's per-node caps.
    serveRackProbe(kRackNodes, per_node, kIntervalS, opt, tracer, out);
    counterMetrics(counters, node_intervals, node_intervals, out);
    cluster::PowerTreeConfig tc;
    tc.leaves = kServers;
    tc.depth = cfg.treeDepth;
    probeTree(tc, caps.values, opt.seed, tracer, out);
    // The replay's own tree counts replace the standalone tree's.
    out.layers["cluster.node_build_s"] = {median(build), "s"};
    out.layers["cluster.tree_visits_per_resolve"] = {
        static_cast<double>(res.treeResolveVisits) /
            static_cast<double>(intervals),
        "ratio"};
    out.layers["cluster.tree_prunes"] = {
        static_cast<double>(res.treeResolvePrunes), "count"};
    out.layers["cluster.cap_pushes_per_interval"] = {
        static_cast<double>(res.capPushes) / static_cast<double>(intervals),
        "ratio"};
    out.layers["cluster.cpu_per_wall"] = {cpu / wall, "ratio"};

    std::vector<AppPair> pairs;
    const auto &ilib = perf::interactiveLibrary();
    for (int s = 0; s < 4; ++s)
        pairs.emplace_back(ilib[static_cast<std::size_t>(s) % ilib.size()].name,
                           perf::mix(s + 1).app2);
    probeCore(pairs, per_node, tracer, out);
    probeSimStep(pairs, tracer, out);
    util::ThreadPool::configureGlobal(kWidth);
    probeCf(0.10, opt.seed, tracer, out);
    // CF's share of the replay's wall time (no fits run here).
    out.layers["cf.commit_share"] = {
        static_cast<double>(counterOf(counters, "learning.als_fits")) *
            out.layers["cf.estimate_ms"].value / 1e3 / wall,
        "ratio"};
    return out;
}

} // namespace perfbench
