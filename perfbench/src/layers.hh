/**
 * @file
 * Per-layer probes of the traced run: unit costs measured by calling
 * one layer's public entry point on the workload's own inputs, and
 * counter ratios read from the program's exact counters.  Calls far
 * below a microsecond are timed in spans of 64 calls.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/node_pool.hh"
#include "cluster/power_tree.hh"
#include "common.hh"
#include "serve/protocol.hh"

namespace perfbench
{

/** Two co-located applications (library names). */
using AppPair = std::pair<std::string, std::string>;

/** net.encode_event_ns / net.decode_event_ns on @p requests. */
void probeNetCodec(const std::vector<psm::serve::EventRequest> &requests,
                   Tracer &tracer, RunResult &out);

/**
 * core.curve_build_us, core.allocate_us and core.esd_plan_us on
 * oracle curves of @p pairs, splitting the dynamic budget left under
 * each cap in @p caps.
 */
void probeCore(const std::vector<AppPair> &pairs,
               const std::vector<double> &caps, Tracer &tracer,
               RunResult &out);

/**
 * cf.estimate_ms / cf.estimate_cpu_ms: cold UtilityEstimator::estimate
 * of library apps (leave-one-out corpus) from a stratified sample of
 * @p fraction of the knob space, on the current global pool width.
 */
void probeCf(double fraction, std::uint64_t seed, Tracer &tracer,
             RunResult &out);

/** sim.step_ns: sim::Server::step with each pair resident. */
void probeSimStep(const std::vector<AppPair> &pairs, Tracer &tracer,
                  RunResult &out);

/**
 * cluster.tree_resolve_ns plus the tree's visit, prune and grant-change
 * counts: a standalone PowerTree of @p cfg, fed @p rootCaps with
 * per-leaf demands that drift as measured draws would.
 */
void probeTree(const psm::cluster::PowerTreeConfig &cfg,
               const std::vector<double> &rootCaps, std::uint64_t seed,
               Tracer &tracer, RunResult &out);

/** Seconds to build a NodePool of @p cfg (median of @p repeats). */
double nodeBuildSeconds(const psm::cluster::NodePoolConfig &cfg,
                        int repeats);

/**
 * Counter-ratio metrics of the core, cf, sim and cluster layers.
 *
 * @param ops The workload's operations (events or node-intervals).
 * @param nodeIntervals Node control intervals stepped.
 */
void counterMetrics(const std::map<std::string, std::uint64_t> &counters,
                    double ops, double nodeIntervals, RunResult &out);

/** Look a counter up, 0 when absent. */
std::uint64_t counterOf(const std::map<std::string, std::uint64_t> &c,
                        const std::string &name);

/** p50, p99 and busy seconds of a span family, as three metrics. */
void spanFamily(const std::string &prefix, const std::vector<double> &us,
                RunResult &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
