/**
 * @file
 * The Telemetry bus: a lightweight, cross-cutting sink for control-plane
 * observability.
 *
 * Every layer of the control plane — learning pipeline, plan selector,
 * allocator, coordinator, control loop and the cluster substrate —
 * publishes into one of three primitives:
 *
 *  - counters: monotonically increasing named event tallies
 *    (plan choices, accountant events, guard trips, mode transitions);
 *  - timers: named duration observations with count/total/max;
 *  - decision records: one structured record per allocation decision
 *    (trigger, policy, selected plan, resulting coordination mode,
 *    objective, budget, latency).
 *
 * Every publish names a compile-time event id (trace::EventId) and
 * lands directly in the bus's dense trace::TraceSink arrays — no
 * allocation, no string hashing.  Names appear only on the way out:
 * counters(), timers() and the dumps build name-ordered views from
 * the registry.  Decision records are packed into fixed-size binary
 * form with their strings interned in a bus-local table.
 *
 * The bus is passive and allocation-light: publishing never influences
 * control decisions, so a manager with and without telemetry attached
 * behaves identically.  Text and JSON dump hooks serve the benches
 * (see bench/bench_common.hh) and tests.
 */

#ifndef PSM_CORE_TELEMETRY_HH
#define PSM_CORE_TELEMETRY_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.hh"
#include "util/units.hh"

namespace psm::core
{

/** One allocation decision as observed on the bus. */
struct DecisionRecord
{
    Tick when = 0;          ///< simulated time of the decision
    std::string trigger;    ///< comma-joined causes ("E1-cap-change",
                            ///< "refresh", "trim", "calibration", ...)
    std::string policy;     ///< policyName() of the deciding manager
    std::string plan;       ///< planChoiceName() of the selected plan
    std::string mode;       ///< coordinationModeName() after actuation
    double objective = 0.0; ///< expected Eq. 1 objective of the plan
    Watts budget = 0.0;     ///< dynamic budget the plan divided
    std::size_t apps = 0;   ///< active applications at decision time
    Tick latency = 0;       ///< allocation latency (calibration+decision)
};

/** Aggregate of one timer: count, total and max ticks. */
using TimerStat = trace::TimerAgg;

/**
 * The bus itself.  Not thread-safe (the simulator is single-threaded;
 * parallel regions publish through TelemetryShards); cheap enough to
 * leave attached in benches.
 */
class Telemetry
{
  public:
    // --- publishing ---------------------------------------------------

    /** Bump a counter. */
    void
    count(trace::EventId id, std::uint64_t delta = 1)
    {
        trace_sink.count(id, delta);
    }

    /** Observe one duration under a timer. */
    void
    observe(trace::EventId id, Tick elapsed)
    {
        trace_sink.observe(id, elapsed);
    }

    /** Sample a last-value gauge. */
    void
    gauge(trace::EventId id, std::uint64_t value)
    {
        trace_sink.gauge(id, value);
    }

    /** Publish one allocation decision record. */
    void record(DecisionRecord rec);

    // --- reading ------------------------------------------------------

    /** Read a counter (or gauge); 0 when never published. */
    std::uint64_t
    counter(trace::EventId id) const
    {
        return trace_sink.counterValue(id);
    }

    /** Read a timer's aggregate (zeroes when never observed). */
    TimerStat
    timer(trace::EventId id) const
    {
        return trace_sink.timerValue(id);
    }

    /** All decision records, oldest first (bounded ring), unpacked
     * into a fresh container. */
    std::vector<DecisionRecord> decisions() const;

    /** All touched counters (and gauges), name-ordered. */
    std::map<std::string, std::uint64_t> counters() const;

    /** All touched timers, name-ordered. */
    std::map<std::string, TimerStat> timers() const;

    /**
     * Fold another bus into this one: counters and timers add up,
     * gauges keep the incoming sample, decision records append
     * (oldest dropped once past maxDecisions).  Used to aggregate
     * per-node telemetry at cluster scope; the aggregate fold is a
     * dense O(#events) array add.
     */
    void merge(const Telemetry &other);

    /** The dense aggregate store (for raw trace-sink folds, e.g. the
     * serving layer's snapshot path). */
    const trace::TraceSink &sink() const { return trace_sink; }

    /** Human-readable dump (counters, timers, recent decisions). */
    void dumpText(std::ostream &os) const;

    /** Machine-readable JSON dump of the same content.  Non-finite
     * numbers (NaN/Inf objectives or budgets) are emitted as null so
     * the output always parses. */
    void dumpJson(std::ostream &os) const;

    /**
     * Decision records kept before the ring starts dropping its
     * oldest entries (counters and timers are never dropped).
     */
    static constexpr std::size_t maxDecisions = 65536;

  private:
    /** One decision in fixed-size binary form: strings interned into
     * the bus-local string table. */
    struct PackedDecision
    {
        Tick when = 0;
        Tick latency = 0;
        double objective = 0.0;
        Watts budget = 0.0;
        std::uint64_t apps = 0;
        std::uint32_t trigger = 0; ///< intern ids
        std::uint32_t policy = 0;
        std::uint32_t plan = 0;
        std::uint32_t mode_name = 0;
    };

    trace::TraceSink trace_sink;

    /** Packed decision ring + the strings it interns. */
    std::deque<PackedDecision> packed_log;
    std::vector<std::string> intern_table;
    std::map<std::string, std::uint32_t> intern_ids;

    std::uint32_t intern(const std::string &s);
    void pushPacked(PackedDecision d);
};

/**
 * Race-free publishing path for parallel loops: one private Telemetry
 * shard per work index, merged into a target bus in index order after
 * the loop joins.
 *
 * The bus itself stays unsynchronized (the common case is still a
 * single-threaded control plane); parallel regions that want to
 * publish grab shard(i) — which no other index touches — and the
 * deterministic merge order keeps aggregated decision logs stable
 * across worker counts.  mergeInto() is a dense array fold per
 * shard, so the merge cost does not grow with the number of distinct
 * events published.
 */
class TelemetryShards
{
  public:
    explicit TelemetryShards(std::size_t n) : shard_list(n) {}

    std::size_t size() const { return shard_list.size(); }

    /** The private bus of work index @p ix. */
    Telemetry &shard(std::size_t ix) { return shard_list.at(ix); }

    /** Fold every shard into @p bus, in index order. */
    void
    mergeInto(Telemetry &bus) const
    {
        for (const Telemetry &s : shard_list)
            bus.merge(s);
    }

  private:
    std::vector<Telemetry> shard_list;
};

} // namespace psm::core

#endif // PSM_CORE_TELEMETRY_HH
