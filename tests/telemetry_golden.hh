/**
 * @file
 * The golden telemetry stream and aggregate hash shared by the
 * TelemetryGolden tests (tests/test_trace.cc) and the
 * `bench_trace --check` tripwire.
 *
 * The hash is FNV-1a over the name-ordered counters, the timers and
 * the decision log of a bus, so any change to an aggregate, to the
 * merge order or to the gauge rule ("the later merge wins") changes
 * it.  Timer totals and maxima are hashed only on request: on real
 * control-plane buses several timers (allocator.spatial,
 * allocator.esd, cluster.step, cluster.node_step, learning.als_fit)
 * observe wall-clock durations, so only their counts are stable.
 */

#ifndef PSM_TESTS_TELEMETRY_GOLDEN_HH
#define PSM_TESTS_TELEMETRY_GOLDEN_HH

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "core/telemetry.hh"

namespace psm::golden
{

/** FNV-1a accumulator over integers and strings. */
struct Fnv
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;

    void
    mix(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            hash ^= (v >> (8 * b)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    }

    void
    mix(std::string_view s)
    {
        mix(static_cast<std::uint64_t>(s.size()));
        for (char c : s) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 0x100000001b3ULL;
        }
    }

    void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

/** Hash a name-ordered counter map. */
inline void
mixCounters(Fnv &h, const std::map<std::string, std::uint64_t> &counters)
{
    h.mix(static_cast<std::uint64_t>(counters.size()));
    for (const auto &[name, value] : counters) {
        h.mix(name);
        h.mix(value);
    }
}

/** Hash a bus: counters, timers (counts, plus totals and maxima when
 * @p timer_totals), then every decision record field. */
inline std::uint64_t
telemetryHash(const core::Telemetry &tel, bool timer_totals)
{
    Fnv h;
    mixCounters(h, tel.counters());
    const auto timers = tel.timers();
    h.mix(static_cast<std::uint64_t>(timers.size()));
    for (const auto &[name, t] : timers) {
        h.mix(name);
        h.mix(t.count);
        if (timer_totals) {
            h.mix(static_cast<std::uint64_t>(t.total));
            h.mix(static_cast<std::uint64_t>(t.max));
        }
    }
    const auto log = tel.decisions();
    h.mix(static_cast<std::uint64_t>(log.size()));
    for (const core::DecisionRecord &d : log) {
        h.mix(static_cast<std::uint64_t>(d.when));
        h.mix(d.trigger);
        h.mix(d.policy);
        h.mix(d.plan);
        h.mix(d.mode);
        h.mix(d.objective);
        h.mix(d.budget);
        h.mix(static_cast<std::uint64_t>(d.apps));
        h.mix(static_cast<std::uint64_t>(d.latency));
    }
    return h.hash;
}

/** One shard of the golden stream: counters (one with zero deltas),
 * a timer, a gauge and a decision record, varied by @p salt. */
inline void
publishMixed(core::Telemetry &bus, std::uint64_t salt)
{
    for (std::uint64_t i = 0; i < 5000; ++i) {
        bus.count(trace::EventId::ControlPolls);
        bus.count(trace::EventId::SelectorIdle, i % 3);
        bus.observe(trace::EventId::ManagerReallocate,
                    static_cast<Tick>(i % 13));
        bus.gauge(trace::EventId::PoolQueueDepth, i + salt);
    }
    core::DecisionRecord rec;
    rec.when = static_cast<Tick>(42 + salt);
    rec.trigger = "bench";
    rec.policy = "p";
    rec.plan = "q";
    rec.mode = "m";
    rec.objective = 0.5 + static_cast<double>(salt);
    rec.budget = 80.0;
    rec.apps = 2;
    bus.record(rec);
}

/** The golden stream: two salted shards merged in index order. */
inline core::Telemetry
goldenMixedBus()
{
    core::TelemetryShards shards(2);
    publishMixed(shards.shard(0), 0);
    publishMixed(shards.shard(1), 7);
    core::Telemetry bus;
    shards.mergeInto(bus);
    return bus;
}

/** telemetryHash(goldenMixedBus(), true), recorded before the
 * telemetry bus dropped its legacy backend, overflow maps and ring. */
inline constexpr std::uint64_t kGoldenMixedHash = 0x22e952823e46c9e5ULL;

} // namespace psm::golden

#endif // PSM_TESTS_TELEMETRY_GOLDEN_HH
