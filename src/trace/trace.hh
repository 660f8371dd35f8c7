/**
 * @file
 * The trace core: compile-time event ids and the dense per-shard
 * aggregate store every Telemetry bus publishes into.
 *
 * Publishing writes straight into fixed per-event arrays — no
 * allocation, no string hashing, no map walk — and reads are plain
 * array loads.  Merging two sinks is an O(#events) array add, which
 * is what keeps per-node shard merges flat as the cluster layer
 * scales toward thousands of nodes.
 *
 * The event registry lives in events.def (X-macro): one dense id per
 * name the control plane publishes.  Names exist only for output
 * (dumps, snapshots); every publisher and reader uses the typed id,
 * so a mistyped event fails to compile.
 *
 * The sink is intentionally single-writer (one shard per thread or
 * per work index, exactly like the TelemetryShards discipline); the
 * deterministic merge order is the caller's, so aggregate state is
 * bit-identical across PSM_THREADS widths.
 */

#ifndef PSM_TRACE_TRACE_HH
#define PSM_TRACE_TRACE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace psm::trace
{

/** What one event's aggregate means. */
enum class EventKind : std::uint8_t
{
    Counter = 0, ///< monotonic tally; merge adds
    Timer,       ///< duration observations; merge folds count/total/max
    Gauge,       ///< last-value sample; merge keeps the later write
};

/** Dense compile-time event ids, one per registry row. */
enum class EventId : std::uint16_t
{
#define PSM_TRACE_EVENT(id, kind, name) id,
#include "events.def"
#undef PSM_TRACE_EVENT
};

/** Number of registered events (== one past the last EventId). */
inline constexpr std::size_t kEventCount = []() {
    std::size_t n = 0;
#define PSM_TRACE_EVENT(id, kind, name) ++n;
#include "events.def"
#undef PSM_TRACE_EVENT
    return n;
}();

/** The registry name of an event. */
std::string_view eventName(EventId id);

/** The aggregate kind of an event. */
EventKind eventKind(EventId id);

/** Aggregate of one Timer event. */
struct TimerAgg
{
    std::uint64_t count = 0;
    std::uint64_t total = 0;
    std::uint64_t max = 0;
};

/**
 * A single-writer aggregate store: dense per-event counter, timer
 * and touched arrays, written in place by every publish.
 */
class TraceSink
{
  public:
    /** Bump a Counter event. */
    void
    count(EventId id, std::uint64_t delta = 1)
    {
        counter_agg[touch(id)] += delta;
    }

    /** Observe one duration under a Timer event. */
    void
    observe(EventId id, std::uint64_t ticks)
    {
        TimerAgg &t = timer_agg[touch(id)];
        ++t.count;
        t.total += ticks;
        t.max = std::max(t.max, ticks);
    }

    /** Sample a Gauge event (last write wins). */
    void
    gauge(EventId id, std::uint64_t value)
    {
        counter_agg[touch(id)] = value;
    }

    /** Counter total (or last Gauge sample) for @p id. */
    std::uint64_t
    counterValue(EventId id) const
    {
        return counter_agg[static_cast<std::size_t>(id)];
    }

    /** Timer aggregate for @p id (zeroes when never observed). */
    TimerAgg
    timerValue(EventId id) const
    {
        return timer_agg[static_cast<std::size_t>(id)];
    }

    /**
     * Post-hoc merge: fold @p other's aggregates into this sink.
     * Counters add, timers fold count/total/max, gauges keep the
     * other sink's sample when it published one (merge order is the
     * caller's, so the result is deterministic).
     */
    void mergeFrom(const TraceSink &other);

    /** Visit every event published at least once (even with a zero
     * delta), in id order: f(EventId). */
    template <typename F>
    void
    forEachTouched(F &&f) const
    {
        for (std::size_t i = 0; i < kEventCount; ++i) {
            if (touched_flags[i])
                f(static_cast<EventId>(i));
        }
    }

  private:
    std::array<std::uint64_t, kEventCount> counter_agg{};
    std::array<TimerAgg, kEventCount> timer_agg{};
    std::array<std::uint8_t, kEventCount> touched_flags{};

    std::size_t
    touch(EventId id)
    {
        auto ix = static_cast<std::size_t>(id);
        touched_flags[ix] = 1;
        return ix;
    }
};

} // namespace psm::trace

#endif // PSM_TRACE_TRACE_HH
