#include "trace.hh"

namespace psm::trace
{

namespace
{

constexpr std::string_view kEventNames[] = {
#define PSM_TRACE_EVENT(id, kind, name) name,
#include "events.def"
#undef PSM_TRACE_EVENT
};

constexpr EventKind kEventKinds[] = {
#define PSM_TRACE_EVENT(id, kind, name) EventKind::kind,
#include "events.def"
#undef PSM_TRACE_EVENT
};

static_assert(sizeof(kEventNames) / sizeof(kEventNames[0]) ==
                  kEventCount,
              "registry tables out of sync");

} // namespace

std::string_view
eventName(EventId id)
{
    return kEventNames[static_cast<std::size_t>(id)];
}

EventKind
eventKind(EventId id)
{
    return kEventKinds[static_cast<std::size_t>(id)];
}

void
TraceSink::mergeFrom(const TraceSink &other)
{
    for (std::size_t i = 0; i < kEventCount; ++i) {
        if (!other.touched_flags[i])
            continue;
        touched_flags[i] = 1;
        switch (kEventKinds[i]) {
          case EventKind::Counter:
            counter_agg[i] += other.counter_agg[i];
            break;
          case EventKind::Timer: {
            TimerAgg &t = timer_agg[i];
            const TimerAgg &o = other.timer_agg[i];
            t.count += o.count;
            t.total += o.total;
            t.max = std::max(t.max, o.max);
            break;
          }
          case EventKind::Gauge:
            counter_agg[i] = other.counter_agg[i];
            break;
        }
    }
}

} // namespace psm::trace
