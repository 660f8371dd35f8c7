/**
 * @file
 * Telemetry publish/merge microbench and the telemetry tripwire.
 *
 * Measures:
 *
 *  - publish: ns/op for typed-id publishes into the dense store vs
 *    the same stream through a string-keyed std::map store (an
 *    in-bench copy of the map publish path the dense store replaced);
 *  - merge: folding a TelemetryShards sweep into one bus — a dense
 *    O(#events) array add per shard.
 *
 * `--check` turns the bench into a regression tripwire:
 *
 *  1. golden aggregates — the fixed mixed publish stream (counters, a
 *     zero-delta counter, a timer, a gauge and decision records over
 *     two merged shards) must hash to the pinned golden value shared
 *     with the TelemetryGolden tests;
 *  2. replay determinism — a scripted ServeEngine capture must replay
 *     bit-exactly (digest + surface-epoch sum) at thread widths 1
 *     and 4;
 *  3. publish perf — the typed publish path must not regress past
 *     1.2x the string-keyed map reference (it is normally several
 *     times faster).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/telemetry.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "serve/replay.hh"
#include "telemetry_golden.hh"
#include "trace/trace.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace psm;
using core::Telemetry;
using core::TelemetryShards;

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Best-of-3 wall time, for timing stability under CI noise. */
double
bestSeconds(const std::function<void()> &fn)
{
    double best = wallSeconds(fn);
    for (int i = 0; i < 2; ++i)
        best = std::min(best, wallSeconds(fn));
    return best;
}

// --- publish path ---------------------------------------------------

/** The string-keyed std::map store the dense sink replaced: the
 * reference the typed publish path is gated against. */
struct MapStore
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, core::TimerStat> timers;

    void
    count(trace::EventId id, std::uint64_t delta = 1)
    {
        counters[std::string(trace::eventName(id))] += delta;
    }

    void
    observe(trace::EventId id, Tick elapsed)
    {
        core::TimerStat &t = timers[std::string(trace::eventName(id))];
        ++t.count;
        t.total += elapsed;
        if (elapsed > t.max)
            t.max = elapsed;
    }
};

struct PublishReport
{
    double typedNs = 0.0;       ///< count/observe by EventId, dense
    double mapStringNs = 0.0;   ///< same stream, string-keyed maps
    std::uint64_t checksum = 0; ///< keeps the loops observable

    double
    speedup() const
    {
        return typedNs > 0.0 ? mapStringNs / typedNs : 0.0;
    }
};

/** Time @p iters rounds of the control-loop publish mix (one counter
 * bump, one timer observation) on @p bus, in ns per publish. */
template <typename Bus>
double
publishNs(Bus &bus, std::size_t iters)
{
    return bestSeconds([&] {
               for (std::size_t i = 0; i < iters; ++i) {
                   bus.count(trace::EventId::AllocatorAllocate);
                   bus.observe(trace::EventId::AllocatorSpatial,
                               static_cast<Tick>(i & 0xff));
               }
           }) *
           1e9 / (static_cast<double>(iters) * 2.0);
}

PublishReport
timePublish(std::size_t iters)
{
    PublishReport rep;
    Telemetry bus;
    rep.typedNs = publishNs(bus, iters);
    rep.checksum += bus.counter(trace::EventId::AllocatorAllocate);
    MapStore maps;
    rep.mapStringNs = publishNs(maps, iters);
    rep.checksum += maps.counters["allocator.allocate"];
    return rep;
}

// --- merge path -----------------------------------------------------

/** Publish event @p Id on @p bus per its kind (a template, so the
 * Timer branch hands observe() a compile-time id). */
template <trace::EventId Id>
void
publishOne(Telemetry &bus, std::size_t salt)
{
    constexpr auto i = static_cast<std::size_t>(Id);
    if constexpr (trace::kEventKinds[i] == trace::EventKind::Counter)
        bus.count(Id, (salt + i) % 7 + 1);
    else if constexpr (trace::kEventKinds[i] == trace::EventKind::Timer)
        bus.observe(Id, static_cast<Tick>((salt + i) % 11 + 1));
    else
        bus.gauge(Id, salt + i);
}

/** Touch every registered event on @p bus, in id order. */
void
publishFullRegistry(Telemetry &bus, std::size_t salt)
{
#define PSM_TRACE_EVENT(id, kind, name) \
    publishOne<trace::EventId::id>(bus, salt);
#include "trace/events.def"
#undef PSM_TRACE_EVENT
}

/** Wall time of one full TelemetryShards sweep merged into a fresh
 * bus, in ms (best of three, averaged over @p rounds). */
double
timeMerge(std::size_t shards, std::size_t rounds)
{
    TelemetryShards sweep(shards);
    for (std::size_t s = 0; s < shards; ++s)
        publishFullRegistry(sweep.shard(s), s);

    double total = bestSeconds([&] {
        for (std::size_t r = 0; r < rounds; ++r) {
            Telemetry target;
            sweep.mergeInto(target);
        }
    });
    return total * 1e3 / static_cast<double>(rounds);
}

// --- checks ---------------------------------------------------------

struct CheckReport
{
    bool goldenOk = false;
    std::uint64_t goldenHash = 0;
    bool replayOk = false;
    std::size_t replayCommits = 0;
    std::string firstFailure;
};

bool
checkGolden(CheckReport &rep)
{
    rep.goldenHash =
        golden::telemetryHash(golden::goldenMixedBus(), true);
    if (rep.goldenHash != golden::kGoldenMixedHash) {
        rep.firstFailure = "golden mixed-stream aggregates changed";
        return false;
    }
    return true;
}

bool
checkReplay(CheckReport &rep)
{
    const std::string path = "bench_trace_capture.bin";

    serve::EngineConfig cfg;
    cfg.nodes = 2;
    cfg.serverCap = 80.0;
    cfg.seedBase = 23;
    {
        serve::ServeEngine engine(cfg);
        if (!engine.startCapture(path)) {
            rep.firstFailure = "could not open capture file";
            return false;
        }
        serve::EventRequest ev;
        ev.op = serve::EventOp::Arrival;
        for (std::uint32_t w = 0; w < 4; ++w) {
            ev.workload = w;
            ev.node = -1;
            engine.apply(ev);
        }
        engine.commit();
        ev = serve::EventRequest{};
        ev.op = serve::EventOp::CapChange;
        ev.node = -1; // broadcast
        ev.value = 55.0;
        engine.apply(ev);
        engine.commit();
        ev = serve::EventRequest{};
        ev.op = serve::EventOp::Advance;
        ev.value = 2.0;
        engine.apply(ev);
        engine.commit();
        engine.stopCapture();
    }

    serve::Capture capture;
    std::string error;
    if (!serve::readCapture(path, capture, error)) {
        rep.firstFailure = "capture unreadable: " + error;
        std::remove(path.c_str());
        return false;
    }
    rep.replayCommits = capture.commitCount();

    for (unsigned width : {1u, 4u}) {
        util::ThreadPool::configureGlobal(width);
        serve::ReplayResult result = serve::replayCapture(capture);
        if (!result.ok) {
            rep.firstFailure = "replay diverged at width " +
                               std::to_string(width) + ": " +
                               result.firstMismatch;
            std::remove(path.c_str());
            return false;
        }
    }
    std::remove(path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            check = true;
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else {
            std::cerr << "usage: " << argv[0]
                      << " [--check] [--quick]\n";
            return 2;
        }
    }

    const std::size_t iters = quick ? 400000 : 4000000;
    const std::size_t shards = quick ? 32 : 64;
    const std::size_t rounds = quick ? 50 : 200;

    PublishReport publish = timePublish(iters);
    double merge_ms = timeMerge(shards, rounds);

    CheckReport checks;
    bool perfOk = true;
    if (check) {
        checks.goldenOk = checkGolden(checks);
        if (checks.goldenOk)
            checks.replayOk = checkReplay(checks);
        perfOk = publish.typedNs <= 1.2 * publish.mapStringNs;
        if (!perfOk && checks.firstFailure.empty())
            checks.firstFailure =
                "typed publish regressed past 1.2x the string-keyed "
                "map reference";
    }

    // --- JSON ------------------------------------------------------
    std::cout << "{\"bench\":\"trace\",\"events\":"
              << trace::kEventCount << ",";
    std::cout << "\"publish\":{\"iters\":" << iters
              << ",\"typed_ns\":" << publish.typedNs
              << ",\"map_string_ns\":" << publish.mapStringNs
              << ",\"speedup\":" << publish.speedup()
              << ",\"checksum\":" << publish.checksum << "},";
    std::cout << "\"merge\":{\"shards\":" << shards
              << ",\"rounds\":" << rounds << ",\"ms\":" << merge_ms
              << "}";
    if (check) {
        std::cout << ",\"check\":{\"golden\":"
                  << (checks.goldenOk ? "true" : "false")
                  << ",\"golden_hash\":" << checks.goldenHash
                  << ",\"replay\":"
                  << (checks.replayOk ? "true" : "false")
                  << ",\"replay_commits\":" << checks.replayCommits
                  << ",\"publish_perf\":"
                  << (perfOk ? "true" : "false") << "}";
    }
    std::cout << "}\n";

    if (check &&
        (!checks.goldenOk || !checks.replayOk || !perfOk)) {
        std::cerr << "CHECK FAILED: " << checks.firstFailure << "\n";
        return 1;
    }
    return 0;
}
