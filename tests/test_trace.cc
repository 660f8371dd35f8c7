/**
 * @file
 * Tests for the trace core and the Telemetry bus riding on it: the
 * event registry, TraceSink aggregate/merge semantics, the binary
 * record-log container, the name-ordered views over the dense store,
 * the decision-ring bound across merges, JSON escaping/non-finite
 * hygiene, and golden hashes of three aggregate views.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_manager.hh"
#include "core/telemetry.hh"
#include "serve/engine.hh"
#include "telemetry_golden.hh"
#include "trace/log.hh"
#include "trace/trace.hh"

namespace psm
{
namespace
{

using core::DecisionRecord;
using core::Telemetry;
using core::TimerStat;

// --- Event registry ------------------------------------------------

TEST(TraceRegistry, NamesRoundTripToDenseIds)
{
    ASSERT_GT(trace::kEventCount, 0u);
    // Names are the output keys of every view, so they must be unique
    // and non-empty: name -> id is then a bijection.
    std::map<std::string_view, trace::EventId> by_name;
    for (std::size_t i = 0; i < trace::kEventCount; ++i) {
        auto id = static_cast<trace::EventId>(i);
        std::string_view name = trace::eventName(id);
        ASSERT_FALSE(name.empty());
        ASSERT_TRUE(by_name.emplace(name, id).second) << name;
    }
    for (const auto &[name, id] : by_name)
        EXPECT_EQ(trace::eventName(id), name);
}

// --- TraceSink -----------------------------------------------------

TEST(TraceSink, TimerSlotsCoverExactlyTheTimers)
{
    // Only Timer events own a TimerAgg slot: the slots are dense and
    // distinct, every other kind maps to the kTimerCount sentinel, and
    // reading a timer aggregate under a counter id yields zeroes.
    std::vector<bool> used(trace::kTimerCount, false);
    for (std::size_t i = 0; i < trace::kEventCount; ++i) {
        std::size_t slot = trace::kTimerSlots[i];
        if (trace::kEventKinds[i] != trace::EventKind::Timer) {
            EXPECT_EQ(slot, trace::kTimerCount) << i;
            continue;
        }
        ASSERT_LT(slot, trace::kTimerCount) << i;
        EXPECT_FALSE(used[slot]) << i;
        used[slot] = true;
    }
    EXPECT_EQ(std::count(used.begin(), used.end(), true),
              static_cast<long>(trace::kTimerCount));

    trace::TraceSink sink;
    sink.observe(trace::EventId::AllocatorSpatial, 3);
    sink.count(trace::EventId::ControlPolls, 5);
    EXPECT_EQ(sink.timerValue(trace::EventId::AllocatorSpatial).total, 3u);
    EXPECT_EQ(sink.timerValue(trace::EventId::ControlPolls).count, 0u);
    EXPECT_EQ(sink.timerValue(trace::EventId::ManagerReallocate).count, 0u);
}

TEST(TraceSink, FoldAndMergeSemantics)
{
    trace::TraceSink a;
    for (std::size_t i = 0; i < 1000; ++i)
        a.count(trace::EventId::ControlPolls);
    a.count(trace::EventId::SelectorIdle, 0);
    a.observe(trace::EventId::ManagerReallocate, 10);
    a.observe(trace::EventId::ManagerReallocate, 4);
    a.gauge(trace::EventId::PoolInflight, 5);

    EXPECT_EQ(a.counterValue(trace::EventId::ControlPolls), 1000u);
    trace::TimerAgg t = a.timerValue(trace::EventId::ManagerReallocate);
    EXPECT_EQ(t.count, 2u);
    EXPECT_EQ(t.total, 14u);
    EXPECT_EQ(t.max, 10u);

    trace::TraceSink b;
    b.count(trace::EventId::ControlPolls, 3);
    b.observe(trace::EventId::ManagerReallocate, 20);
    b.gauge(trace::EventId::PoolInflight, 9);

    a.mergeFrom(b);
    EXPECT_EQ(a.counterValue(trace::EventId::ControlPolls), 1003u);
    t = a.timerValue(trace::EventId::ManagerReallocate);
    EXPECT_EQ(t.count, 3u);
    EXPECT_EQ(t.total, 34u);
    EXPECT_EQ(t.max, 20u);
    // Gauges: the merged-in sink's sample wins.
    EXPECT_EQ(a.counterValue(trace::EventId::PoolInflight), 9u);
    // Merging an untouched sink changes nothing (a gauge it never
    // sampled keeps this sink's value).
    a.mergeFrom(trace::TraceSink{});
    EXPECT_EQ(a.counterValue(trace::EventId::PoolInflight), 9u);
    EXPECT_EQ(a.counterValue(trace::EventId::ControlPolls), 1003u);

    // Touched events in id order; the zero-delta SelectorIdle counts.
    std::vector<trace::EventId> touched;
    a.forEachTouched([&](trace::EventId id) { touched.push_back(id); });
    EXPECT_EQ(touched, (std::vector<trace::EventId>{
                           trace::EventId::ControlPolls,
                           trace::EventId::ManagerReallocate,
                           trace::EventId::SelectorIdle,
                           trace::EventId::PoolInflight}));
}

// --- Binary record-log container -----------------------------------

TEST(TraceLog, ContainerRoundTripAndCorruption)
{
    const std::string path = "trace_log_test.bin";
    {
        trace::LogWriter w;
        ASSERT_TRUE(w.open(path));
        ASSERT_TRUE(w.writeRecord(1, {0xaa, 0xbb}));
        ASSERT_TRUE(w.writeRecord(2, {}));
        ASSERT_TRUE(w.writeRecord(7, {1, 2, 3, 4, 5}));
        w.close();
    }
    {
        trace::LogReader r;
        std::string error;
        ASSERT_TRUE(r.open(path, error)) << error;
        std::uint8_t type = 0;
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(r.readRecord(type, payload));
        EXPECT_EQ(type, 1);
        EXPECT_EQ(payload, (std::vector<std::uint8_t>{0xaa, 0xbb}));
        ASSERT_TRUE(r.readRecord(type, payload));
        EXPECT_EQ(type, 2);
        EXPECT_TRUE(payload.empty());
        ASSERT_TRUE(r.readRecord(type, payload));
        EXPECT_EQ(type, 7);
        // Clean EOF: readRecord false, no error.
        EXPECT_FALSE(r.readRecord(type, payload));
        EXPECT_TRUE(r.error().empty());
    }
    // Truncate mid-record: the reader must flag corruption, not EOF.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.put(static_cast<char>(3)); // type byte, then nothing
    }
    {
        trace::LogReader r;
        std::string error;
        ASSERT_TRUE(r.open(path, error)) << error;
        std::uint8_t type = 0;
        std::vector<std::uint8_t> payload;
        while (r.readRecord(type, payload)) {
        }
        EXPECT_FALSE(r.error().empty());
    }
    std::remove(path.c_str());
}

// --- Name-ordered views over the dense store ----------------------

TEST(TelemetryTrace, StringNamesRouteToDenseSlots)
{
    Telemetry tel;
    tel.count(trace::EventId::ControlPolls, 3);
    tel.count(trace::EventId::ControlPolls, 2);
    tel.observe(trace::EventId::ManagerReallocate, 7);
    tel.observe(trace::EventId::ManagerReallocate, 3);
    tel.gauge(trace::EventId::ServeShed, 4);

    // Each view entry is keyed by the registry name of exactly one
    // dense slot and carries that slot's aggregate.
    const auto counters = tel.counters();
    EXPECT_EQ(counters,
              (std::map<std::string, std::uint64_t>{
                  {"control.polls", 5}, {"serve.shed", 4}}));
    const auto timers = tel.timers();
    ASSERT_EQ(timers.size(), 1u);
    const TimerStat &t = timers.at("manager.reallocate");
    EXPECT_EQ(t.count, 2u);
    EXPECT_EQ(t.total, 10u);
    EXPECT_EQ(t.max, 7u);
    EXPECT_EQ(t.count,
              tel.timer(trace::EventId::ManagerReallocate).count);
}

// --- Decision ring bound across merge ------------------------------

TEST(TelemetryTrace, DecisionRingBoundHeldAcrossMerge)
{
    auto fill = [](Telemetry &tel, Tick base, std::size_t n) {
        DecisionRecord rec;
        rec.policy = "app-res-aware";
        rec.plan = "spatial-utility";
        rec.mode = "space";
        rec.trigger = "refresh";
        for (std::size_t i = 0; i < n; ++i) {
            rec.when = base + static_cast<Tick>(i);
            tel.record(rec);
        }
    };
    const std::size_t n = Telemetry::maxDecisions - 1000;
    Telemetry a;
    Telemetry b;
    fill(a, 0, n);
    fill(b, 1u << 20, n);
    ASSERT_EQ(a.decisions().size(), n);

    // Two near-full logs: the merged ring must stay bounded, keeping
    // the newest records (all of b's survive, a's oldest drop).
    a.merge(b);
    const auto log = a.decisions();
    ASSERT_EQ(log.size(), Telemetry::maxDecisions);
    const std::size_t dropped = 2 * n - Telemetry::maxDecisions;
    EXPECT_EQ(log.front().when, static_cast<Tick>(dropped));
    EXPECT_EQ(log.back().when,
              static_cast<Tick>((1u << 20) + n - 1));
    EXPECT_EQ(log.back().plan, "spatial-utility");
}

// --- JSON hygiene --------------------------------------------------

TEST(TelemetryTrace, JsonEscapesControlCharacters)
{
    Telemetry tel;
    DecisionRecord rec;
    rec.trigger = std::string("a\"b\\c\nd\te\rf\x01g\bh\ff");
    rec.policy = "p";
    rec.plan = "q";
    rec.mode = "m";
    tel.record(rec);

    std::ostringstream os;
    tel.dumpJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\bh\\ff"),
              std::string::npos)
        << json;
    // No raw control characters may survive into the document.
    for (char c : json)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
}

TEST(TelemetryTrace, JsonNonFiniteNumbersAreNull)
{
    Telemetry tel;
    DecisionRecord rec;
    rec.trigger = "t";
    rec.policy = "p";
    rec.plan = "q";
    rec.mode = "m";
    rec.objective = std::numeric_limits<double>::quiet_NaN();
    rec.budget = std::numeric_limits<double>::infinity();
    tel.record(rec);

    std::ostringstream os;
    tel.dumpJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"objective\":null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"budget_w\":null"), std::string::npos) << json;
    EXPECT_EQ(json.find("nan"), std::string::npos) << json;
    EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

// --- Golden aggregates -----------------------------------------------
//
// FNV-1a hashes of three aggregate views, pinned on the bus as it was
// before the legacy backend, the overflow maps and the record ring
// went: the single dense store must reproduce them bit for bit.

TEST(TelemetryGolden, MixedStreamWithGaugeAndShardMerge)
{
    core::Telemetry bus = golden::goldenMixedBus();
    EXPECT_EQ(bus.counter(trace::EventId::PoolQueueDepth), 4999u + 7u);
    EXPECT_EQ(golden::telemetryHash(bus, true), golden::kGoldenMixedHash)
        << std::hex << golden::telemetryHash(bus, true);
}

TEST(TelemetryGolden, ClusterTreeReplayAggregate)
{
    cluster::ClusterConfig cfg;
    cfg.servers = 8;
    cfg.topology = cluster::Topology::Tree;
    cfg.treeDepth = 3;
    cfg.treeFanout = 2;
    cfg.oversubscription = 1.1;
    cfg.leafCapacity = 150.0;
    cfg.demandAwareSplit = true;
    cfg.shardSize = 3; // ragged shards: the pool merge runs per batch
    cluster::ClusterManager cm(cfg);
    cm.populateDefault();
    cluster::PowerTrace caps;
    caps.interval = toTicks(5.0);
    caps.values = {400.0, 360.0, 430.0, 390.0};
    cm.replay(caps);
    std::uint64_t hash =
        golden::telemetryHash(cm.aggregateTelemetry(), false);
    EXPECT_EQ(hash, 0xb2d60a0cb8f01177ULL) << std::hex << hash;
}

TEST(TelemetryGolden, ServeEngineSnapshotCounters)
{
    serve::EngineConfig cfg;
    cfg.nodes = 2;
    cfg.serverCap = 80.0;
    cfg.seedBase = 23;
    serve::ServeEngine engine(cfg);
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
    ev.node = -1;
    ev.value = 55.0;
    engine.apply(ev);
    engine.commit();
    ev = serve::EventRequest{};
    ev.op = serve::EventOp::Advance;
    ev.value = 2.0;
    engine.apply(ev);
    engine.commit();

    core::Telemetry service_bus;
    service_bus.gauge(trace::EventId::ServeShed, 3);
    service_bus.count(trace::EventId::ControlPolls, 5);
    serve::StatsSnapshot snap;
    engine.fillSnapshot(snap, &service_bus);

    // Timer totals and maxima of wall-clock timers are not stable.
    std::map<std::string, std::uint64_t> stable;
    for (const auto &[name, value] : snap.counters) {
        auto endsWith = [&name](std::string_view tail) {
            return name.size() >= tail.size() &&
                   name.compare(name.size() - tail.size(), tail.size(),
                                tail) == 0;
        };
        if (!endsWith(".total_us") && !endsWith(".max_us"))
            stable.emplace(name, value);
    }
    EXPECT_EQ(stable.at("serve.shed"), 3u);
    golden::Fnv h;
    golden::mixCounters(h, stable);
    EXPECT_EQ(h.hash, 0xa57aa10e69dd2b87ULL) << std::hex << h.hash;
}

} // namespace
} // namespace psm
