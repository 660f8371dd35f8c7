/**
 * @file
 * Tests for the serving layer: wire framing (round trips, rejection
 * of truncated/oversized/garbage input, split-read incremental
 * decode), the payload codecs, the ServeEngine's event semantics and
 * digest determinism, the thread-pool backlog gauges, the logging
 * knob, and a deterministic end-to-end daemon exchange over a
 * socketpair — the daemon's decisions must be bit-exact against an
 * in-process ControlLoop replay of the same trace.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>

#include "net/frame.hh"
#include "net/message_reader.hh"
#include "net/object_pool.hh"
#include "serve/client.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "serve/replay.hh"
#include "serve/service.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace psm
{
namespace
{

using net::DecodeResult;
using net::Frame;
using net::FrameReader;
using net::FrameType;
using serve::EventOp;
using serve::EventReply;
using serve::EventRequest;
using serve::ReplyStatus;
using serve::ServeEngine;
using serve::ServeService;
using serve::ServiceConfig;

// --- Framing -------------------------------------------------------

TEST(ServeFrame, RoundTripSingleFrame)
{
    std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(FrameType::Event, 42, payload, bytes);
    ASSERT_EQ(bytes.size(), net::kHeaderSize + payload.size());

    FrameReader reader;
    reader.feed(bytes);
    Frame frame;
    ASSERT_EQ(reader.next(frame), DecodeResult::Frame);
    EXPECT_EQ(frame.type, FrameType::Event);
    EXPECT_EQ(frame.requestId, 42u);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(reader.next(frame), DecodeResult::NeedMore);
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ServeFrame, SplitReadIncrementalDecode)
{
    std::vector<std::uint8_t> payload(37, 0xab);
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(FrameType::Query, 7, payload, bytes);

    // Deliver one byte at a time: the reader must stay NeedMore
    // until the last byte lands, then produce exactly one frame.
    FrameReader reader;
    Frame frame;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
        reader.feed(&bytes[i], 1);
        ASSERT_EQ(reader.next(frame), DecodeResult::NeedMore)
            << "premature frame at byte " << i;
    }
    reader.feed(&bytes[bytes.size() - 1], 1);
    ASSERT_EQ(reader.next(frame), DecodeResult::Frame);
    EXPECT_EQ(frame.payload, payload);
}

TEST(ServeFrame, GluedFramesDecodeInOrder)
{
    std::vector<std::uint8_t> bytes;
    net::encodeFrame(FrameType::Event, 1, {10}, bytes);
    net::encodeFrame(FrameType::Stats, 2, {}, bytes);
    net::encodeFrame(FrameType::Event, 3, {30, 31}, bytes);

    FrameReader reader;
    reader.feed(bytes);
    Frame frame;
    ASSERT_EQ(reader.next(frame), DecodeResult::Frame);
    EXPECT_EQ(frame.requestId, 1u);
    ASSERT_EQ(reader.next(frame), DecodeResult::Frame);
    EXPECT_EQ(frame.type, FrameType::Stats);
    ASSERT_EQ(reader.next(frame), DecodeResult::Frame);
    EXPECT_EQ(frame.requestId, 3u);
    EXPECT_EQ(frame.payload.size(), 2u);
    EXPECT_EQ(reader.next(frame), DecodeResult::NeedMore);
}

TEST(ServeFrame, GarbageMagicLatchesError)
{
    FrameReader reader;
    std::vector<std::uint8_t> junk(net::kHeaderSize, 0x5a);
    reader.feed(junk);
    Frame frame;
    EXPECT_EQ(reader.next(frame), DecodeResult::Error);
    EXPECT_FALSE(reader.error().empty());
    // The error latches: even valid bytes cannot resynchronize.
    std::vector<std::uint8_t> good;
    net::encodeFrame(FrameType::Event, 1, {}, good);
    reader.feed(good);
    EXPECT_EQ(reader.next(frame), DecodeResult::Error);
}

TEST(ServeFrame, BadVersionAndTypeAndOversizeRejected)
{
    Frame frame;
    {
        std::vector<std::uint8_t> bytes;
        net::encodeFrame(FrameType::Event, 1, {}, bytes);
        bytes[2] = 99; // version
        FrameReader reader;
        reader.feed(bytes);
        EXPECT_EQ(reader.next(frame), DecodeResult::Error);
    }
    {
        std::vector<std::uint8_t> bytes;
        net::encodeFrame(FrameType::Event, 1, {}, bytes);
        bytes[3] = 0xee; // frame type
        FrameReader reader;
        reader.feed(bytes);
        EXPECT_EQ(reader.next(frame), DecodeResult::Error);
    }
    {
        std::vector<std::uint8_t> bytes;
        net::encodeFrame(FrameType::Event, 1, {}, bytes);
        std::uint32_t huge = net::kMaxPayload + 1;
        std::memcpy(&bytes[8], &huge, sizeof(huge));
        FrameReader reader;
        reader.feed(bytes);
        EXPECT_EQ(reader.next(frame), DecodeResult::Error);
    }
}

// --- Payload codecs ------------------------------------------------

TEST(ServeWire, EventRequestRoundTrip)
{
    EventRequest ev;
    ev.op = EventOp::Arrival;
    ev.node = 3;
    ev.appId = -1;
    ev.workload = 7;
    ev.value = 123.456;
    ev.cpuScale = 1.5;
    ev.memScale = 0.25;
    ev.deadlineUs = 250000;

    EventRequest back;
    ASSERT_TRUE(decodeEventRequest(encodeEventRequest(ev), back));
    EXPECT_EQ(back.op, ev.op);
    EXPECT_EQ(back.node, ev.node);
    EXPECT_EQ(back.appId, ev.appId);
    EXPECT_EQ(back.workload, ev.workload);
    EXPECT_EQ(back.value, ev.value);
    EXPECT_EQ(back.cpuScale, ev.cpuScale);
    EXPECT_EQ(back.memScale, ev.memScale);
    EXPECT_EQ(back.deadlineUs, ev.deadlineUs);
}

TEST(ServeWire, EventReplyRoundTrip)
{
    EventReply reply;
    reply.status = ReplyStatus::Rejected;
    reply.node = 1;
    reply.appId = 12;
    reply.batched = 5;
    reply.digest.hash = 0xdeadbeefcafef00dULL;
    reply.digest.passes = 17;
    reply.digest.simNow = 123456789;
    reply.digest.activeApps = 3;
    reply.digest.objective = 2.75;

    EventReply back;
    ASSERT_TRUE(decodeEventReply(encodeEventReply(reply), back));
    EXPECT_EQ(back.status, reply.status);
    EXPECT_EQ(back.batched, reply.batched);
    EXPECT_TRUE(back.digest == reply.digest);
}

TEST(ServeWire, StatsSnapshotRoundTrip)
{
    serve::StatsSnapshot s;
    s.simNow = 42;
    s.nodes = 2;
    s.activeApps = 3;
    s.eventsApplied = 100;
    s.batches = 40;
    s.maxBatch = 8;
    s.counters["control.polls"] = 7;
    s.counters["serve.shed"] = 2;

    serve::StatsSnapshot back;
    ASSERT_TRUE(decodeStatsSnapshot(encodeStatsSnapshot(s), back));
    EXPECT_EQ(back.simNow, s.simNow);
    EXPECT_EQ(back.nodes, s.nodes);
    EXPECT_EQ(back.maxBatch, s.maxBatch);
    EXPECT_EQ(back.counters, s.counters);
    EXPECT_DOUBLE_EQ(back.eventsPerBatch(), 2.5);
}

TEST(ServeWire, MalformedPayloadsRejected)
{
    EventRequest ev;
    std::vector<std::uint8_t> bytes = encodeEventRequest(ev);

    EventRequest out;
    // Truncated.
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 1);
    EXPECT_FALSE(decodeEventRequest(cut, out));
    // Trailing bytes.
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(decodeEventRequest(padded, out));
    // Out-of-range op.
    std::vector<std::uint8_t> bad = bytes;
    bad[0] = 0xff;
    EXPECT_FALSE(decodeEventRequest(bad, out));
    // Empty.
    EXPECT_FALSE(decodeEventRequest({}, out));
}

// --- Request pool --------------------------------------------------

TEST(ServePool, RecyclesWithoutGrowth)
{
    net::ObjectPool<int> pool(2);
    EXPECT_EQ(pool.created(), 2u);
    {
        auto a = pool.acquire();
        auto b = pool.acquire();
        EXPECT_EQ(pool.outstanding(), 2u);
        auto c = pool.acquire(); // grows past the reserve
        EXPECT_EQ(pool.created(), 3u);
    }
    EXPECT_EQ(pool.outstanding(), 0u);
    // Steady state: re-acquiring recycles, no new objects.
    auto d = pool.acquire();
    EXPECT_EQ(pool.created(), 3u);
}

// --- Engine semantics ----------------------------------------------

serve::EngineConfig
smallEngine(int nodes = 2)
{
    serve::EngineConfig cfg;
    cfg.nodes = nodes;
    cfg.serverCap = 100.0;
    return cfg;
}

TEST(ServeEngineTest, ArrivalRoutesAndRejectsWhenFull)
{
    ServeEngine eng(smallEngine(1));
    EventRequest arrive;
    arrive.op = EventOp::Arrival;
    arrive.node = -1;

    // Two sockets on the default platform: two routed arrivals land,
    // the third finds no free socket anywhere.
    arrive.workload = 0;
    auto a = eng.apply(arrive);
    EXPECT_EQ(a.status, ReplyStatus::Ok);
    EXPECT_EQ(a.node, 0);
    arrive.workload = 1;
    auto b = eng.apply(arrive);
    EXPECT_EQ(b.status, ReplyStatus::Ok);
    arrive.workload = 2;
    auto c = eng.apply(arrive);
    EXPECT_EQ(c.status, ReplyStatus::Rejected);

    // Out-of-range workload index is the client's error.
    arrive.workload = 100000;
    EXPECT_EQ(eng.apply(arrive).status, ReplyStatus::BadRequest);
}

TEST(ServeEngineTest, DuplicateNameOnNodeRejected)
{
    ServeEngine eng(smallEngine(2));
    EventRequest arrive;
    arrive.op = EventOp::Arrival;
    arrive.workload = 0;
    arrive.node = 0;
    EXPECT_EQ(eng.apply(arrive).status, ReplyStatus::Ok);
    // Same profile pinned to the same node: duplicate active name.
    EXPECT_EQ(eng.apply(arrive).status, ReplyStatus::Rejected);
    // Routed instead: lands on the other node.
    arrive.node = -1;
    auto out = eng.apply(arrive);
    EXPECT_EQ(out.status, ReplyStatus::Ok);
    EXPECT_EQ(out.node, 1);
}

TEST(ServeEngineTest, KillAndPhaseChangeValidateTargets)
{
    ServeEngine eng(smallEngine(1));
    EventRequest arrive;
    arrive.op = EventOp::Arrival;
    arrive.workload = 3;
    arrive.node = 0;
    auto placed = eng.apply(arrive);
    ASSERT_EQ(placed.status, ReplyStatus::Ok);

    EventRequest phase;
    phase.op = EventOp::PhaseChange;
    phase.node = 0;
    phase.appId = placed.appId;
    phase.cpuScale = 1.5;
    phase.memScale = 0.5;
    EXPECT_EQ(eng.apply(phase).status, ReplyStatus::Ok);
    phase.appId = 12345;
    EXPECT_EQ(eng.apply(phase).status, ReplyStatus::Rejected);
    phase.node = 9;
    EXPECT_EQ(eng.apply(phase).status, ReplyStatus::BadRequest);

    EventRequest kill;
    kill.op = EventOp::Kill;
    kill.node = 0;
    kill.appId = placed.appId;
    EXPECT_EQ(eng.apply(kill).status, ReplyStatus::Ok);
    // Already dead.
    EXPECT_EQ(eng.apply(kill).status, ReplyStatus::Rejected);
}

TEST(ServeEngineTest, AdvanceBoundsChecked)
{
    ServeEngine eng(smallEngine(1));
    EventRequest adv;
    adv.op = EventOp::Advance;
    adv.value = 0.0;
    EXPECT_EQ(eng.apply(adv).status, ReplyStatus::BadRequest);
    adv.value = 1e9;
    EXPECT_EQ(eng.apply(adv).status, ReplyStatus::BadRequest);
    adv.value = 0.5;
    Tick before = eng.pool()[0].server->now();
    EXPECT_EQ(eng.apply(adv).status, ReplyStatus::Ok);
    EXPECT_EQ(eng.pool()[0].server->now(), before + toTicks(0.5));
}

TEST(ServeEngineTest, DigestDeterministicAcrossInstances)
{
    auto run = [](double cap_watts) {
        ServeEngine eng(smallEngine(2));
        EventRequest arrive;
        arrive.op = EventOp::Arrival;
        arrive.workload = 2;
        arrive.node = -1;
        eng.apply(arrive);
        eng.commit();
        EventRequest cap;
        cap.op = EventOp::CapChange;
        cap.node = -1;
        cap.value = cap_watts;
        eng.apply(cap);
        return eng.commit();
    };
    serve::DecisionDigest a = run(80.0);
    serve::DecisionDigest b = run(80.0);
    EXPECT_TRUE(a == b);
    EXPECT_NE(a.hash, 0u);

    // A different event stream must change the digest (the cap bits
    // are hashed directly).
    serve::DecisionDigest c = run(90.0);
    EXPECT_NE(a.hash, c.hash);
}

TEST(ServeEngineTest, SnapshotBuiltFromTraceAggregates)
{
    ServeEngine eng(smallEngine(2));
    EventRequest arrive;
    arrive.op = EventOp::Arrival;
    arrive.workload = 1;
    arrive.node = -1;
    ASSERT_EQ(eng.apply(arrive).status, ReplyStatus::Ok);
    eng.commit();

    serve::StatsSnapshot snap;
    eng.fillSnapshot(snap);
    // Registered counters the commit must have touched.
    EXPECT_GE(snap.counters.at("control.polls"), 1u);
    EXPECT_GE(snap.counters.at("manager.reallocations"), 1u);
    EXPECT_EQ(snap.counters.at("event.E2-arrival"), 1u);
    // Timers ride along as count/total_us/max_us triplets.
    EXPECT_GE(snap.counters.at("manager.reallocate.count"), 1u);
    EXPECT_TRUE(snap.counters.count("manager.reallocate.total_us"));
    EXPECT_GE(snap.counters.at("cluster.step.count"), 1u);

    // A service-level bus folds into the same emit (gauges win by
    // last write, so the sample survives as published).
    core::Telemetry service_bus;
    service_bus.gauge(trace::EventId::ServeShed, 7);
    serve::StatsSnapshot with_extra;
    eng.fillSnapshot(with_extra, &service_bus);
    EXPECT_EQ(with_extra.counters.at("serve.shed"), 7u);
}

// --- Record/replay -------------------------------------------------

TEST(ServeReplay, CaptureReplaysBitExact)
{
    const std::string path = "serve_capture_test.bin";
    serve::EngineConfig cfg = smallEngine(2);
    cfg.seedBase = 21;

    serve::DecisionDigest recorded;
    {
        ServeEngine eng(cfg);
        ASSERT_TRUE(eng.startCapture(path));
        EventRequest arrive;
        arrive.op = EventOp::Arrival;
        arrive.node = -1;
        for (std::uint32_t w = 0; w < 3; ++w) {
            arrive.workload = w;
            eng.apply(arrive);
        }
        eng.commit();
        EventRequest cap;
        cap.op = EventOp::CapChange;
        cap.node = -1;
        cap.value = 60.0;
        eng.apply(cap);
        recorded = eng.commit();
        eng.stopCapture();
    }

    serve::Capture capture;
    std::string error;
    ASSERT_TRUE(serve::readCapture(path, capture, error)) << error;
    std::remove(path.c_str());
    EXPECT_EQ(capture.config.nodes, 2);
    EXPECT_EQ(capture.config.seedBase, 21u);
    EXPECT_EQ(capture.steps.size(), 6u); // 4 events + 2 commits
    EXPECT_EQ(capture.commitCount(), 2u);

    serve::ReplayResult res = serve::replayCapture(capture);
    EXPECT_TRUE(res.ok) << res.firstMismatch;
    EXPECT_EQ(res.events, 4u);
    EXPECT_EQ(res.commits, 2u);
    EXPECT_TRUE(res.finalDigest == recorded);
}

TEST(ServeReplay, DivergentCaptureIsReported)
{
    const std::string path = "serve_capture_diverge.bin";
    serve::EngineConfig cfg = smallEngine(1);
    {
        ServeEngine eng(cfg);
        ASSERT_TRUE(eng.startCapture(path));
        EventRequest arrive;
        arrive.op = EventOp::Arrival;
        arrive.workload = 0;
        arrive.node = 0;
        eng.apply(arrive);
        eng.commit();
        eng.stopCapture();
    }
    serve::Capture capture;
    std::string error;
    ASSERT_TRUE(serve::readCapture(path, capture, error)) << error;
    std::remove(path.c_str());

    // Tamper with the recorded digest: replay must flag commit 1.
    for (auto &step : capture.steps) {
        if (step.isCommit)
            step.commit.digest.hash ^= 1;
    }
    serve::ReplayResult res = serve::replayCapture(capture);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.firstMismatch.find("commit 1"), std::string::npos);
}

TEST(ServeReplay, ConfigRefusesTheRetiredDenseDpByte)
{
    std::vector<std::uint8_t> bytes =
        serve::encodeCaptureConfig(smallEngine(2));
    // Config layout up to the retired byte: version u8, nodes u32,
    // cap f64, esd u8, seedBase u64, seedCorpus u8, maxAdvance f64,
    // policy u8, sampleFraction f64, oracle u8, noise f64,
    // calibrationPerSample u64, controlPeriod u64, budgetGuard f64,
    // trimGain f64, refreshPeriod u64, sampling u8.
    const std::size_t retired_off =
        1 + 4 + 8 + 1 + 8 + 1 + 8 + 1 + 8 + 1 + 8 + 8 + 8 + 8 + 8 + 8 + 1;
    ASSERT_EQ(bytes.size(), retired_off + 1 + 8 + 8);
    EXPECT_EQ(bytes[retired_off], 0u); // encode always writes 0

    // Re-seal the FNV-1a fingerprint over the mutated body, so only
    // the retired-flag check can reject the record.
    auto reseal = [&bytes] {
        std::uint64_t h = 14695981039346656037ULL;
        for (std::size_t i = 0; i + 8 < bytes.size(); ++i) {
            h ^= bytes[i];
            h *= 1099511628211ULL;
        }
        for (std::size_t i = 0; i < 8; ++i)
            bytes[bytes.size() - 8 + i] =
                static_cast<std::uint8_t>(h >> (8 * i));
    };
    bytes[retired_off] = 1;
    reseal();
    serve::EngineConfig decoded;
    std::string error;
    EXPECT_FALSE(serve::decodeCaptureConfig(bytes, decoded, &error));
    EXPECT_NE(error.find("retired dense-DP"), std::string::npos) << error;

    // The same record with the byte cleared decodes.
    bytes[retired_off] = 0;
    reseal();
    EXPECT_TRUE(serve::decodeCaptureConfig(bytes, decoded, &error))
        << error;
}

// --- Thread-pool gauges --------------------------------------------

TEST(ServeGauges, PoolBacklogReturnsToZero)
{
    util::ThreadPool pool(4);
    std::atomic<int> ran{0};
    pool.parallelFor(64, [&](std::size_t) {
        ++ran;
    });
    EXPECT_EQ(ran.load(), 64);
    // All shared-queue work has drained by the time parallelFor
    // returns.
    EXPECT_EQ(pool.queueDepth(), 0u);
    EXPECT_EQ(pool.inflight(), 0u);
}

// --- Logging knob --------------------------------------------------

TEST(ServeLogging, ParseLogLevelSpellings)
{
    LogLevel level = LogLevel::Quiet;
    EXPECT_TRUE(parseLogLevel("2", level));
    EXPECT_EQ(level, LogLevel::Verbose);
    EXPECT_TRUE(parseLogLevel("debug", level));
    EXPECT_EQ(level, LogLevel::Debug);
    EXPECT_TRUE(parseLogLevel("QUIET", level));
    EXPECT_EQ(level, LogLevel::Quiet);
    EXPECT_FALSE(parseLogLevel("5", level));
    EXPECT_FALSE(parseLogLevel("loud", level));
    EXPECT_FALSE(parseLogLevel("", level));
    EXPECT_EQ(level, LogLevel::Quiet); // untouched on failure
}

// --- End-to-end daemon ---------------------------------------------

ServiceConfig
smallService()
{
    ServiceConfig cfg;
    cfg.engine = smallEngine(2);
    cfg.maxQueue = 32;
    cfg.maxBatch = 16;
    return cfg;
}

TEST(ServeDaemon, HelloHandshake)
{
    ServeService service(smallService());
    int fd = service.openLocalConnection();
    ASSERT_GE(fd, 0);
    service.start();

    serve::Client cli;
    cli.adopt(fd);
    serve::HelloReply hello;
    ASSERT_TRUE(cli.hello("test", hello));
    EXPECT_EQ(hello.version, net::kProtocolVersion);
    EXPECT_EQ(hello.server, "psm-served");
    service.stop();
}

TEST(ServeDaemon, DecisionsBitExactAgainstInProcessReplay)
{
    ServiceConfig cfg = smallService();
    ServeService service(cfg);
    int fd = service.openLocalConnection();
    service.start();

    serve::Client cli;
    cli.adopt(fd);
    serve::HelloReply hello;
    ASSERT_TRUE(cli.hello("test", hello));

    // The same engine config replayed in-process is the reference;
    // closed-loop submission makes every daemon epoch a batch of one,
    // so the apply/commit sequences are identical step by step.
    ServeEngine ref(cfg.engine);

    std::vector<EventRequest> trace;
    {
        EventRequest ev;
        ev.op = EventOp::Arrival;
        ev.workload = 0;
        ev.node = -1;
        trace.push_back(ev);
        ev.workload = 4;
        trace.push_back(ev);
        ev = {};
        ev.op = EventOp::Advance;
        ev.value = 0.3;
        trace.push_back(ev);
        ev = {};
        ev.op = EventOp::CapChange;
        ev.node = -1;
        ev.value = 70.0;
        trace.push_back(ev);
        ev = {};
        ev.op = EventOp::Advance;
        ev.value = 0.2;
        trace.push_back(ev);
    }

    for (std::size_t i = 0; i < trace.size(); ++i) {
        serve::ApplyOutcome expect = ref.apply(trace[i]);
        serve::DecisionDigest expect_digest =
            expect.status == ReplyStatus::Ok ? ref.commit()
                                             : ref.digest();
        EventReply reply;
        ASSERT_TRUE(cli.submit(trace[i], reply)) << "event " << i;
        EXPECT_EQ(reply.status, expect.status) << "event " << i;
        EXPECT_EQ(reply.node, expect.node) << "event " << i;
        EXPECT_EQ(reply.appId, expect.appId) << "event " << i;
        EXPECT_TRUE(reply.digest == expect_digest)
            << "digest diverged at event " << i;
        if (reply.status == ReplyStatus::Ok) {
            EXPECT_EQ(reply.batched, 1u);
        }
    }
    service.stop();
}

TEST(ServeDaemon, HeldBurstCoalescesAndShedsDeterministically)
{
    ServiceConfig cfg = smallService();
    cfg.maxQueue = 4; // force shedding past four queued events
    ServeService service(cfg);
    int fd = service.openLocalConnection();
    service.start();

    serve::Client cli;
    cli.adopt(fd);
    serve::HelloReply hello;
    ASSERT_TRUE(cli.hello("test", hello));

    service.holdBatching(true);
    const std::size_t burst = 7;
    for (std::size_t i = 0; i < burst; ++i) {
        EventRequest ev;
        ev.op = EventOp::CapChange;
        ev.node = -1;
        ev.value = 60.0 + static_cast<double>(i);
        ASSERT_TRUE(cli.send(ev));
    }
    // The reactor admits exactly maxQueue and sheds the rest, in
    // arrival order (single connection, single reactor thread).
    std::size_t shed = 0, ok = 0;
    std::uint64_t max_batched = 0;
    // Shed replies arrive while the hold is still on.
    for (std::size_t i = 0; i < burst - cfg.maxQueue; ++i) {
        EventReply reply;
        ASSERT_TRUE(cli.readEventReply(reply, 10000));
        EXPECT_EQ(reply.status, ReplyStatus::Shed);
        ++shed;
    }
    service.holdBatching(false);
    for (std::size_t i = 0; i < cfg.maxQueue; ++i) {
        EventReply reply;
        ASSERT_TRUE(cli.readEventReply(reply, 10000));
        EXPECT_EQ(reply.status, ReplyStatus::Ok);
        max_batched = std::max(
            max_batched, static_cast<std::uint64_t>(reply.batched));
        ++ok;
    }
    EXPECT_EQ(shed, burst - cfg.maxQueue);
    EXPECT_EQ(ok, cfg.maxQueue);
    // The whole admitted burst resolved in one allocator epoch.
    EXPECT_EQ(max_batched, cfg.maxQueue);

    auto snap = service.snapshot();
    EXPECT_EQ(snap->shed, shed);
    EXPECT_GE(snap->maxBatch, 2u);
    service.stop();
}

TEST(ServeDaemon, StatsAndQueryServedFromSnapshot)
{
    ServeService service(smallService());
    int fd = service.openLocalConnection();
    service.start();

    serve::Client cli;
    cli.adopt(fd);
    serve::HelloReply hello;
    ASSERT_TRUE(cli.hello("test", hello));

    EventRequest arrive;
    arrive.op = EventOp::Arrival;
    arrive.workload = 1;
    arrive.node = -1;
    EventReply reply;
    ASSERT_TRUE(cli.submit(arrive, reply));
    ASSERT_EQ(reply.status, ReplyStatus::Ok);

    serve::StatsSnapshot stats;
    ASSERT_TRUE(cli.stats(stats));
    EXPECT_EQ(stats.nodes, 2u);
    EXPECT_EQ(stats.activeApps, 1u);
    EXPECT_EQ(stats.eventsApplied, 1u);
    EXPECT_EQ(stats.digestHash, reply.digest.hash);
    EXPECT_EQ(stats.counters.at("event.E2-arrival"), 1u);

    serve::QueryReply q;
    ASSERT_TRUE(cli.query("serve.batches", q));
    EXPECT_TRUE(q.found);
    EXPECT_EQ(q.value, 1u);
    // The snapshot is built from the trace core: registered timers
    // are reachable by name too, as count/total_us/max_us triplets.
    ASSERT_TRUE(cli.query("manager.reallocate.count", q));
    EXPECT_TRUE(q.found);
    EXPECT_GE(q.value, 1u);
    ASSERT_TRUE(cli.query("pool.queue_depth", q));
    EXPECT_TRUE(q.found);
    ASSERT_TRUE(cli.query("no.such.counter", q));
    EXPECT_FALSE(q.found);
    service.stop();
}

TEST(ServeDaemon, GarbageStreamDropsConnection)
{
    ServeService service(smallService());
    int fd = service.openLocalConnection();
    service.start();

    std::vector<std::uint8_t> junk(64, 0x55);
    ASSERT_EQ(::write(fd, junk.data(), junk.size()),
              static_cast<ssize_t>(junk.size()));
    // The reactor drops the desynchronized connection; the client
    // side observes EOF.
    std::uint8_t buf[16];
    ssize_t n = ::read(fd, buf, sizeof(buf));
    EXPECT_EQ(n, 0);
    ::close(fd);
    service.stop();
    EXPECT_EQ(service.connectionCount(), 0u);
}

TEST(ServeDaemon, ExpiredDeadlineNotApplied)
{
    ServiceConfig cfg = smallService();
    ServeService service(cfg);
    int fd = service.openLocalConnection();
    service.start();

    serve::Client cli;
    cli.adopt(fd);
    serve::HelloReply hello;
    ASSERT_TRUE(cli.hello("test", hello));

    service.holdBatching(true);
    EventRequest ev;
    ev.op = EventOp::CapChange;
    ev.node = -1;
    ev.value = 90.0;
    ev.deadlineUs = 1; // lapses while the queue is held
    ASSERT_TRUE(cli.send(ev));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    service.holdBatching(false);

    EventReply reply;
    ASSERT_TRUE(cli.readEventReply(reply, 10000));
    EXPECT_EQ(reply.status, ReplyStatus::Expired);
    EXPECT_EQ(service.snapshot()->eventsApplied, 0u);
    service.stop();
}

TEST(ServeDaemon, ShutdownFrameAcksThenFlagsService)
{
    ServeService service(smallService());
    int fd = service.openLocalConnection();
    service.start();

    serve::Client cli;
    cli.adopt(fd);
    EXPECT_FALSE(service.shutdownRequested());
    ASSERT_TRUE(cli.shutdownServer());
    EXPECT_TRUE(service.shutdownRequested());
    service.stop();
}

TEST(ServeDaemon, StopShedsQueuedRequests)
{
    ServiceConfig cfg = smallService();
    ServeService service(cfg);
    int fd = service.openLocalConnection();
    service.start();

    serve::Client cli;
    cli.adopt(fd);
    service.holdBatching(true);
    EventRequest ev;
    ev.op = EventOp::CapChange;
    ev.node = -1;
    ev.value = 75.0;
    ASSERT_TRUE(cli.send(ev));
    // Give the reactor time to enqueue, then tear the service down
    // with the request still held in the queue.
    for (int spin = 0; service.queueDepth() < 1 && spin < 2000;
         ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    service.stop();

    EventReply reply;
    ASSERT_TRUE(cli.readEventReply(reply, 10000));
    EXPECT_EQ(reply.status, ReplyStatus::Shed);
}

} // namespace
} // namespace psm
