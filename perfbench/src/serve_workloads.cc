/**
 * @file
 * The serve workloads: serve-churn (closed loop), serve-capstorm
 * (open loop plus a rate ladder) and the closed-loop rack probe of a
 * traced cluster-10k run.  Every request travels over a socketpair from
 * serve::Client into serve::ServeService; an in-process ServeEngine
 * replays the same trace for the correctness gate and the serve-layer
 * spans.
 */

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <sstream>
#include <thread>

#include "common.hh"
#include "layers.hh"
#include "perf/workloads.hh"
#include "serve/client.hh"
#include "serve/service.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

namespace
{

using namespace psm;
using serve::Client;
using serve::DecisionDigest;
using serve::EventOp;
using serve::EventReply;
using serve::EventRequest;
using serve::ReplyStatus;
using serve::ServeEngine;
using serve::ServeService;
using serve::ServiceConfig;
using serve::StatsSnapshot;

/** One control period: the latency limit of sustained_rate. */
constexpr double kLatencyLimitUs = 100e3;
/** Latency charged to a request that never got a reply. */
constexpr double kMissingUs = 30e6;
/** STATS reads per second: enough for several 1000-sample windows. */
constexpr double kStatsPerSecond = 400.0;
/** Daemon builds whose median is setup_s. */
constexpr int kSetupRepeats = 48;

/** A daemon with an event connection and a STATS connection. */
struct Daemon
{
    explicit Daemon(const ServiceConfig &cfg) : svc(cfg)
    {
        int efd = svc.openLocalConnection();
        int sfd = svc.openLocalConnection();
        svc.start();
        events.adopt(efd);
        stats.adopt(sfd);
        serve::HelloReply h1, h2;
        ok = efd >= 0 && sfd >= 0 && events.hello("perfbench", h1) &&
             stats.hello("perfbench-stats", h2) && h1.accepted &&
             h2.accepted;
    }

    ServeService svc;
    Client events;
    Client stats;
    bool ok = false;
};

/**
 * Build the daemon @p repeats times and keep the last; @p setupS gets
 * the process CPU time of each build, from construction to handshake.
 * CPU time, unlike wall time, excludes what a hypervisor steals from
 * the host.
 */
std::unique_ptr<Daemon>
setupDaemon(const ServiceConfig &cfg, int repeats, std::vector<double> &setupS,
            RunResult &out)
{
    std::unique_ptr<Daemon> d;
    for (int rep = 0; rep < repeats; ++rep) {
        d.reset();
        double c0 = processCpuSeconds();
        d = std::make_unique<Daemon>(cfg);
        setupS.push_back(processCpuSeconds() - c0);
        if (!d->ok)
            out.fail("daemon handshake failed");
    }
    return d;
}

/** STATS reads on the second connection, on a fixed schedule. */
class StatsReader
{
  public:
    StatsReader(Client &cli, double per_second, bool paused = false)
        : cli(cli), period(1.0 / per_second), paused(paused),
          th([this] { loop(); })
    {
    }
    ~StatsReader() { stop(); }
    StatsReader(const StatsReader &) = delete;
    StatsReader &operator=(const StatsReader &) = delete;

    void
    stop()
    {
        halt.store(true);
        if (th.joinable())
            th.join();
    }

    /** Skip reads until resume(); the schedule keeps its pace. */
    void pause() { paused.store(true); }
    void resume() { paused.store(false); }

    std::vector<double> latUs; ///< from each read's scheduled time
    std::size_t failures = 0;

  private:
    Client &cli;
    double period;
    std::atomic<bool> halt{false};
    std::atomic<bool> paused;
    std::thread th;

    void
    loop()
    {
        auto t0 = Clock::now();
        for (std::size_t k = 0; !halt.load(); ++k) {
            auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    period * static_cast<double>(k)));
            std::this_thread::sleep_until(due);
            if (halt.load())
                break;
            if (paused.load())
                continue;
            StatsSnapshot snap;
            if (cli.stats(snap, 5000))
                latUs.push_back(usBetween(due, Clock::now()));
            else
                ++failures;
        }
    }
};

bool
isFailure(ReplyStatus s)
{
    return s == ReplyStatus::Shed || s == ReplyStatus::Expired;
}

/** Closed-loop event source; observe() feeds outcomes back. */
class Generator
{
  public:
    virtual ~Generator() = default;
    virtual EventRequest next() = 0;
    virtual void observe(const EventRequest &, const EventReply &) {}
};

/** The bench_serve "churn" mix: 45% arrivals and 25% kills. */
class ChurnGen : public Generator
{
  public:
    explicit ChurnGen(std::uint64_t seed) : rng(seed) {}

    EventRequest
    next() override
    {
        EventRequest ev;
        double roll = rng.uniform();
        if (roll < 0.15) {
            ev.op = EventOp::Advance;
            ev.value = rng.uniform(0.02, 0.08);
        } else if (roll < 0.25) {
            ev.op = EventOp::CapChange;
            ev.node = -1;
            ev.value = rng.uniform(60.0, 140.0);
        } else if (roll < 0.70 || live.empty()) {
            ev.op = EventOp::Arrival;
            ev.workload = static_cast<std::uint32_t>(rng.uniformInt(0, 11));
        } else {
            const auto &[node, app] = live[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(live.size()) - 1))];
            ev.node = node;
            ev.appId = app;
            if (roll < 0.75) {
                ev.op = EventOp::PhaseChange;
                ev.cpuScale = rng.uniform(0.5, 2.0);
                ev.memScale = rng.uniform(0.5, 2.0);
            } else {
                ev.op = EventOp::Kill;
            }
        }
        return ev;
    }

    void
    observe(const EventRequest &ev, const EventReply &r) override
    {
        if (r.status != ReplyStatus::Ok)
            return;
        if (ev.op == EventOp::Arrival) {
            live.emplace_back(r.node, r.appId);
        } else if (ev.op == EventOp::Kill) {
            std::erase(live, std::pair<std::int32_t, std::int32_t>(
                                 r.node, r.appId));
        }
    }

  private:
    Rng rng;
    std::vector<std::pair<std::int32_t, std::int32_t>> live;
};

/** A fixed script, cycled. */
class ScriptGen : public Generator
{
  public:
    explicit ScriptGen(std::vector<EventRequest> script)
        : script(std::move(script))
    {
    }
    EventRequest
    next() override
    {
        return script[ix++ % script.size()];
    }

  private:
    std::vector<EventRequest> script;
    std::size_t ix = 0;
};

/** Everything one closed-loop pass saw. */
struct ClosedOutcome
{
    std::vector<EventRequest> events;
    std::vector<EventReply> replies;
    std::vector<double> latUs;  ///< submit to reply (kMissingUs if none)
    std::vector<double> lateUs; ///< previous reply to this submit
    std::vector<double> okPerSecond; ///< Ok replies in each wall second
    std::size_t ok = 0, failed = 0;
    double wallS = 0.0, cpuS = 0.0;
};

/**
 * Submit @p count events one at a time, as requests idBase + 1, ...
 * The count, not the wall clock, ends the run, so what the program
 * computes depends only on the seed.
 */
ClosedOutcome
runClosed(Daemon &d, Generator &gen, std::size_t count, std::uint64_t idBase,
          Tracer &tracer)
{
    ClosedOutcome o;
    double c0 = processCpuSeconds();
    auto t0 = Clock::now();
    auto prev = t0;
    while (o.events.size() < count) {
        EventRequest ev = gen.next();
        EventReply reply;
        auto s0 = Clock::now();
        bool got;
        {
            SpanScope span(tracer, "client.submit",
                           idBase + o.events.size() + 1);
            got = d.events.submit(ev, reply, 30000);
        }
        auto s1 = Clock::now();
        o.lateUs.push_back(usBetween(prev, s0));
        prev = s1;
        o.events.push_back(ev);
        if (!got) {
            reply.status = ReplyStatus::Shed;
            o.latUs.push_back(kMissingUs);
            ++o.failed;
            o.replies.push_back(reply);
            break; // the connection is gone
        }
        o.latUs.push_back(usBetween(s0, s1));
        o.replies.push_back(reply);
        if (isFailure(reply.status)) {
            ++o.failed;
        } else if (reply.status == ReplyStatus::Ok) {
            ++o.ok;
            auto sec = static_cast<std::size_t>(secondsSince(t0));
            o.okPerSecond.resize(std::max(o.okPerSecond.size(), sec + 1));
            ++o.okPerSecond[sec];
        }
        gen.observe(ev, reply);
    }
    o.wallS = secondsSince(t0);
    o.cpuS = processCpuSeconds() - c0;
    if (!o.okPerSecond.empty())
        o.okPerSecond.pop_back(); // the last second is partial
    return o;
}

/** Append @p o to @p all, as if one pass had seen both. */
void
append(ClosedOutcome &all, const ClosedOutcome &o)
{
    auto cat = [](auto &a, const auto &b) {
        a.insert(a.end(), b.begin(), b.end());
    };
    cat(all.events, o.events);
    cat(all.replies, o.replies);
    cat(all.latUs, o.latUs);
    cat(all.lateUs, o.lateUs);
    cat(all.okPerSecond, o.okPerSecond);
    all.ok += o.ok;
    all.failed += o.failed;
    all.wallS += o.wallS;
    all.cpuS += o.cpuS;
}

/** Engine-side per-event service time, keyed by request id. */
using ServiceTimes = std::map<std::uint64_t, double>;

/**
 * Replay a closed-loop trace on an in-process ServeEngine: every
 * submission was its own epoch, so each daemon reply must equal the
 * reference bit for bit.  Returns the number of replies that differ.
 */
std::size_t
replayClosed(const serve::EngineConfig &cfg, const ClosedOutcome &o,
             std::uint64_t idBase, bool corrupt, Tracer &tracer,
             ServiceTimes &service)
{
    ServeEngine ref(cfg);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < o.events.size(); ++i) {
        std::uint64_t id = idBase + i + 1;
        auto t0 = Clock::now();
        serve::ApplyOutcome a;
        {
            SpanScope s(tracer, "engine.apply", id);
            a = ref.apply(o.events[i]);
        }
        DecisionDigest dg;
        if (a.status == ReplyStatus::Ok) {
            SpanScope s(tracer, "engine.commit", id);
            dg = ref.commit();
        } else {
            SpanScope s(tracer, "engine.digest", id);
            dg = ref.digest();
        }
        service[id] = usBetween(t0, Clock::now());
        if (corrupt && i == o.events.size() / 2)
            dg.hash ^= 1;
        const EventReply &r = o.replies[i];
        if (r.status != a.status || r.node != a.node || r.appId != a.appId ||
            !(r.digest == dg))
            ++mismatches;
    }
    // Snapshot and digest costs on the replayed end state.
    StatsSnapshot snap;
    for (int k = 0; k < 200; ++k) {
        {
            SpanScope s(tracer, "engine.digest_probe");
            (void)ref.digest();
        }
        SpanScope s(tracer, "engine.fill_snapshot");
        ref.fillSnapshot(snap);
    }
    return mismatches;
}

/** Fail the gate when @p mismatches of @p events replies differ. */
void
digestGate(std::size_t events, std::size_t mismatches, RunResult &out)
{
    out.info["gate.digest_events"] = std::to_string(events);
    out.info["gate.digest_mismatches"] = std::to_string(mismatches);
    if (mismatches)
        out.fail(std::to_string(mismatches) +
                 " daemon digests differ from the in-process replay");
}

/** Publish a latency percentile pair, refusing thin samples. */
void
latencyMetrics(const std::string &prefix, const std::vector<double> &us,
               RunResult &out)
{
    out.info[prefix + "_samples"] = std::to_string(us.size());
    std::ostringstream p;
    p << honestPercentile(us.size());
    out.info[prefix + "_highest_honest_percentile"] = p.str();
    out.info[prefix + "_p99_windows"] = std::to_string(us.size() / 1000);
    if (us.size() < 1000)
        out.fail(prefix + ": fewer than 1000 samples for a p99");
}

/** What a stopped daemon's nodes did. */
struct EngineState
{
    double eq1 = 0.0;         ///< mean normalized throughput, every app
    double violation = 0.0;   ///< mean per-node cap violation share
    double nodePeriods = 0.0; ///< node control periods simulated
};

EngineState
engineState(ServeService &svc)
{
    EngineState st;
    cluster::NodePool &pool = svc.engine().pool();
    std::size_t apps = 0;
    for (const auto &node : pool) {
        st.violation += node.server->meter().violationFraction();
        for (const auto &rec : node.manager->records()) {
            st.eq1 += rec.normalizedPerf(node.server->now());
            ++apps;
        }
    }
    double nodes = static_cast<double>(pool.size());
    st.eq1 = apps ? st.eq1 / static_cast<double>(apps) : 0.0;
    st.violation /= nodes;
    st.nodePeriods = nodes * toSeconds(pool[0].server->now()) /
                     toSeconds(svc.engine().controlPeriod());
    return st;
}

/**
 * Eq. 1, cap adherence and node control periods simulated per wall
 * second, over one or more daemons (means of the first two).
 */
void
engineMetrics(const std::vector<EngineState> &daemons, double wallS,
              RunResult &out)
{
    double eq1 = 0.0, viol = 0.0, periods = 0.0;
    for (const EngineState &st : daemons) {
        eq1 += st.eq1;
        viol += st.violation;
        periods += st.nodePeriods;
    }
    auto n = static_cast<double>(daemons.size());
    out.endToEnd["norm_throughput"] = {eq1 / n, "ratio"};
    out.endToEnd["cap_violation_frac"] = {viol / n, "ratio"};
    out.endToEnd["node_intervals_per_s"] = {periods / wallS, "1/s"};
    out.info["serve.node_control_periods"] = std::to_string(periods);
}

/** Add @p s's event tallies and counters to @p sum. */
void
addSnapshot(StatsSnapshot &sum, const StatsSnapshot &s)
{
    sum.eventsApplied += s.eventsApplied;
    sum.batches += s.batches;
    sum.shed += s.shed;
    sum.expired += s.expired;
    for (const auto &[name, v] : s.counters)
        sum.counters[name] += v;
}

/** Serve-layer metrics shared by every serve drive. */
void
serveLayerMetrics(const Tracer &tracer, const std::vector<double> &lat,
                  const ServiceTimes &service,
                  const std::vector<EventReply> &replies,
                  const StatsSnapshot &snap, RunResult &out)
{
    spanFamily("serve.apply", tracer.durationsUs("engine.apply"), out);
    spanFamily("serve.commit", tracer.durationsUs("engine.commit"), out);
    std::vector<double> transport;
    for (std::size_t i = 0; i < lat.size(); ++i) {
        auto it = service.find(i + 1);
        if (it != service.end() && replies[i].status == ReplyStatus::Ok)
            transport.push_back(lat[i] - it->second);
    }
    out.layers["serve.transport_us"] = {median(transport), "us"};
    out.layers["serve.digest_us"] = {
        median(tracer.durationsUs("engine.digest_probe")), "us"};
    out.layers["serve.fill_snapshot_us"] = {
        median(tracer.durationsUs("engine.fill_snapshot")), "us"};
    out.layers["serve.events_per_batch"] = {snap.eventsPerBatch(), "ratio"};
    out.layers["serve.shed"] = {static_cast<double>(snap.shed), "count"};
    out.layers["serve.expired"] = {static_cast<double>(snap.expired), "count"};
    double apply_busy = out.layers["serve.apply_busy_s"].value;
    double commit_busy = out.layers["serve.commit_busy_s"].value;
    out.info["serve.commit_share_of_engine"] =
        std::to_string(commit_busy / std::max(1e-12, apply_busy + commit_busy));
}

/** cf.commit_share: fits x estimate time over total commit time. */
void
cfCommitShare(const StatsSnapshot &snap, RunResult &out)
{
    auto fits = static_cast<double>(counterOf(snap.counters, "learning.als_fits"));
    double commit_s = out.layers["serve.commit_busy_s"].value;
    double est_s = out.layers["cf.estimate_ms"].value / 1e3;
    out.layers["cf.commit_share"] = {
        commit_s > 0 ? fits * est_s / commit_s : 0.0, "ratio"};
}

/** Final closed-loop STATS read after every reply is in. */
StatsSnapshot
finalStats(Daemon &d, RunResult &out)
{
    StatsSnapshot snap;
    if (!d.stats.stats(snap, 5000))
        out.fail("final STATS read failed");
    return snap;
}

/** gen.late_p99_us / gen.late_max_us from the generator's lateness. */
void
lateMetrics(const std::vector<double> &lateUs, RunResult &out)
{
    out.layers["gen.late_p99_us"] = {percentile(lateUs, 99.0), "us"};
    out.layers["gen.late_max_us"] = {
        lateUs.empty() ? 0.0 : *std::max_element(lateUs.begin(), lateUs.end()),
        "us"};
}

/** The closed-loop end-to-end set of serve-churn. */
void
closedLoopMetrics(const ClosedOutcome &o, const std::vector<double> &statsUs,
                  std::size_t statsFailures, RunResult &out)
{
    latencyMetrics("decision", o.latUs, out);
    latencyMetrics("stats", statsUs, out);
    double p99 = windowedP99(o.latUs);
    double ffrac = o.events.empty()
                       ? 1.0
                       : static_cast<double>(o.failed) /
                             static_cast<double>(o.events.size());
    // The typical second's rate, as the mean of the middle half of the
    // per-second rates: a host stall of a few seconds moves a few
    // seconds, not the result.
    double rate = o.okPerSecond.size() < 4
                      ? static_cast<double>(o.ok) / o.wallS
                      : interquartileMean(o.okPerSecond);
    out.endToEnd["decision_p50_us"] = {percentile(o.latUs, 50.0), "us"};
    out.endToEnd["decision_p99_us"] = {p99, "us"};
    out.endToEnd["decisions_per_s"] = {rate, "1/s"};
    // A closed loop cannot build a backlog: the rate it sustained is
    // the rate it ran at, if the latency and failure limits held.
    out.endToEnd["sustained_rate"] = {
        p99 <= kLatencyLimitUs && ffrac <= 0.01 ? rate : 0.0, "1/s"};
    out.endToEnd["stats_p99_us"] = {windowedP99(statsUs), "us"};
    out.endToEnd["cpu_ms_per_op"] = {
        o.cpuS * 1e3 / static_cast<double>(std::max<std::size_t>(1, o.ok)),
        "ms"};
    lateMetrics(o.lateUs, out);
    out.attempted = o.events.size();
    out.failed = o.failed;
    out.info["decision_failed_frac"] = std::to_string(ffrac);
    if (statsFailures)
        out.fail("STATS reads failed");
}

/** Per-layer probes common to both serve workloads. */
void
serveProbes(const std::vector<EventRequest> &events, unsigned width,
            const RunOptions &opt, Tracer &tracer, RunResult &out)
{
    probeNetCodec(events, tracer, out);
    std::vector<AppPair> pairs;
    for (int m = 1; m <= 4; ++m) {
        const perf::Mix &mx = perf::mix(m);
        pairs.emplace_back(mx.app1, mx.app2);
    }
    std::vector<double> caps;
    for (const EventRequest &ev : events) {
        if (ev.op == EventOp::CapChange && caps.size() < 16)
            caps.push_back(ev.value);
    }
    probeCore(pairs, caps, tracer, out);
    probeSimStep(pairs, tracer, out);
    util::ThreadPool::configureGlobal(width);
    probeCf(0.10, opt.seed, tracer, out);
    // The serve nodes share one flat cap: the depth-1 tree is the
    // hierarchy their equal split is the degenerate case of.
    cluster::PowerTreeConfig tc;
    tc.leaves = 4;
    tc.depth = 1;
    std::vector<double> roots;
    for (double c : caps)
        roots.push_back(4.0 * c);
    probeTree(tc, roots, opt.seed, tracer, out);
}

ServiceConfig
serveConfig(int nodes)
{
    ServiceConfig cfg;
    cfg.engine.nodes = nodes;
    cfg.engine.serverCap = 100.0;
    return cfg;
}

// --- serve-capstorm open loop ---------------------------------------

/**
 * Mostly E1 cap changes, per node and broadcast, plus small Advances.
 * The 3% arrivals re-admit apps whose work ran out; while every socket
 * is taken they are Rejected, a domain reply.
 */
std::vector<EventRequest>
capstormEvents(std::size_t n, int nodes, Rng &rng)
{
    std::vector<EventRequest> evs(n);
    for (EventRequest &ev : evs) {
        double roll = rng.uniform();
        if (roll < 0.70) {
            ev.op = EventOp::CapChange;
            ev.node = rng.uniform() < 0.5 ? -1 : rng.uniformInt(0, nodes - 1);
            ev.value = rng.uniform(60.0, 140.0);
        } else if (roll < 0.97) {
            ev.op = EventOp::Advance;
            ev.value = rng.uniform(0.002, 0.01);
        } else {
            ev.op = EventOp::Arrival;
            ev.workload = static_cast<std::uint32_t>(rng.uniformInt(0, 11));
        }
    }
    return evs;
}

/** What one open-loop phase saw, indexed like its events. */
struct OpenOutcome
{
    double rate = 0.0;
    std::vector<EventRequest> events;
    std::vector<EventReply> replies;
    std::vector<double> latUs;  ///< from the scheduled send time
    std::vector<double> lateUs; ///< actual send minus scheduled send
    std::vector<char> got;
    std::size_t ok = 0, failed = 0, shed = 0, expired = 0, dupes = 0;
    double lastReplyLagUs = 0.0; ///< last reply after the last due time
    double wallS = 0.0;
};

/**
 * Send @p events on a fixed schedule at @p rate from this thread while
 * a second thread reads replies; wait until every reply is in or the
 * stream stalls for two seconds.
 */
OpenOutcome
runOpen(Client &cli, std::vector<EventRequest> events, double rate,
        Tracer &tracer, std::uint64_t &idBase)
{
    OpenOutcome o;
    std::size_t n = events.size();
    o.rate = rate;
    o.events = std::move(events);
    o.replies.resize(n);
    o.latUs.assign(n, kMissingUs);
    o.lateUs.assign(n, 0.0);
    o.got.assign(n, 0);
    std::uint32_t base = cli.sent();
    auto t0 = Clock::now() + std::chrono::milliseconds(2);
    auto dueOf = [&](std::size_t i) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate));
    };
    Clock::time_point last_reply = t0;
    std::thread rx([&] {
        std::size_t seen = 0;
        while (seen < n) {
            EventReply r;
            std::uint32_t id = 0;
            if (!cli.readEventReply(r, id, 2000))
                break;
            auto now = Clock::now();
            std::size_t ix = id - base - 1;
            if (id <= base || ix >= n || o.got[ix]) {
                ++o.dupes;
                continue;
            }
            o.got[ix] = 1;
            o.replies[ix] = r;
            o.latUs[ix] = usBetween(dueOf(ix), now);
            last_reply = now;
            ++seen;
        }
    });
    for (std::size_t i = 0; i < n; ++i) {
        // Sleep, never spin: a spinning sender would take a core from
        // the daemon.  Oversleeping shows up as generator lateness.
        auto due = dueOf(i);
        if (due > Clock::now())
            std::this_thread::sleep_until(due);
        SpanScope s(tracer, "client.send", idBase + i + 1);
        o.lateUs[i] = usBetween(due, Clock::now());
        cli.send(o.events[i]);
    }
    rx.join();
    o.wallS = std::chrono::duration<double>(last_reply - t0).count();
    o.lastReplyLagUs = usBetween(dueOf(n - 1), last_reply);
    for (std::size_t i = 0; i < n; ++i) {
        ReplyStatus s = o.replies[i].status;
        if (!o.got[i]) {
            ++o.failed;
        } else if (s == ReplyStatus::Shed) {
            ++o.shed;
            ++o.failed;
        } else if (s == ReplyStatus::Expired) {
            ++o.expired;
            ++o.failed;
        } else if (s == ReplyStatus::Ok) {
            ++o.ok;
        }
    }
    idBase += n;
    return o;
}

/** Append @p o to @p all, as if one phase had seen both. */
void
append(OpenOutcome &all, const OpenOutcome &o)
{
    auto cat = [](auto &a, const auto &b) {
        a.insert(a.end(), b.begin(), b.end());
    };
    cat(all.events, o.events);
    cat(all.replies, o.replies);
    cat(all.latUs, o.latUs);
    cat(all.lateUs, o.lateUs);
    cat(all.got, o.got);
    all.ok += o.ok;
    all.failed += o.failed;
    all.shed += o.shed;
    all.expired += o.expired;
    all.dupes += o.dupes;
    all.lastReplyLagUs = std::max(all.lastReplyLagUs, o.lastReplyLagUs);
    all.wallS += o.wallS;
}

/**
 * Submit @p events one at a time (closed loop), recorded like an
 * open-loop phase so the gate and the replay treat both alike.
 */
OpenOutcome
submitEach(Client &cli, std::vector<EventRequest> events,
           std::uint64_t &idBase)
{
    OpenOutcome o;
    o.events = std::move(events);
    for (const EventRequest &ev : o.events) {
        EventReply r;
        auto s0 = Clock::now();
        bool got = cli.submit(ev, r);
        o.latUs.push_back(got ? usBetween(s0, Clock::now()) : kMissingUs);
        o.replies.push_back(r);
        o.got.push_back(got ? 1 : 0);
        o.ok += got && r.status == ReplyStatus::Ok;
    }
    o.lateUs.assign(o.events.size(), 0.0);
    idBase += o.events.size();
    return o;
}

double
failedFrac(const OpenOutcome &o)
{
    return static_cast<double>(o.failed) /
           static_cast<double>(std::max<std::size_t>(1, o.events.size()));
}

/**
 * Median over 1000-request windows of the failed share: a ladder rung
 * fails when its typical window sheds, not when one host stall does.
 */
double
windowedFailedFrac(const OpenOutcome &o)
{
    constexpr std::size_t kWindow = 1000;
    std::vector<double> shares;
    for (std::size_t a = 0; a + kWindow <= o.events.size(); a += kWindow) {
        std::size_t failed = 0;
        for (std::size_t i = a; i < a + kWindow; ++i) {
            failed += !o.got[i] || isFailure(o.replies[i].status);
        }
        shares.push_back(static_cast<double>(failed) / kWindow);
    }
    return shares.empty() ? failedFrac(o) : median(shares);
}

/**
 * Replay an open-loop run on an in-process engine.  The daemon's
 * batches are recovered from the replies: consecutive non-shed
 * requests answered with one digest shared one epoch.
 */
ServiceTimes
replayBatches(const serve::EngineConfig &cfg,
              const std::vector<const OpenOutcome *> &phases, Tracer &tracer,
              RunResult &out)
{
    struct Item
    {
        std::uint64_t id;
        const EventRequest *ev;
        const EventReply *reply;
    };
    std::vector<Item> items;
    std::uint64_t id = 0;
    for (const OpenOutcome *o : phases) {
        for (std::size_t i = 0; i < o->events.size(); ++i) {
            ++id;
            if (o->got[i] && o->replies[i].status != ReplyStatus::Shed)
                items.push_back({id, &o->events[i], &o->replies[i]});
        }
    }
    ServeEngine ref(cfg);
    ServiceTimes service;
    std::size_t mismatches = 0, batches = 0;
    for (std::size_t i = 0; i < items.size();) {
        std::size_t j = i;
        while (j < items.size() &&
               items[j].reply->digest == items[i].reply->digest)
            ++j;
        auto t0 = Clock::now();
        bool applied = false;
        for (std::size_t k = i; k < j; ++k) {
            SpanScope s(tracer, "engine.apply", items[k].id);
            serve::ApplyOutcome a = ref.apply(*items[k].ev);
            applied |= a.status == ReplyStatus::Ok;
            if (a.status != items[k].reply->status)
                ++mismatches;
        }
        DecisionDigest dg;
        if (applied) {
            SpanScope s(tracer, "engine.commit", items[i].id);
            dg = ref.commit();
        } else {
            dg = ref.digest();
        }
        double us = usBetween(t0, Clock::now());
        for (std::size_t k = i; k < j; ++k)
            service[items[k].id] = us;
        if (!(dg == items[i].reply->digest))
            ++mismatches;
        ++batches;
        i = j;
    }
    out.info["serve.replay_batches"] = std::to_string(batches);
    out.info["serve.replay_mismatches"] = std::to_string(mismatches);
    StatsSnapshot snap;
    for (int k = 0; k < 200; ++k) {
        {
            SpanScope s(tracer, "engine.digest_probe");
            (void)ref.digest();
        }
        SpanScope s(tracer, "engine.fill_snapshot");
        ref.fillSnapshot(snap);
    }
    return service;
}

} // namespace

RunResult
runServeChurn(const RunOptions &opt, Tracer &tracer)
{
    RunResult out;
    constexpr unsigned kWidth = 2;
    /** Events per requested second: about the closed-loop rate on 4 vCPUs. */
    constexpr double kNominalRate = 300.0;
    /**
     * Independent traces per run, each on a fresh daemon.  A daemon's
     * Eq. 1 settles early in its trace at a level the rest of the trace
     * keeps, so one trace is one draw; eight traces average eight.
     */
    constexpr int kTraces = 8;
    util::ThreadPool::configureGlobal(kWidth);
    out.info["pool_width"] = std::to_string(kWidth);
    ServiceConfig cfg = serveConfig(4);

    auto per_trace =
        static_cast<std::size_t>(opt.seconds * kNominalRate / kTraces);
    ClosedOutcome all;
    std::vector<double> stats_us, setup;
    std::size_t stats_failures = 0, mismatches = 0;
    std::vector<EngineState> daemons;
    StatsSnapshot snap;
    ServiceTimes service;
    for (int t = 0; t < kTraces; ++t) {
        // Set-up samples spread over the run, so a burst of host noise
        // moves some of them, not the median.
        std::unique_ptr<Daemon> d =
            setupDaemon(cfg, kSetupRepeats / kTraces, setup, out);
        ChurnGen gen(opt.seed * kTraces + static_cast<std::uint64_t>(t));
        std::uint64_t id_base = all.events.size();
        ClosedOutcome o;
        {
            StatsReader reader(d->stats, kStatsPerSecond);
            o = runClosed(*d, gen, per_trace, id_base, tracer);
            reader.stop();
            stats_us.insert(stats_us.end(), reader.latUs.begin(),
                            reader.latUs.end());
            stats_failures += reader.failures;
        }
        addSnapshot(snap, finalStats(*d, out));
        d->svc.stop();
        daemons.push_back(engineState(d->svc));
        d.reset();
        mismatches += replayClosed(cfg.engine, o, id_base,
                                   opt.corruptReference && t == 0, tracer,
                                   service);
        append(all, o);
    }
    out.endToEnd["setup_s"] = {median(setup), "s"};
    closedLoopMetrics(all, stats_us, stats_failures, out);
    engineMetrics(daemons, all.wallS, out);
    digestGate(all.events.size(), mismatches, out);
    out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
    if (!opt.trace)
        return out;

    counterMetrics(snap.counters, static_cast<double>(all.events.size()),
                   std::stod(out.info["serve.node_control_periods"]), out);
    serveLayerMetrics(tracer, all.latUs, service, all.replies, snap, out);
    serveProbes(all.events, kWidth, opt, tracer, out);
    out.layers["cluster.node_build_s"] = {
        nodeBuildSeconds(
            [&] {
                cluster::NodePoolConfig pc;
                pc.servers = cfg.engine.nodes;
                pc.manager = cfg.engine.manager;
                pc.seedBase = cfg.engine.seedBase;
                pc.serverCap = cfg.engine.serverCap;
                return pc;
            }(),
            3),
        "s"};
    out.layers["cluster.cpu_per_wall"] = {all.cpuS / all.wallS, "ratio"};
    cfCommitShare(snap, out);
    return out;
}

RunResult
runServeCapstorm(const RunOptions &opt, Tracer &tracer)
{
    RunResult out;
    // glibc raises its mmap threshold the first time any thread frees a
    // large mapped block, and serves large blocks from the heap after
    // that.  When that happens follows thread timing, and the peak RSS
    // took one of two values about 3 MB apart; setting the threshold
    // (to glibc's default, 128 KiB) turns the adjustment off.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    constexpr unsigned kWidth = 1;
    constexpr int kNodes = 4;
    constexpr double kNominalRate = 4000.0;
    /** Closed-loop warm-up chunks, and measured chunks before each
     * open-loop segment. */
    constexpr std::size_t kClosedWarmup = 2;
    constexpr std::size_t kChunksPerGap = 2;
    const std::vector<double> ladder = {2000, 4000, 8000, 12000, 16000, 24000};
    util::ThreadPool::configureGlobal(kWidth);
    out.info["pool_width"] = std::to_string(kWidth);
    ServiceConfig cfg = serveConfig(kNodes);
    // Oracle utilities: calibrating a re-admitted app runs no ALS fit,
    // so the commit path is transport, batching and the allocator.
    cfg.engine.manager.oracleUtilities = true;
    cfg.engine.seedCorpus = false;
    // The run's daemon is the first of the set-up builds; the others
    // come after the run, so that the memory they free is not part of
    // the peak RSS under load.
    std::vector<double> setup;
    std::unique_ptr<Daemon> d = setupDaemon(cfg, 1, setup, out);

    // Fill every socket first (closed loop): two batch apps per node.
    Rng rng(opt.seed);
    std::uint64_t id_base = 0;
    std::vector<EventRequest> arrivals(2 * kNodes);
    for (int k = 0; k < 2 * kNodes; ++k) {
        EventRequest &ev = arrivals[static_cast<std::size_t>(k)];
        ev.op = EventOp::Arrival;
        ev.node = k / 2;
        ev.workload = static_cast<std::uint32_t>(k % 12);
    }
    OpenOutcome pre = submitEach(d->events, arrivals, id_base);
    if (pre.ok != arrivals.size())
        out.fail("prefill arrival failed");

    // The nominal phase runs as one segment per ladder rung.  A
    // closed-loop chunk holds a third of a segment's events (1000 at
    // --seconds 15), so the chunks keep their share of any run length.
    const std::size_t nominal_segments = ladder.size();
    const auto segment_events = static_cast<std::size_t>(
        kNominalRate * opt.seconds * 0.3 /
        static_cast<double>(nominal_segments));
    const std::size_t chunk_events =
        std::max<std::size_t>(100, segment_events / 3);
    double step_s = std::max(1.0, opt.seconds * 0.4 / ladder.size());
    // Every phase in the order the daemon received it; a deque keeps
    // the pointers below valid.
    std::deque<OpenOutcome> sent_log;
    sent_log.push_back(std::move(pre));
    // A one-second warm-up at the nominal rate lets the prefill apps'
    // calibrations finish before anything is measured.
    sent_log.push_back(runOpen(
        d->events,
        capstormEvents(static_cast<std::size_t>(kNominalRate), kNodes, rng),
        kNominalRate, tracer, id_base));
    // cpu_ms_per_op comes from closed-loop chunks of the same mix: every
    // event is its own epoch there.  In the open loop the CPU per event
    // follows how the batches fall, and with them the host's speed.  The
    // first chunks are a warm-up (the prefill apps' calibrations end
    // there).  The others run before every open-loop segment and after
    // the last one, so they sample the host across the whole run; the
    // metric is their median, so a burst of host contention moves a
    // chunk rather than the result.
    std::vector<double> closed_ms;
    auto closed_chunk = [&](bool measured) {
        double c0 = processCpuSeconds();
        const OpenOutcome &c = sent_log.emplace_back(submitEach(
            d->events, capstormEvents(chunk_events, kNodes, rng), id_base));
        if (measured)
            closed_ms.push_back(
                (processCpuSeconds() - c0) * 1e3 /
                static_cast<double>(std::max<std::size_t>(1, c.ok)));
    };
    for (std::size_t k = 0; k < kClosedWarmup; ++k)
        closed_chunk(false);
    auto closed_gap = [&] {
        for (std::size_t k = 0; k < kChunksPerGap; ++k)
            closed_chunk(true);
    };
    // One open-loop segment, with STATS read beside it (and only there).
    StatsReader reader(d->stats, kStatsPerSecond, true);
    auto open_segment = [&](std::size_t n, double rate) -> OpenOutcome & {
        reader.resume();
        OpenOutcome &o = sent_log.emplace_back(runOpen(
            d->events, capstormEvents(n, kNodes, rng), rate, tracer,
            id_base));
        reader.pause();
        return o;
    };
    std::vector<const OpenOutcome *> nominal;
    double nominal_cpu = 0.0;
    auto t0 = Clock::now();
    for (std::size_t k = 0; k < nominal_segments; ++k) {
        closed_gap();
        double c0 = processCpuSeconds();
        nominal.push_back(&open_segment(segment_events, kNominalRate));
        nominal_cpu += processCpuSeconds() - c0;
    }
    // Memory at the nominal load: past saturation the ladder's backlog,
    // and with it the peak, follows how fast the host drains it.
    double nominal_rss = peakRssMb();
    std::vector<const OpenOutcome *> rungs;
    for (double rate : ladder) {
        closed_gap();
        rungs.push_back(
            &open_segment(static_cast<std::size_t>(rate * step_s), rate));
    }
    closed_gap();
    reader.stop();
    double wall = secondsSince(t0);
    // The nominal segments as one phase, joined only now so that the
    // copy is not part of the nominal-load memory.
    OpenOutcome nom;
    nom.rate = kNominalRate;
    for (const OpenOutcome *o : nominal)
        append(nom, *o);

    // Gate: one reply per request, and the client's shed/expired/
    // applied tallies reconcile with the daemon's final snapshot.  A
    // last closed-loop event publishes a snapshot after every reply.
    std::vector<const OpenOutcome *> received;
    for (const OpenOutcome &o : sent_log)
        received.push_back(&o);
    std::size_t dupes = 0, missing = 0, shed = 0, expired = 0, applied = 0,
                sent = 0;
    for (const OpenOutcome *o : received) {
        dupes += o->dupes;
        sent += o->events.size();
        for (std::size_t i = 0; i < o->events.size(); ++i) {
            missing += !o->got[i];
            shed += o->got[i] && o->replies[i].status == ReplyStatus::Shed;
            expired += o->got[i] && o->replies[i].status == ReplyStatus::Expired;
            applied += o->got[i] && o->replies[i].status == ReplyStatus::Ok;
        }
    }
    EventRequest fence;
    fence.op = EventOp::Advance;
    fence.value = 0.001;
    EventReply fr;
    if (!d->events.submit(fence, fr) || fr.status != ReplyStatus::Ok)
        out.fail("fence event failed");
    StatsSnapshot snap = finalStats(*d, out);
    std::uint64_t want_shed = shed + (opt.corruptReference ? 1 : 0);
    std::uint64_t want_applied = applied + 1;
    out.info["gate.sent"] = std::to_string(sent);
    out.info["gate.missing"] = std::to_string(missing);
    out.info["gate.duplicate_replies"] = std::to_string(dupes);
    out.info["gate.shed_client_vs_daemon"] =
        std::to_string(want_shed) + "/" + std::to_string(snap.shed);
    out.info["gate.applied_client_vs_daemon"] =
        std::to_string(want_applied) + "/" + std::to_string(snap.eventsApplied);
    out.info["gate.expired_client_vs_daemon"] =
        std::to_string(expired) + "/" + std::to_string(snap.expired);
    if (missing || dupes)
        out.fail("not exactly one reply per request (" +
                 std::to_string(missing) + " missing, " +
                 std::to_string(dupes) + " duplicate)");
    if (snap.shed != want_shed || snap.expired != expired ||
        snap.eventsApplied != want_applied)
        out.fail("shed/expired/applied counts do not reconcile with STATS");

    d->svc.stop();
    engineMetrics({engineState(d->svc)}, wall, out);
    d.reset();
    setupDaemon(cfg, kSetupRepeats - 1, setup, out);
    out.endToEnd["setup_s"] = {median(setup), "s"};

    latencyMetrics("decision", nom.latUs, out);
    latencyMetrics("stats", reader.latUs, out);
    if (reader.failures)
        out.fail("STATS reads failed");
    out.endToEnd["decision_p50_us"] = {percentile(nom.latUs, 50.0), "us"};
    out.endToEnd["decision_p99_us"] = {windowedP99(nom.latUs), "us"};
    out.endToEnd["decisions_per_s"] = {
        static_cast<double>(nom.ok) / nom.wallS, "1/s"};
    out.endToEnd["stats_p99_us"] = {windowedP99(reader.latUs), "us"};
    out.endToEnd["cpu_ms_per_op"] = {median(closed_ms), "ms"};
    {
        std::ostringstream chunks;
        chunks << closed_ms.size() << " x " << chunk_events << " events:";
        for (double ms : closed_ms)
            chunks << ' ' << ms;
        out.info["cpu_ms_per_op_chunks"] = chunks.str();
    }
    out.info["open_loop_cpu_ms_per_op"] = std::to_string(
        nominal_cpu * 1e3 /
        static_cast<double>(std::max<std::size_t>(1, nom.ok)));
    // Each rung's load score is its worst limit ratio (failed share
    // over 1%, p99 and drain lag over one control period); it passes
    // at score <= 1.  The sustained rate interpolates the score = 1
    // crossing between the highest passing rung and the next one, so
    // it moves smoothly instead of jumping between rungs.
    double sustained = 0.0, prev_rate = 0.0, prev_score = 0.0;
    bool open = true; // every rung so far passed
    for (const OpenOutcome *rung : rungs) {
        const OpenOutcome &o = *rung;
        double p99 = windowedP99(o.latUs);
        double score = std::max({windowedFailedFrac(o) / 0.01,
                                 p99 / kLatencyLimitUs,
                                 o.lastReplyLagUs / kLatencyLimitUs});
        if (o.events.size() < 1000)
            out.fail("ladder step with fewer than 1000 samples");
        if (open && score <= 1.0) {
            sustained = o.rate;
        } else if (open) {
            if (prev_rate > 0.0)
                sustained = prev_rate + (o.rate - prev_rate) *
                                            (1.0 - prev_score) /
                                            (score - prev_score);
            open = false;
        }
        prev_rate = o.rate;
        prev_score = score;
        std::string key = "ladder." + std::to_string(static_cast<int>(o.rate));
        out.info[key + ".p99_us"] = std::to_string(p99);
        out.info[key + ".failed_frac"] = std::to_string(failedFrac(o));
        out.info[key + ".windowed_failed_frac"] =
            std::to_string(windowedFailedFrac(o));
        out.info[key + ".drain_lag_us"] = std::to_string(o.lastReplyLagUs);
        out.info[key + ".score"] = std::to_string(score);
    }
    out.endToEnd["sustained_rate"] = {sustained, "1/s"};
    out.attempted = nom.events.size();
    out.failed = nom.failed;
    out.info["decision_failed_frac"] = std::to_string(failedFrac(nom));
    out.endToEnd["peak_rss_mb"] = {nominal_rss, "MB"};
    out.info["peak_rss_mb_after_ladder"] = std::to_string(peakRssMb());
    if (!opt.trace)
        return out;

    ServiceTimes service = replayBatches(cfg.engine, received, tracer, out);

    std::vector<double> lat;
    std::vector<EventReply> replies;
    std::vector<EventRequest> all;
    for (const OpenOutcome *o : received) {
        lat.insert(lat.end(), o->latUs.begin(), o->latUs.end());
        replies.insert(replies.end(), o->replies.begin(), o->replies.end());
        all.insert(all.end(), o->events.begin(), o->events.end());
    }
    counterMetrics(snap.counters, static_cast<double>(all.size()),
                   std::stod(out.info["serve.node_control_periods"]), out);
    serveLayerMetrics(tracer, lat, service, replies, snap, out);
    lateMetrics(nom.lateUs, out);
    serveProbes(all, kWidth, opt, tracer, out);
    cluster::NodePoolConfig pc;
    pc.servers = kNodes;
    pc.manager = cfg.engine.manager;
    pc.seedBase = cfg.engine.seedBase;
    pc.serverCap = cfg.engine.serverCap;
    out.layers["cluster.node_build_s"] = {nodeBuildSeconds(pc, 3), "s"};
    out.layers["cluster.cpu_per_wall"] = {nominal_cpu / nom.wallS, "ratio"};
    cfCommitShare(snap, out);
    return out;
}

void
serveRackProbe(int nodes, const std::vector<double> &perNodeCaps,
               double intervalSeconds, const RunOptions &opt, Tracer &tracer,
               RunResult &out)
{
    constexpr std::size_t kProbeEvents = 1500;
    ServiceConfig cfg = serveConfig(nodes);
    cfg.engine.manager.oracleUtilities = true;
    cfg.engine.seedCorpus = false;

    // One interactive service and one batch app per node, as the
    // cluster's populateDefault places them; then the cap trace.
    std::vector<EventRequest> script;
    const auto &ilib = perf::interactiveLibrary();
    const auto &blib = perf::workloadLibrary();
    for (int n = 0; n < nodes; ++n) {
        EventRequest a;
        a.op = EventOp::Arrival;
        a.node = n;
        a.appClass = serve::AppClass::Interactive;
        a.workload = static_cast<std::uint32_t>(n % ilib.size());
        script.push_back(a);
        const int mixes = static_cast<int>(perf::tableTwoMixes().size());
        const std::string &name = perf::mix(n % mixes + 1).app2;
        for (std::size_t w = 0; w < blib.size(); ++w) {
            if (blib[w].name == name) {
                EventRequest b;
                b.op = EventOp::Arrival;
                b.node = n;
                b.workload = static_cast<std::uint32_t>(w);
                script.push_back(b);
            }
        }
    }
    for (double cap : perNodeCaps) {
        EventRequest c;
        c.op = EventOp::CapChange;
        c.node = -1;
        c.value = cap;
        script.push_back(c);
        for (int s = 0; s < static_cast<int>(intervalSeconds); ++s) {
            EventRequest adv;
            adv.op = EventOp::Advance;
            adv.value = 1.0;
            script.push_back(adv);
        }
    }

    ClosedOutcome o;
    StatsSnapshot snap;
    {
        Daemon d(cfg);
        if (!d.ok)
            out.fail("rack probe: daemon handshake failed");
        ScriptGen gen(script);
        o = runClosed(d, gen, kProbeEvents, 0, tracer);
        if (o.failed)
            out.fail("rack probe: " + std::to_string(o.failed) +
                     " events shed, expired or unanswered");
        snap = finalStats(d, out);
        d.svc.stop();
    }
    ServiceTimes service;
    std::size_t mismatches =
        replayClosed(cfg.engine, o, 0, opt.corruptReference, tracer, service);
    digestGate(o.events.size(), mismatches, out);
    serveLayerMetrics(tracer, o.latUs, service, o.replies, snap, out);
    lateMetrics(o.lateUs, out);
    probeNetCodec(o.events, tracer, out);
}

} // namespace perfbench
