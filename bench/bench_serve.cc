/**
 * @file
 * Serving-daemon bench: drives an in-process psm-served instance over
 * socketpairs (CI needs no network) and reports one JSON document on
 * stdout:
 *
 *   equivalence: a closed-loop client replays a deterministic E1-E4
 *                trace against the daemon while the same trace runs
 *                on an in-process ServeEngine; every reply's
 *                DecisionDigest must match the reference bit-exactly.
 *   coalesce:    batching held, a burst of events queued, batching
 *                released — the burst must resolve in one allocator
 *                epoch (reply.batched == burst size).
 *   sweep:       client-count x event-mix grid; each cell runs a
 *                closed-loop pass (per-request latency p50/p99) and
 *                an open-loop burst pass (decisions/sec, shed rate,
 *                realized events-per-batch).
 *
 * `--check` turns the bench into a regression tripwire: zero
 * equivalence mismatches, an open-loop sweep spanning >= 3 client
 * counts, and >= 2 events coalesced per allocator pass in the held
 * burst.  Exits non-zero on any failure.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "serve/client.hh"
#include "serve/service.hh"
#include "util/random.hh"
#include "util/stats.hh"

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

using SteadyClock = std::chrono::steady_clock;

double
usSince(SteadyClock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(
               SteadyClock::now() - t0)
        .count();
}

/** Weights of the E1-E4 vocabulary in a generated trace. */
struct EventMix
{
    const char *name;
    double advance, cap, arrival, phase, kill;
};

constexpr EventMix kMixes[] = {
    // Steady state: mostly time passing under a wobbling cap.
    {"steady", 0.45, 0.30, 0.15, 0.05, 0.05},
    // Churn: arrivals and kills dominate (placement-heavy).
    {"churn", 0.15, 0.10, 0.45, 0.05, 0.25},
    // Drift: phase changes provoke E4 replans.
    {"drift", 0.30, 0.10, 0.20, 0.35, 0.05},
};

/** An app a trace generator believes is alive (daemon-confirmed). */
struct LiveApp
{
    std::int32_t node;
    std::int32_t appId;
};

/**
 * Deterministic trace generator: the same Rng seed yields the same
 * event sequence given the same reply stream, so the daemon path and
 * the in-process reference see identical inputs.
 */
class TraceGen
{
  public:
    TraceGen(std::uint64_t seed, const EventMix &mix)
        : rng(seed), mix(mix)
    {
    }

    EventRequest
    next()
    {
        EventRequest ev;
        double roll = rng.uniform();
        if ((roll -= mix.advance) < 0 || live.empty()) {
            if (roll < 0 || rng.uniform() < 0.5) {
                ev.op = EventOp::Advance;
                ev.value = rng.uniform(0.02, 0.08);
                return ev;
            }
            ev.op = EventOp::Arrival;
            ev.workload =
                static_cast<std::uint32_t>(rng.uniformInt(0, 11));
            ev.node = -1;
            return ev;
        }
        if ((roll -= mix.cap) < 0) {
            ev.op = EventOp::CapChange;
            ev.node = -1; // broadcast
            ev.value = rng.uniform(60.0, 140.0);
            return ev;
        }
        if ((roll -= mix.arrival) < 0) {
            ev.op = EventOp::Arrival;
            ev.workload =
                static_cast<std::uint32_t>(rng.uniformInt(0, 11));
            ev.node = -1;
            return ev;
        }
        const LiveApp &pick = live[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(live.size()) - 1))];
        if ((roll -= mix.phase) < 0) {
            ev.op = EventOp::PhaseChange;
            ev.node = pick.node;
            ev.appId = pick.appId;
            ev.cpuScale = rng.uniform(0.5, 2.0);
            ev.memScale = rng.uniform(0.5, 2.0);
            return ev;
        }
        ev.op = EventOp::Kill;
        ev.node = pick.node;
        ev.appId = pick.appId;
        return ev;
    }

    /** Feed an outcome back so later events can target live apps. */
    void
    observe(const EventRequest &ev, ReplyStatus status,
            std::int32_t node, std::int32_t app_id)
    {
        if (status != ReplyStatus::Ok)
            return;
        if (ev.op == EventOp::Arrival) {
            live.push_back({node, app_id});
        } else if (ev.op == EventOp::Kill) {
            live.erase(std::remove_if(live.begin(), live.end(),
                                      [&](const LiveApp &a) {
                                          return a.node == node &&
                                                 a.appId == app_id;
                                      }),
                       live.end());
        }
    }

  private:
    Rng rng;
    EventMix mix;
    std::vector<LiveApp> live;
};

ServiceConfig
baseConfig()
{
    ServiceConfig cfg;
    cfg.engine.nodes = 2;
    cfg.engine.serverCap = 100.0;
    cfg.maxQueue = 128;
    cfg.maxBatch = 32;
    return cfg;
}

// --- Equivalence ---------------------------------------------------

struct Equivalence
{
    std::size_t events = 0;
    std::size_t mismatches = 0;
    std::size_t okEvents = 0;
};

/**
 * Closed loop, one client: every submission is its own allocator
 * epoch (batch of one), which makes the daemon's apply/commit
 * sequence identical to the in-process reference — the digests must
 * agree bit-for-bit at every step.
 */
Equivalence
runEquivalence(bool quick)
{
    ServiceConfig cfg = baseConfig();
    ServeService service(cfg);
    int fd = service.openLocalConnection();
    service.start();

    Client cli;
    cli.adopt(fd);
    serve::HelloReply hello;
    if (!cli.hello("bench-equivalence", hello)) {
        std::cerr << "FAIL: handshake with in-process daemon\n";
        std::exit(1);
    }

    ServeEngine ref(cfg.engine);
    TraceGen gen(0x5eed0001ULL, kMixes[1]); // churn: most outcomes

    Equivalence eq;
    std::size_t n = quick ? 150 : 500;
    for (std::size_t i = 0; i < n; ++i) {
        EventRequest ev = gen.next();

        serve::ApplyOutcome expect = ref.apply(ev);
        DecisionDigest expect_digest =
            expect.status == ReplyStatus::Ok ? ref.commit()
                                             : ref.digest();

        EventReply reply;
        if (!cli.submit(ev, reply)) {
            std::cerr << "FAIL: submit() transport error at event "
                      << i << "\n";
            std::exit(1);
        }
        ++eq.events;
        bool match = reply.status == expect.status &&
                     reply.node == expect.node &&
                     reply.appId == expect.appId &&
                     reply.digest == expect_digest;
        if (!match)
            ++eq.mismatches;
        if (reply.status == ReplyStatus::Ok)
            ++eq.okEvents;
        gen.observe(ev, reply.status, reply.node, reply.appId);
    }
    service.stop();
    return eq;
}

// --- Coalescing ----------------------------------------------------

struct Coalesce
{
    std::size_t burst = 0;
    std::uint64_t maxBatched = 0; ///< largest reply.batched seen
    double eventsPerBatch = 0.0;  ///< snapshot, after the burst
};

/**
 * Deterministic batching proof: hold the control thread, queue a
 * burst of independent cap changes, release — the whole burst must
 * resolve in one allocator epoch.
 */
Coalesce
runCoalesce()
{
    ServiceConfig cfg = baseConfig();
    ServeService service(cfg);
    int fd = service.openLocalConnection();
    service.start();

    Client cli;
    cli.adopt(fd);
    serve::HelloReply hello;
    cli.hello("bench-coalesce", hello);

    Coalesce co;
    co.burst = 8;
    service.holdBatching(true);
    for (std::size_t i = 0; i < co.burst; ++i) {
        EventRequest ev;
        ev.op = EventOp::CapChange;
        ev.node = -1;
        ev.value = 80.0 + static_cast<double>(i);
        cli.send(ev);
    }
    // The reactor enqueues asynchronously; wait for the full burst.
    for (int spin = 0;
         service.queueDepth() < co.burst && spin < 2000; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    service.holdBatching(false);

    for (std::size_t i = 0; i < co.burst; ++i) {
        EventReply reply;
        if (!cli.readEventReply(reply))
            break;
        co.maxBatched = std::max(
            co.maxBatched, static_cast<std::uint64_t>(reply.batched));
    }
    co.eventsPerBatch = service.snapshot()->eventsPerBatch();
    service.stop();
    return co;
}

// --- Client-count x mix sweep --------------------------------------

struct SweepCell
{
    const char *mix = "";
    std::size_t clients = 0;
    // Closed-loop pass.
    std::size_t closedEvents = 0;
    double closedP50Us = 0.0;
    double closedP99Us = 0.0;
    double closedDecisionsPerSec = 0.0;
    // Open-loop burst pass.
    std::size_t openEvents = 0;
    std::size_t openOk = 0;
    std::size_t openShed = 0;
    double openP50Us = 0.0;
    double openP99Us = 0.0;
    double openDecisionsPerSec = 0.0;
    double eventsPerBatch = 0.0;
};

SweepCell
runSweepCell(const EventMix &mix, std::size_t clients, bool quick)
{
    SweepCell cell;
    cell.mix = mix.name;
    cell.clients = clients;

    ServiceConfig cfg = baseConfig();
    ServeService service(cfg);
    std::vector<int> fds;
    for (std::size_t c = 0; c < clients; ++c)
        fds.push_back(service.openLocalConnection());
    service.start();

    std::size_t per_client = quick ? 40 : 120;

    // Closed-loop pass: every client waits for each reply; concurrent
    // submissions coalesce only as far as they naturally collide.
    {
        std::vector<std::vector<double>> lat(clients);
        std::vector<std::size_t> ok(clients, 0);
        std::vector<std::thread> threads;
        auto t0 = SteadyClock::now();
        for (std::size_t c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                Client cli;
                cli.adopt(fds[c]);
                serve::HelloReply hello;
                cli.hello("bench-closed", hello);
                TraceGen gen(0xc105ed00ULL + c * 977, mix);
                for (std::size_t i = 0; i < per_client; ++i) {
                    EventRequest ev = gen.next();
                    auto s0 = SteadyClock::now();
                    EventReply reply;
                    if (!cli.submit(ev, reply))
                        break;
                    lat[c].push_back(usSince(s0));
                    if (reply.status == ReplyStatus::Ok)
                        ++ok[c];
                    gen.observe(ev, reply.status, reply.node,
                                reply.appId);
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        double wall = usSince(t0) / 1e6;
        std::vector<double> all;
        std::size_t total_ok = 0;
        for (std::size_t c = 0; c < clients; ++c) {
            all.insert(all.end(), lat[c].begin(), lat[c].end());
            total_ok += ok[c];
        }
        cell.closedEvents = all.size();
        cell.closedP50Us = percentileOf(all, 50.0);
        cell.closedP99Us = percentileOf(all, 99.0);
        cell.closedDecisionsPerSec =
            wall > 0 ? static_cast<double>(total_ok) / wall : 0.0;
    }

    // Open-loop burst pass: fire everything, then drain.  Queue
    // pressure exercises shedding and deep batching.  Fresh
    // connections — the closed-loop clients closed theirs on exit.
    {
        std::vector<int> fds2;
        for (std::size_t c = 0; c < clients; ++c)
            fds2.push_back(service.openLocalConnection());
        std::vector<std::vector<double>> lat(clients);
        std::vector<std::size_t> ok(clients, 0), shed(clients, 0),
            got(clients, 0);
        std::vector<std::thread> threads;
        auto t0 = SteadyClock::now();
        for (std::size_t c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                Client cli;
                cli.adopt(fds2[c]);
                // Burst: only cheap independent ops, so replies need
                // no outcome feedback.
                Rng rng(0x0be41007ULL + c * 131);
                std::map<std::uint32_t, SteadyClock::time_point>
                    sent_at;
                for (std::size_t i = 0; i < per_client; ++i) {
                    EventRequest ev;
                    if (rng.uniform() < 0.6) {
                        ev.op = EventOp::Advance;
                        ev.value = rng.uniform(0.01, 0.03);
                    } else {
                        ev.op = EventOp::CapChange;
                        ev.node = -1;
                        ev.value = rng.uniform(60.0, 140.0);
                    }
                    if (cli.send(ev))
                        sent_at[cli.sent()] = SteadyClock::now();
                }
                for (std::size_t i = 0; i < per_client; ++i) {
                    EventReply reply;
                    std::uint32_t id;
                    if (!cli.readEventReply(reply, id, 60000))
                        break;
                    ++got[c];
                    auto it = sent_at.find(id);
                    if (it != sent_at.end())
                        lat[c].push_back(usSince(it->second));
                    if (reply.status == ReplyStatus::Ok)
                        ++ok[c];
                    else if (reply.status == ReplyStatus::Shed)
                        ++shed[c];
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        double wall = usSince(t0) / 1e6;
        std::vector<double> all;
        std::size_t total_ok = 0, total_shed = 0, total_got = 0;
        for (std::size_t c = 0; c < clients; ++c) {
            all.insert(all.end(), lat[c].begin(), lat[c].end());
            total_ok += ok[c];
            total_shed += shed[c];
            total_got += got[c];
        }
        cell.openEvents = total_got;
        cell.openOk = total_ok;
        cell.openShed = total_shed;
        cell.openP50Us = percentileOf(all, 50.0);
        cell.openP99Us = percentileOf(all, 99.0);
        cell.openDecisionsPerSec =
            wall > 0 ? static_cast<double>(total_ok) / wall : 0.0;
    }

    cell.eventsPerBatch = service.snapshot()->eventsPerBatch();
    service.stop();
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseCheckArgs(argc, argv);
    if (!args)
        return 2;
    const auto [check, quick] = *args;

    Equivalence eq = runEquivalence(quick);
    Coalesce co = runCoalesce();

    std::vector<std::size_t> client_counts =
        quick ? std::vector<std::size_t>{1, 2, 4}
              : std::vector<std::size_t>{1, 2, 4, 8};
    std::vector<SweepCell> sweep;
    std::size_t mixes = quick ? 2 : 3;
    for (std::size_t m = 0; m < mixes; ++m)
        for (std::size_t clients : client_counts)
            sweep.push_back(runSweepCell(kMixes[m], clients, quick));

    // --- JSON ------------------------------------------------------
    std::cout << "{\"bench\":\"serve\",";
    std::cout << "\"equivalence\":{\"events\":" << eq.events
              << ",\"ok_events\":" << eq.okEvents
              << ",\"mismatches\":" << eq.mismatches << "},";
    std::cout << "\"coalesce\":{\"burst\":" << co.burst
              << ",\"max_batched\":" << co.maxBatched
              << ",\"events_per_batch\":" << co.eventsPerBatch
              << "},";
    std::cout << "\"sweep\":[";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const SweepCell &c = sweep[i];
        std::cout << (i ? "," : "") << "{\"mix\":\"" << c.mix
                  << "\",\"clients\":" << c.clients
                  << ",\"closed_events\":" << c.closedEvents
                  << ",\"closed_p50_us\":" << c.closedP50Us
                  << ",\"closed_p99_us\":" << c.closedP99Us
                  << ",\"closed_decisions_per_sec\":"
                  << c.closedDecisionsPerSec
                  << ",\"open_events\":" << c.openEvents
                  << ",\"open_ok\":" << c.openOk
                  << ",\"open_shed\":" << c.openShed
                  << ",\"open_p50_us\":" << c.openP50Us
                  << ",\"open_p99_us\":" << c.openP99Us
                  << ",\"open_decisions_per_sec\":"
                  << c.openDecisionsPerSec
                  << ",\"events_per_batch\":" << c.eventsPerBatch
                  << "}";
    }
    std::cout << "]}" << std::endl;

    if (!check)
        return 0;

    bool ok = true;
    if (eq.events == 0 || eq.mismatches != 0) {
        std::cerr << "FAIL: daemon decisions diverged from the "
                     "in-process reference ("
                  << eq.mismatches << " of " << eq.events
                  << " events)\n";
        ok = false;
    }
    if (eq.okEvents < eq.events / 4) {
        std::cerr << "FAIL: equivalence trace degenerate (only "
                  << eq.okEvents << " of " << eq.events
                  << " events applied)\n";
        ok = false;
    }
    if (co.maxBatched < 2) {
        std::cerr << "FAIL: held burst did not coalesce (max "
                  << co.maxBatched << " events per allocator pass, "
                  << "want >= 2)\n";
        ok = false;
    }
    std::map<std::size_t, bool> counts_seen;
    for (const SweepCell &c : sweep) {
        counts_seen[c.clients] = true;
        if (c.openEvents == 0) {
            std::cerr << "FAIL: open-loop cell (" << c.mix << ", "
                      << c.clients << " clients) saw no replies\n";
            ok = false;
        }
    }
    if (counts_seen.size() < 3) {
        std::cerr << "FAIL: open-loop sweep covered only "
                  << counts_seen.size()
                  << " client counts (want >= 3)\n";
        ok = false;
    }
    if (!ok)
        return 1;
    std::cout << "bench_serve --check: all constraints hold"
              << std::endl;
    return 0;
}
