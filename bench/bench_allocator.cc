/**
 * @file
 * Allocator hot-path bench: sweeps app count (k), budgets and an
 * E1-E4 event mix over randomized utility frontiers and measures the
 * frontier-compressed DP, the shared esdPlan sweep table and the
 * prefix-reuse AllocatorCache against the dense O(k*B^2) oracle of
 * tests/allocator_oracle.hh, emitting one JSON document on stdout:
 *
 *   equivalence: trials and mismatch counts (allocate and esdPlan vs.
 *                the dense oracle)
 *   spatial:     per-k allocate wall time, dense vs. frontier
 *   esd:         per-k esdPlan wall time, dense sweep vs. shared table
 *   events:      cached replay vs. dense re-solve over an event mix:
 *                wall time, grant mismatches and the cache's
 *                full-hit/extend/rebuild reuse depths
 *
 * `--check` turns the bench into a regression tripwire: every
 * equivalence trial must match the dense oracle bit-for-bit (cached
 * grants included: reuse is exact, so not even an equal-objective tie
 * may pick other grants), the frontier allocate must not be slower than dense at
 * k >= 4, esdPlan must be >= 3x faster at k = 8, and the event replay
 * must hit every reuse depth (nothing folded, a partial prefix kept,
 * nothing kept).  Exits non-zero on any failure.
 */

#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "allocator_oracle.hh"
#include "core/power_allocator.hh"
#include "core/telemetry.hh"
#include "core/utility_curve.hh"
#include "esd/battery.hh"
#include "power/platform.hh"
#include "util/random.hh"

namespace
{

using namespace psm;
using core::Allocation;
using core::AllocatorCache;
using core::EsdPlan;
using core::PowerAllocator;
using core::UtilityCurve;

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Random but physically plausible utility surface (same generator
 * family as tests/test_properties.cc): power increasing in every
 * knob, heartbeat rate monotone non-decreasing, random per-app
 * sensitivities.
 */
cf::UtilitySurface
randomSurface(Rng &rng)
{
    const auto &plat = power::defaultPlatform();
    auto settings = plat.knobSpace();
    cf::UtilitySurface s;
    s.power.resize(settings.size());
    s.hbRate.resize(settings.size());

    double core_w = rng.uniform(0.5, 4.0);
    double freq_exp = rng.uniform(1.0, 3.0);
    double dram_w = rng.uniform(0.0, 1.0);
    double base = rng.uniform(1.0, 5.0);
    double f_sens = rng.uniform(0.0, 1.0);
    double n_sens = rng.uniform(0.0, 1.0);
    double m_sens = rng.uniform(0.0, 1.0);
    double scale = rng.uniform(10.0, 500.0);

    for (std::size_t c = 0; c < settings.size(); ++c) {
        const auto &k = settings[c];
        double fr = (k.freq - plat.freqMin) /
                    (plat.freqMax - plat.freqMin);
        double nr = static_cast<double>(k.cores - 1) /
                    (plat.coresMaxPerApp - 1);
        double mr = (k.dramPower - plat.dramPowerMin) /
                    (plat.dramPowerMax - plat.dramPowerMin);
        s.power[c] = base + core_w * k.cores *
                                (0.3 + 0.7 * std::pow(
                                           k.freq / plat.freqMax,
                                           freq_exp)) +
                     dram_w * k.dramPower;
        double perf = (0.2 + 0.8 * (f_sens * fr + n_sens * nr +
                                    m_sens * mr) /
                                 std::max(f_sens + n_sens + m_sens,
                                          1e-6));
        s.hbRate[c] = scale * perf;
    }
    s.sampledColumns = settings.size();
    return s;
}

/** A pool of random curves, handed out by index. */
struct CurvePool
{
    std::vector<std::unique_ptr<UtilityCurve>> curves;

    explicit CurvePool(std::size_t n, std::uint64_t seed)
    {
        Rng rng(seed);
        auto settings = power::defaultPlatform().knobSpace();
        for (std::size_t i = 0; i < n; ++i) {
            curves.push_back(std::make_unique<UtilityCurve>(
                "app" + std::to_string(i), settings,
                randomSurface(rng), core::KnobFreedom::All));
        }
    }

    std::vector<const UtilityCurve *>
    take(std::size_t first, std::size_t count) const
    {
        std::vector<const UtilityCurve *> out;
        for (std::size_t i = first; i < first + count; ++i)
            out.push_back(curves[i % curves.size()].get());
        return out;
    }
};

bool
sameAllocation(const Allocation &a, const Allocation &b)
{
    if (a.objective != b.objective || a.used != b.used ||
        a.apps.size() != b.apps.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
        const auto &x = a.apps[i];
        const auto &y = b.apps[i];
        if (x.scheduled() != y.scheduled() || x.budget != y.budget ||
            x.expectedPerf != y.expectedPerf) {
            return false;
        }
        if (x.scheduled() && x.point->power != y.point->power)
            return false;
    }
    return true;
}

bool
sameEsdPlan(const EsdPlan &a, const EsdPlan &b)
{
    return a.viable == b.viable && a.objective == b.objective &&
           a.offFraction == b.offFraction && a.deficit == b.deficit &&
           a.chargePower == b.chargePower &&
           sameAllocation(a.onAllocation, b.onAllocation);
}

// --- equivalence ---------------------------------------------------

struct Equivalence
{
    std::size_t allocateTrials = 0;
    std::size_t allocateMismatches = 0;
    std::size_t esdTrials = 0;
    std::size_t esdMismatches = 0;
};

Equivalence
runEquivalence(bool quick)
{
    Equivalence eq;
    PowerAllocator frontier;
    const auto &plat = power::defaultPlatform();
    esd::BatteryConfig battery = esd::leadAcidUps();

    std::size_t trials = quick ? 3 : 10;
    for (std::size_t k : {1u, 2u, 4u, 8u}) {
        for (std::size_t t = 0; t < trials; ++t) {
            CurvePool pool(k, 1000 + 31 * k + t);
            auto curves = pool.take(0, k);
            Rng rng(77 * k + t);
            for (int b = 0; b < 4; ++b) {
                Watts budget =
                    rng.uniform(2.0, 16.0 * static_cast<double>(k));
                ++eq.allocateTrials;
                if (!sameAllocation(
                        oracle::denseAllocate(frontier, curves, budget),
                        frontier.allocate(curves, budget)))
                    ++eq.allocateMismatches;
            }
            ++eq.esdTrials;
            Watts cap = rng.uniform(65.0, 110.0);
            EsdPlan a = oracle::denseEsdPlan(frontier, curves,
                                             plat.idlePower,
                                             plat.cmPower, cap, battery);
            EsdPlan b = frontier.esdPlan(curves, plat.idlePower,
                                         plat.cmPower, cap, battery);
            if (!sameEsdPlan(a, b))
                ++eq.esdMismatches;
        }
    }

    return eq;
}

// --- timing --------------------------------------------------------

struct TimedPoint
{
    std::size_t k = 0;
    double denseMs = 0.0;
    double fastMs = 0.0;

    double speedup() const
    {
        return fastMs > 0.0 ? denseMs / fastMs : 0.0;
    }
};

/** Best of @p rounds: ms per call of @p dense and of @p fast, each
 * called @p reps times per round. */
TimedPoint
timePair(std::size_t k, int rounds, int reps,
         const std::function<void()> &dense,
         const std::function<void()> &fast)
{
    TimedPoint p;
    p.k = k;
    auto perCall = [reps](const std::function<void()> &fn) {
        return wallSeconds([&] {
                   for (int r = 0; r < reps; ++r)
                       fn();
               }) *
               1000.0 / reps;
    };
    for (int round = 0; round < rounds; ++round) {
        double d = perCall(dense);
        double f = perCall(fast);
        if (p.denseMs == 0.0 || d < p.denseMs)
            p.denseMs = d;
        if (p.fastMs == 0.0 || f < p.fastMs)
            p.fastMs = f;
    }
    return p;
}

TimedPoint
timeSpatial(std::size_t k, bool quick)
{
    PowerAllocator frontier;
    CurvePool pool(k, 7000 + k);
    auto curves = pool.take(0, k);
    Watts budget = 12.5 * static_cast<double>(k);
    return timePair(
        k, 3, quick ? 20 : 60,
        [&] { oracle::denseAllocate(frontier, curves, budget); },
        [&] { frontier.allocate(curves, budget); });
}

TimedPoint
timeEsd(std::size_t k, bool quick)
{
    PowerAllocator frontier;
    CurvePool pool(k, 8000 + k);
    auto curves = pool.take(0, k);
    const auto &plat = power::defaultPlatform();
    esd::BatteryConfig battery = esd::leadAcidUps();
    Watts cap = 80.0;
    return timePair(
        k, quick ? 2 : 3, 1,
        [&] {
            oracle::denseEsdPlan(frontier, curves, plat.idlePower,
                                 plat.cmPower, cap, battery);
        },
        [&] {
            frontier.esdPlan(curves, plat.idlePower, plat.cmPower, cap,
                             battery);
        });
}

struct EventReport
{
    std::size_t events = 0;
    double denseMs = 0.0;  ///< total, dense re-solve per event
    double cachedMs = 0.0; ///< total, frontier + AllocatorCache
    std::size_t mismatches = 0; ///< cached grants != dense oracle's
    std::uint64_t fullHits = 0;
    std::uint64_t extends = 0;
    std::uint64_t rebuilds = 0;
};

EventReport
runEvents(bool quick)
{
    EventReport rep;
    rep.events = quick ? 150 : 500;

    // The same deterministic event tape is replayed against both
    // solvers: arrivals append, departures open a random slot,
    // budget changes re-walk the cached tables.
    struct Event
    {
        int kind;   // 0 arrival, 1 departure, 2 budget change
        int slot;   // departure index
        Watts budget;
    };
    std::vector<Event> tape;
    {
        Rng rng(1234);
        std::size_t k = 4;
        Watts budget = 50.0;
        for (std::size_t e = 0; e < rep.events; ++e) {
            Event ev{2, 0, budget};
            int roll = rng.uniformInt(0, 9);
            if (roll < 2 && k < 10) {
                ev.kind = 0;
                ++k;
            } else if (roll < 4 && k > 2) {
                ev.kind = 1;
                ev.slot = rng.uniformInt(0, static_cast<int>(k) - 1);
                --k;
            } else {
                budget = rng.uniform(
                    10.0, 15.0 * static_cast<double>(k));
                ev.budget = budget;
            }
            tape.push_back(ev);
        }
    }

    CurvePool pool(32, 31337);
    auto replay = [&](auto &&solve) {
        std::vector<const UtilityCurve *> active = pool.take(0, 4);
        std::size_t next = 4;
        Watts budget = 50.0;
        for (const Event &ev : tape) {
            if (ev.kind == 0)
                active.push_back(pool.curves[next++ % 32].get());
            else if (ev.kind == 1)
                active.erase(active.begin() + ev.slot);
            else
                budget = ev.budget;
            solve(active, budget);
        }
    };

    core::Telemetry tel;
    PowerAllocator frontier;
    frontier.setTelemetry(&tel);
    AllocatorCache cache;
    std::vector<Allocation> dense;
    std::vector<Allocation> cached;
    rep.denseMs = wallSeconds([&] {
        replay([&](const auto &active, Watts budget) {
            dense.push_back(
                oracle::denseAllocate(frontier, active, budget));
        });
    }) * 1e3;
    rep.cachedMs = wallSeconds([&] {
        replay([&](const auto &active, Watts budget) {
            cached.push_back(
                frontier.allocate(active, budget, &cache, 1));
        });
    }) * 1e3;
    for (std::size_t e = 0; e < tape.size(); ++e)
        rep.mismatches += !sameAllocation(dense[e], cached[e]);
    rep.fullHits = tel.counter(trace::EventId::AllocatorDpFullHits);
    rep.extends = tel.counter(trace::EventId::AllocatorDpExtends);
    rep.rebuilds = tel.counter(trace::EventId::AllocatorDpRebuilds);
    return rep;
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

    std::vector<TimedPoint> spatial;
    std::vector<TimedPoint> esd;
    for (std::size_t k : {1u, 2u, 4u, 8u}) {
        spatial.push_back(timeSpatial(k, quick));
        esd.push_back(timeEsd(k, quick));
    }
    EventReport events = runEvents(quick);

    // --- JSON ------------------------------------------------------
    std::cout << "{\"bench\":\"allocator\",";
    std::cout << "\"equivalence\":{\"allocate_trials\":"
              << eq.allocateTrials << ",\"allocate_mismatches\":"
              << eq.allocateMismatches
              << ",\"esd_trials\":" << eq.esdTrials
              << ",\"esd_mismatches\":" << eq.esdMismatches << "},";
    std::cout << "\"spatial\":[";
    for (std::size_t i = 0; i < spatial.size(); ++i) {
        const TimedPoint &p = spatial[i];
        std::cout << (i ? "," : "") << "{\"k\":" << p.k
                  << ",\"dense_ms\":" << p.denseMs
                  << ",\"frontier_ms\":" << p.fastMs
                  << ",\"speedup\":" << p.speedup() << "}";
    }
    std::cout << "],\"esd\":[";
    for (std::size_t i = 0; i < esd.size(); ++i) {
        const TimedPoint &p = esd[i];
        std::cout << (i ? "," : "") << "{\"k\":" << p.k
                  << ",\"dense_ms\":" << p.denseMs
                  << ",\"shared_ms\":" << p.fastMs
                  << ",\"speedup\":" << p.speedup() << "}";
    }
    std::cout << "],\"events\":{\"count\":" << events.events
              << ",\"dense_ms\":" << events.denseMs
              << ",\"cached_ms\":" << events.cachedMs
              << ",\"speedup\":" << events.denseMs / events.cachedMs
              << ",\"mismatches\":" << events.mismatches
              << ",\"full_hits\":" << events.fullHits
              << ",\"extends\":" << events.extends
              << ",\"rebuilds\":" << events.rebuilds << "}}"
              << std::endl;

    if (!check)
        return 0;

    bool ok = true;
    if (eq.allocateMismatches || eq.esdMismatches ||
        events.mismatches) {
        std::cerr << "FAIL: optimized allocator diverged from the "
                     "dense oracle ("
                  << eq.allocateMismatches << " allocate, "
                  << eq.esdMismatches << " esdPlan, "
                  << events.mismatches << " cached-event mismatches)\n";
        ok = false;
    }
    for (const TimedPoint &p : spatial) {
        if (p.k >= 4 && p.speedup() < 1.0) {
            std::cerr << "FAIL: frontier allocate slower than dense "
                         "at k="
                      << p.k << " (speedup " << p.speedup() << ")\n";
            ok = false;
        }
    }
    for (const TimedPoint &p : esd) {
        if (p.k == 8 && p.speedup() < 3.0) {
            std::cerr << "FAIL: shared-sweep esdPlan under 3x at k=8 "
                         "(speedup "
                      << p.speedup() << ")\n";
            ok = false;
        }
    }
    if (events.fullHits == 0 || events.extends == 0 ||
        events.rebuilds == 0) {
        std::cerr << "FAIL: event replay missed a cache reuse depth "
                     "(full " << events.fullHits << ", extend "
                  << events.extends << ", rebuild " << events.rebuilds
                  << ")\n";
        ok = false;
    }
    return ok ? 0 : 1;
}
