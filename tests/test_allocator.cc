/**
 * @file
 * Tests for the PowerAllocator: the knapsack DP (R1/R2), temporal
 * planning (R3b) and ESD planning with Eq. 5 (R4).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "allocator_oracle.hh"
#include "cf/profiler.hh"
#include "core/power_allocator.hh"
#include "esd/battery.hh"
#include "perf/perf_model.hh"
#include "perf/workloads.hh"
#include "util/random.hh"

namespace psm::core
{
namespace
{

using power::defaultPlatform;

class AllocatorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto &plat = defaultPlatform();
        settings = plat.knobSpace();
        cf::Profiler prof(plat, 0.0);
        Rng rng(1);
        for (const char *name : {"stream", "kmeans"}) {
            perf::PerfModel model(plat, perf::workload(name));
            std::vector<double> p, h;
            prof.measureAll(model, p, h, rng);
            curves.push_back(std::make_unique<UtilityCurve>(
                name, settings,
                cf::UtilityEstimator::surfaceFromRows(p, h),
                KnobFreedom::All));
        }
        ptrs = {curves[0].get(), curves[1].get()};
    }

    std::vector<power::KnobSetting> settings;
    std::vector<std::unique_ptr<UtilityCurve>> curves;
    std::vector<const UtilityCurve *> ptrs;
    PowerAllocator allocator;
};

TEST_F(AllocatorTest, StaysWithinBudget)
{
    for (double budget : {8.0, 12.0, 20.0, 29.4, 45.0}) {
        Allocation alloc = allocator.allocate(ptrs, budget);
        EXPECT_LE(alloc.used, budget + 1e-6) << budget;
        double perf_sum = 0.0;
        for (const auto &a : alloc.apps)
            perf_sum += a.expectedPerf;
        EXPECT_NEAR(alloc.objective, perf_sum, 1e-9);
    }
}

TEST_F(AllocatorTest, NeverWorseThanEqualSplit)
{
    // Property (the R1 claim): the utility-aware DP dominates the
    // fair split at every budget.
    for (double budget = 6.0; budget <= 46.0; budget += 2.0) {
        Allocation dp = allocator.allocate(ptrs, budget);
        Allocation eq = allocator.equalSplit(ptrs, budget);
        EXPECT_GE(dp.objective, eq.objective - 1e-9)
            << "budget " << budget;
    }
}

TEST_F(AllocatorTest, ObjectiveMonotoneWithinEachRegime)
{
    // Once the budget covers both minima the allocator reserves them
    // (nobody starves), so the objective is monotone above that
    // threshold, and separately monotone below it (starved regime).
    double mins = curves[0]->minPower() + curves[1]->minPower();
    double prev = 0.0;
    for (double budget = 4.0; budget < mins; budget += 1.0) {
        Allocation alloc = allocator.allocate(ptrs, budget);
        EXPECT_GE(alloc.objective, prev - 1e-9) << budget;
        prev = alloc.objective;
    }
    prev = 0.0;
    for (double budget = mins + 0.5; budget <= 50.0; budget += 1.0) {
        Allocation alloc = allocator.allocate(ptrs, budget);
        EXPECT_TRUE(alloc.allScheduled()) << budget;
        EXPECT_GE(alloc.objective, prev - 1e-9) << budget;
        prev = alloc.objective;
    }
}

TEST_F(AllocatorTest, GenerousBudgetSchedulesEveryoneAtMax)
{
    Allocation alloc = allocator.allocate(ptrs, 100.0);
    EXPECT_TRUE(alloc.allScheduled());
    EXPECT_NEAR(alloc.objective, 2.0, 1e-6);
}

TEST_F(AllocatorTest, TinyBudgetSchedulesAtMostOne)
{
    double budget = curves[0]->minPower() + 0.5;
    Allocation alloc = allocator.allocate(ptrs, budget);
    EXPECT_FALSE(alloc.allScheduled());
    int scheduled = 0;
    for (const auto &a : alloc.apps)
        scheduled += a.scheduled();
    EXPECT_LE(scheduled, 1);
}

TEST_F(AllocatorTest, EqualSplitReportsUnscheduledApps)
{
    Allocation eq = allocator.equalSplit(ptrs, 8.0); // 4 W each
    for (const auto &a : eq.apps)
        EXPECT_FALSE(a.scheduled());
    EXPECT_DOUBLE_EQ(eq.objective, 0.0);
}

TEST_F(AllocatorTest, SlackIsDistributed)
{
    // With a budget between frontier points the greedy pass should
    // leave little slack unused.
    Allocation alloc = allocator.allocate(ptrs, 29.4);
    EXPECT_TRUE(alloc.allScheduled());
    EXPECT_GT(alloc.used, 29.4 - 1.5);
}

// --- Temporal plans -------------------------------------------------------

TEST_F(AllocatorTest, TemporalSharesSumToOne)
{
    for (ShareMode mode :
         {ShareMode::Equal, ShareMode::UtilityWeighted}) {
        TemporalPlan plan = allocator.temporalPlan(ptrs, 12.0, mode);
        ASSERT_EQ(plan.slots.size(), 2u);
        double total = 0.0;
        for (const auto &s : plan.slots) {
            EXPECT_GT(s.share, 0.0);
            total += s.share;
            EXPECT_LE(s.point.power, 12.0 + 1e-9);
        }
        EXPECT_NEAR(total, 1.0, 1e-9);
    }
}

TEST_F(AllocatorTest, TemporalEqualSharesAreFair)
{
    TemporalPlan plan =
        allocator.temporalPlan(ptrs, 12.0, ShareMode::Equal);
    for (const auto &s : plan.slots)
        EXPECT_DOUBLE_EQ(s.share, 0.5);
}

TEST_F(AllocatorTest, TemporalRespectsShareFloor)
{
    AllocatorConfig cfg;
    cfg.shareFloor = 0.4;
    PowerAllocator floored(cfg);
    TemporalPlan plan = floored.temporalPlan(
        ptrs, 12.0, ShareMode::UtilityWeighted);
    for (const auto &s : plan.slots)
        EXPECT_GE(s.share, 0.4 / 2.0 - 1e-9);
}

TEST_F(AllocatorTest, TemporalReportsUnschedulable)
{
    TemporalPlan plan = allocator.temporalPlan(
        ptrs, curves[0]->minPower() - 1.0, ShareMode::Equal);
    EXPECT_TRUE(plan.slots.empty() || !plan.unschedulable.empty());
}

// --- ESD plans -------------------------------------------------------------

TEST_F(AllocatorTest, EsdPlanImplementsEqFive)
{
    const auto &plat = defaultPlatform();
    esd::BatteryConfig esd = esd::leadAcidUps();
    EsdPlan plan = allocator.esdPlan(ptrs, plat.idlePower,
                                     plat.cmPower, 80.0, esd);
    ASSERT_TRUE(plan.viable);
    EXPECT_TRUE(plan.onAllocation.allScheduled());
    EXPECT_GT(plan.offFraction, 0.0);
    EXPECT_LT(plan.offFraction, 1.0);
    EXPECT_LE(plan.deficit, esd.maxDischargePower + 1e-9);

    // Verify Eq. 5: off/on = deficit / (eta * charge).
    double off_over_on = plan.offFraction / (1.0 - plan.offFraction);
    double expected = plan.deficit /
                      (esd.roundTripEfficiency() * plan.chargePower);
    EXPECT_NEAR(off_over_on, expected, 1e-6);

    // Energy balance: what is banked during OFF covers ON.
    double banked = plan.offFraction * plan.chargePower *
                    esd.roundTripEfficiency();
    double spent = (1.0 - plan.offFraction) * plan.deficit;
    EXPECT_NEAR(banked, spent, 1e-6);
}

TEST_F(AllocatorTest, EsdPlanNotViableWithoutChargeHeadroom)
{
    const auto &plat = defaultPlatform();
    // Cap at P_idle: no headroom ever.
    EsdPlan plan = allocator.esdPlan(ptrs, plat.idlePower,
                                     plat.cmPower, plat.idlePower,
                                     esd::leadAcidUps());
    EXPECT_FALSE(plan.viable);
}

TEST_F(AllocatorTest, EsdPlanRunsBothAppsAtSeventyWatts)
{
    // The paper's most stringent scenario: only the ESD scheme makes
    // progress at 70 W.
    const auto &plat = defaultPlatform();
    EsdPlan plan = allocator.esdPlan(ptrs, plat.idlePower,
                                     plat.cmPower, 70.0,
                                     esd::leadAcidUps());
    ASSERT_TRUE(plan.viable);
    EXPECT_TRUE(plan.onAllocation.allScheduled());
    EXPECT_GT(plan.objective, 0.0);
    // OFF dominates at such a tight cap.
    EXPECT_GT(plan.offFraction, 0.4);
}

TEST_F(AllocatorTest, LooseCapNeedsNoOffPeriod)
{
    const auto &plat = defaultPlatform();
    EsdPlan plan = allocator.esdPlan(ptrs, plat.idlePower,
                                     plat.cmPower, 150.0,
                                     esd::leadAcidUps());
    ASSERT_TRUE(plan.viable);
    EXPECT_DOUBLE_EQ(plan.offFraction, 0.0);
    EXPECT_DOUBLE_EQ(plan.deficit, 0.0);
}

TEST_F(AllocatorTest, EsdChargeHeadroomAccountsOffPeriodCmPower)
{
    // Regression for the charge-headroom bug: when the management
    // plane cannot sleep during OFF periods its draw must come out of
    // the charge budget, which lengthens the OFF fraction per Eq. 5.
    const auto &plat = defaultPlatform();
    esd::BatteryConfig esd = esd::leadAcidUps();

    // Default platform parks the uncore in PC6: full headroom.
    EsdPlan parked = allocator.esdPlan(ptrs, plat.idlePower,
                                       plat.cmPower, 80.0, esd);
    ASSERT_TRUE(parked.viable);
    EXPECT_DOUBLE_EQ(parked.chargePower,
                     std::min(80.0 - plat.idlePower,
                              esd.maxChargePower));

    // Awake management plane: headroom shrinks by P_cm, pinning the
    // corrected duty cycle (charge 80 - 50 - 20 = 10 W, not 30 W).
    EsdPlan awake = allocator.esdPlan(ptrs, plat.idlePower,
                                      plat.cmPower, 80.0, esd,
                                      plat.cmPower);
    ASSERT_TRUE(awake.viable);
    EXPECT_DOUBLE_EQ(awake.chargePower, 10.0);
    double off_over_on = awake.offFraction / (1.0 - awake.offFraction);
    EXPECT_NEAR(off_over_on,
                awake.deficit /
                    (esd.roundTripEfficiency() * awake.chargePower),
                1e-6);
    // Less charge headroom means longer OFF periods and less
    // delivered utility than the ignore-P_cm answer claimed.
    EXPECT_GT(awake.offFraction, parked.offFraction);
    EXPECT_LE(awake.objective, parked.objective + 1e-12);

    // No headroom at all once the cap only covers idle + management.
    EsdPlan starved = allocator.esdPlan(ptrs, plat.idlePower,
                                        plat.cmPower,
                                        plat.idlePower + plat.cmPower,
                                        esd, plat.cmPower);
    EXPECT_FALSE(starved.viable);
}

// --- Frontier DP, sweep sharing and the cross-event cache -----------------

/** Exhaustive noiseless curves for every library workload. */
std::vector<std::unique_ptr<UtilityCurve>>
libraryCurves(const std::vector<power::KnobSetting> &settings)
{
    const auto &plat = defaultPlatform();
    cf::Profiler prof(plat, 0.0);
    Rng rng(1);
    std::vector<std::unique_ptr<UtilityCurve>> out;
    for (const auto &profile : perf::workloadLibrary()) {
        perf::PerfModel model(plat, profile);
        std::vector<double> p, h;
        prof.measureAll(model, p, h, rng);
        out.push_back(std::make_unique<UtilityCurve>(
            profile.name, settings,
            cf::UtilityEstimator::surfaceFromRows(p, h),
            KnobFreedom::All));
    }
    return out;
}

/** Bit-for-bit equality of two allocations (the equivalence claim:
 * frontier and cached solves must reproduce the dense oracle exactly,
 * not approximately). */
void
expectSameAllocation(const Allocation &want, const Allocation &got)
{
    EXPECT_EQ(want.objective, got.objective);
    EXPECT_EQ(want.used, got.used);
    EXPECT_EQ(want.dynamicBudget, got.dynamicBudget);
    ASSERT_EQ(want.apps.size(), got.apps.size());
    for (std::size_t i = 0; i < want.apps.size(); ++i) {
        const AppAllocation &w = want.apps[i];
        const AppAllocation &g = got.apps[i];
        EXPECT_EQ(w.app, g.app);
        EXPECT_EQ(w.budget, g.budget);
        EXPECT_EQ(w.expectedPerf, g.expectedPerf);
        ASSERT_EQ(w.scheduled(), g.scheduled());
        if (w.scheduled()) {
            EXPECT_EQ(w.point->power, g.point->power);
        }
    }
}

TEST_F(AllocatorTest, FrontierMatchesDenseDpExactly)
{
    for (double budget = 4.0; budget <= 50.0; budget += 0.7) {
        SCOPED_TRACE(budget);
        expectSameAllocation(
            oracle::denseAllocate(allocator, ptrs, budget),
            allocator.allocate(ptrs, budget));
    }
}

TEST_F(AllocatorTest, EsdSweepSharingMatchesDense)
{
    const auto &plat = defaultPlatform();
    esd::BatteryConfig esd = esd::leadAcidUps();
    for (double cap : {62.0, 68.0, 70.0, 75.0, 80.0, 90.0, 110.0,
                       150.0}) {
        SCOPED_TRACE(cap);
        EsdPlan want = oracle::denseEsdPlan(
            allocator, ptrs, plat.idlePower, plat.cmPower, cap, esd);
        EsdPlan got = allocator.esdPlan(ptrs, plat.idlePower,
                                        plat.cmPower, cap, esd);
        ASSERT_EQ(want.viable, got.viable);
        EXPECT_EQ(want.objective, got.objective);
        EXPECT_EQ(want.offFraction, got.offFraction);
        EXPECT_EQ(want.deficit, got.deficit);
        EXPECT_EQ(want.chargePower, got.chargePower);
        if (want.viable)
            expectSameAllocation(want.onAllocation, got.onAllocation);
    }
}

TEST(AllocatorEquivalence, CacheMatchesDenseAcrossRandomEvents)
{
    // Replay a seeded arrival/departure/budget-change/recalibration
    // tape at k in [1, 8] and demand the cache-served allocation equal
    // the dense oracle bit-for-bit at every step.  Departures leave
    // from the front (nothing reusable), the middle (a partial prefix)
    // and the back (the whole prefix), so every reuse depth is hit.
    const auto &plat = defaultPlatform();
    auto settings = plat.knobSpace();
    auto pool = libraryCurves(settings);
    ASSERT_GE(pool.size(), 8u);

    Rng rng(20260806);
    PowerAllocator fast;
    Telemetry tel;
    fast.setTelemetry(&tel);
    AllocatorCache cache;
    std::uint64_t epoch = 1;

    std::vector<std::size_t> active = {0, 1, 2, 3};
    std::vector<std::size_t> parked;
    for (std::size_t i = 4; i < pool.size(); ++i)
        parked.push_back(i);
    double budget = 40.0;
    int front_departures = 0;
    int middle_departures = 0;

    auto depart = [&](std::size_t slot) {
        parked.push_back(active[slot]);
        active.erase(active.begin() + static_cast<long>(slot));
    };
    for (int ev = 0; ev < 240; ++ev) {
        int kind = rng.uniformInt(0, 7);
        if (kind <= 2) {
            // Arrival appends (activeIds() is id-ordered).
            if (active.size() < 8 && !parked.empty()) {
                std::size_t slot = static_cast<std::size_t>(
                    rng.uniformInt(0,
                                   static_cast<int>(parked.size()) -
                                       1));
                active.push_back(parked[slot]);
                parked.erase(parked.begin() +
                             static_cast<long>(slot));
            }
        } else if (kind <= 5) {
            // Departure from the front, the middle or a random slot.
            if (active.size() > 1) {
                std::size_t slot =
                    kind == 3   ? 0
                    : kind == 4 ? active.size() / 2
                                : static_cast<std::size_t>(
                                      rng.uniformInt(
                                          0, static_cast<int>(
                                                 active.size()) -
                                                 1));
                front_departures += slot == 0;
                middle_departures +=
                    slot > 0 && slot + 1 < active.size();
                depart(slot);
            }
        } else if (kind == 6) {
            budget = rng.uniform(
                2.0, 16.0 * static_cast<double>(active.size()));
        } else {
            ++epoch; // recalibration bumps the surface epoch
        }
        std::vector<const UtilityCurve *> curves;
        for (std::size_t ix : active)
            curves.push_back(pool[ix].get());

        SCOPED_TRACE(ev);
        Allocation want = oracle::denseAllocate(fast, curves, budget);
        expectSameAllocation(want, fast.allocate(curves, budget));
        expectSameAllocation(
            want, fast.allocate(curves, budget, &cache, epoch));
    }

    // The tape must have exercised every reuse depth, or the
    // equivalence above proved less than it claims.
    EXPECT_GT(front_departures, 10);
    EXPECT_GT(middle_departures, 10);
    EXPECT_GT(tel.counter(trace::EventId::AllocatorDpRebuilds), 0u);
    EXPECT_GT(tel.counter(trace::EventId::AllocatorDpFullHits), 0u);
    EXPECT_GT(tel.counter(trace::EventId::AllocatorDpExtends), 0u);
}

TEST(AllocatorEquivalence, CacheKeepsTheLongestCommonPrefix)
{
    // The counter each event lands on: a middle departure or an
    // arrival refolds only the apps after the common prefix, a back
    // departure folds nothing, a front departure keeps nothing.
    auto pool = libraryCurves(defaultPlatform().knobSpace());
    std::vector<const UtilityCurve *> curves;
    for (std::size_t i = 0; i < 5; ++i)
        curves.push_back(pool[i].get());
    PowerAllocator fast;
    Telemetry tel;
    fast.setTelemetry(&tel);
    AllocatorCache cache;
    auto solve = [&] {
        expectSameAllocation(oracle::denseAllocate(fast, curves, 60.0),
                             fast.allocate(curves, 60.0, &cache, 1));
    };
    auto counters = [&] {
        return std::vector<std::uint64_t>{
            tel.counter(trace::EventId::AllocatorDpFullHits),
            tel.counter(trace::EventId::AllocatorDpExtends),
            tel.counter(trace::EventId::AllocatorDpRebuilds)};
    };

    solve();
    EXPECT_EQ(counters(), (std::vector<std::uint64_t>{0, 0, 1}));
    curves.erase(curves.begin() + 2); // middle
    solve();
    EXPECT_EQ(counters(), (std::vector<std::uint64_t>{0, 1, 1}));
    curves.push_back(pool[7].get()); // arrival
    solve();
    EXPECT_EQ(counters(), (std::vector<std::uint64_t>{0, 2, 1}));
    curves.pop_back(); // back
    solve();
    EXPECT_EQ(counters(), (std::vector<std::uint64_t>{1, 2, 1}));
    curves.erase(curves.begin()); // front
    solve();
    EXPECT_EQ(counters(), (std::vector<std::uint64_t>{1, 2, 2}));
}

TEST_F(AllocatorTest, CacheInvalidatesOnEpochBump)
{
    Telemetry tel;
    PowerAllocator fast;
    fast.setTelemetry(&tel);
    AllocatorCache cache;

    Allocation first = fast.allocate(ptrs, 30.0, &cache, 1);
    EXPECT_EQ(tel.counter(trace::EventId::AllocatorDpRebuilds), 1u);

    Allocation again = fast.allocate(ptrs, 30.0, &cache, 1);
    EXPECT_EQ(tel.counter(trace::EventId::AllocatorDpFullHits), 1u);
    EXPECT_EQ(tel.counter(trace::EventId::AllocatorDpRebuilds), 1u);
    expectSameAllocation(first, again);

    // A recalibration epoch invalidates everything cached.
    Allocation bumped = fast.allocate(ptrs, 30.0, &cache, 2);
    EXPECT_EQ(tel.counter(trace::EventId::AllocatorDpRebuilds), 2u);
    expectSameAllocation(first, bumped);

    // Epoch 0 means no epoch discipline: the cache must be bypassed,
    // not trusted.
    fast.allocate(ptrs, 30.0, &cache, 0);
    EXPECT_EQ(tel.counter(trace::EventId::AllocatorDpRebuilds), 2u);
    EXPECT_EQ(tel.counter(trace::EventId::AllocatorDpFullHits), 1u);
}

TEST_F(AllocatorTest, SlackUpgradeKeepsGrantedBudget)
{
    // Regression for the slack-pass bug that overwrote an app's grant
    // with its operating point's draw: every chosen point must fit
    // inside the granted budget (a slack upgrade widens the grant, it
    // never shrinks it below the draw), and `used` stays the sum of
    // actual draws.
    for (double budget : {8.0, 12.0, 20.0, 29.4, 45.0}) {
        SCOPED_TRACE(budget);
        Allocation alloc = allocator.allocate(ptrs, budget);
        double draw = 0.0;
        for (const auto &a : alloc.apps) {
            if (!a.scheduled())
                continue;
            EXPECT_LE(a.point->power, a.budget + 1e-9);
            draw += a.point->power;
        }
        EXPECT_NEAR(alloc.used, draw, 1e-9);
        EXPECT_LE(alloc.used, budget + 1e-6);
    }
}

TEST(AllocatorTemporal, WeightedFloorSurvivesRenormalization)
{
    // Two single-point curves with a 6x perf-per-watt spread: the old
    // floor-then-renormalize scheme diluted the weak app back below
    // the floor (~0.26 here); the water-fill must hold it at exactly
    // floor/n and hand the remainder to the strong app.
    const auto &plat = defaultPlatform();
    std::vector<power::KnobSetting> one = {plat.knobSpace().front()};
    UtilityCurve strong("strong", one,
                        cf::UtilityEstimator::surfaceFromRows(
                            {5.0}, {1000.0}),
                        KnobFreedom::All);
    UtilityCurve weak("weak", one,
                      cf::UtilityEstimator::surfaceFromRows(
                          {30.0}, {90.0}),
                      KnobFreedom::All);
    std::vector<const UtilityCurve *> pair = {&strong, &weak};

    AllocatorConfig cfg;
    cfg.shareFloor = 0.6;
    PowerAllocator floored(cfg);
    TemporalPlan plan =
        floored.temporalPlan(pair, 35.0, ShareMode::UtilityWeighted);
    ASSERT_EQ(plan.slots.size(), 2u);
    double total = 0.0;
    for (const auto &s : plan.slots) {
        EXPECT_GE(s.share, 0.6 / 2.0 - 1e-9) << s.app;
        total += s.share;
        if (s.app == "weak")
            EXPECT_NEAR(s.share, 0.3, 1e-9);
        else
            EXPECT_NEAR(s.share, 0.7, 1e-9);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

} // namespace
} // namespace psm::core
