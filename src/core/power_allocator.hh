/**
 * @file
 * The PowerAllocator: apportions the server's dynamic power budget
 * across applications (R1) and, through each application's utility
 * frontier, across its direct resources (R2) — the optimization of
 * Eq. 1 subject to Eq. 2.
 *
 * Allocation is a discrete knapsack over per-application Pareto
 * frontiers, solved by dynamic programming at sub-watt granularity,
 * followed by a greedy pass that hands any slack to the application
 * with the best marginal utility.  The DP transition only inspects
 * the bucket thresholds where a frontier point first becomes
 * affordable (P points instead of B buckets per cell — bit-identical
 * to the dense O(k·B²) scan, which lives on as the test oracle in
 * tests/allocator_oracle.hh), and an optional AllocatorCache keeps
 * the prefix tables of the last solve so the next E1–E4 event only
 * folds the apps after the longest common prefix.
 *
 * Besides the spatial allocation it also produces the two temporal
 * plans the Coordinator needs: alternate duty-cycle slots (R3b) and
 * the ESD-assisted consolidated plan with the Eq. 5 duty ratio (R4).
 */

#ifndef PSM_CORE_POWER_ALLOCATOR_HH
#define PSM_CORE_POWER_ALLOCATOR_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "esd/battery.hh"
#include "power/platform.hh"
#include "telemetry.hh"
#include "utility_curve.hh"
#include "util/units.hh"

namespace psm::core
{

/** The allocator's verdict for one application. */
struct AppAllocation
{
    std::string app;       ///< application name
    Watts budget = 0.0;    ///< granted power budget P_X
    /** Chosen operating point; nullopt when the app got nothing. */
    std::optional<UtilityPoint> point;
    double expectedPerf = 0.0; ///< perfNorm the point should deliver

    bool scheduled() const { return point.has_value(); }
};

/** A complete spatial allocation. */
struct Allocation
{
    std::vector<AppAllocation> apps;
    Watts dynamicBudget = 0.0; ///< budget that was divided
    Watts used = 0.0;          ///< sum of granted app power
    double objective = 0.0;    ///< sum of expected perfNorm (Eq. 1)

    /** True when every application received a feasible point. */
    bool allScheduled() const;
};

/** One application's slot in an alternate duty-cycle schedule. */
struct TemporalSlot
{
    std::string app;
    UtilityPoint point;  ///< operating point during the ON period
    double share = 0.0;  ///< fraction of wall-clock time ON
};

/** A temporal (alternate duty-cycling) plan. */
struct TemporalPlan
{
    std::vector<TemporalSlot> slots;
    double objective = 0.0; ///< sum share * perfNorm
    /** Apps that cannot run even alone within the budget. */
    std::vector<std::string> unschedulable;
};

/** An ESD-assisted consolidated duty-cycle plan (R4). */
struct EsdPlan
{
    Allocation onAllocation; ///< spatial allocation during ON periods
    double offFraction = 0.0; ///< (d2-d1)/(d3-d1) from Eq. 5
    Watts deficit = 0.0;      ///< draw above cap during ON, from ESD
    Watts chargePower = 0.0;  ///< wall power into ESD during OFF
    double objective = 0.0;   ///< onFraction * sum perfNorm
    bool viable = false;      ///< a positive-throughput plan exists
};

/** How duty-cycle ON-time shares are chosen. */
enum class ShareMode
{
    Equal,          ///< fair alternate duty cycling (the baselines)
    UtilityWeighted, ///< shares follow perf-per-watt, with a floor
};

/** Allocator tuning. */
struct AllocatorConfig
{
    Watts granularity = 0.25;   ///< DP watt quantum
    double shareFloor = 0.25;   ///< min ON share under UtilityWeighted
    /** Candidate ON-budget steps searched when planning with ESD. */
    Watts esdSearchStep = 1.0;
    /**
     * When the budget covers every application's cheapest frontier
     * point, reserve those minima before optimizing (Eq. 1 weighs
     * apps evenly — nobody starves while spatial coordination is
     * feasible).  Disable for policies whose enforcement can throttle
     * below the frontier's floor (RAPL clock modulation), where the
     * curve minimum is not a real hardware minimum.
     */
    bool reserveMinima = true;
};

/**
 * Cross-event DP state for incremental re-allocation.
 *
 * The spatial knapsack is re-solved on every E1–E4 event, yet between
 * events the app sequence usually keeps a long common prefix: arrivals
 * append (admission ids ascend) and a departure only disturbs the apps
 * after it.  The cache keeps the prefix tables pre[i] (apps [0,i)
 * folded left-to-right) and, per app, the (name, reserve) pair its
 * row was folded with.  A solve truncates the tables at the longest
 * common prefix of the cached and the new sequence, folds the
 * remaining apps and walks the choices back.  Row pre[i] at bucket b
 * depends only on apps [0,i) and not on the table width, so a kept row
 * is exactly what a fresh fold computes and cached grants equal an
 * uncached solve's bit for bit, ties included.
 *
 * Tables are built a little wider than the current bucket count so a
 * departure's freed reserve minimum (which re-enters the headroom)
 * still lands inside them.  Validity is keyed on the owner's
 * surface-cache epoch: any recalibration that replaces a live curve
 * must bump the epoch or the cache serves stale frontiers.
 */
class AllocatorCache
{
    friend class PowerAllocator;

    /** The identity one prefix row was folded with. */
    struct AppEntry
    {
        std::string name;
        Watts reserve = 0.0;
    };

    bool valid = false;
    std::uint64_t epoch = 0;
    Watts granularity = 0.0;
    std::size_t buckets = 0; ///< table width (includes the pad)
    std::vector<AppEntry> apps;
    /** pre[i][b]: best objective of apps [0,i) within b buckets. */
    std::vector<std::vector<double>> pre;
    std::vector<std::vector<std::size_t>> preChoice;
};

/**
 * Stateless allocator over utility frontiers.  All cross-event state
 * lives in a caller-owned AllocatorCache; the allocator itself can be
 * constructed freely per decision.
 */
class PowerAllocator
{
  public:
    explicit PowerAllocator(AllocatorConfig config = {});

    const AllocatorConfig &config() const { return cfg; }

    /** Attach a telemetry bus (nullptr detaches). */
    void setTelemetry(Telemetry *telemetry) { tel = telemetry; }

    /**
     * Utility-optimal split of @p dynamic_budget across @p curves
     * (DP + greedy slack pass).  Applications whose cheapest point
     * does not fit may end up unscheduled (budget 0).  With a
     * @p cache, only the apps after the longest common prefix with
     * the cached sequence are folded; the grants are the same.
     * @p epoch is the owner's surface-cache epoch; the cache is
     * invalid the moment it changes.  epoch 0 means "no epoch
     * discipline available" and bypasses the cache entirely.
     */
    Allocation allocate(const std::vector<const UtilityCurve *> &curves,
                        Watts dynamic_budget,
                        AllocatorCache *cache = nullptr,
                        std::uint64_t epoch = 0) const;

    /**
     * The Util-Unaware baseline's split: every application gets an
     * equal share regardless of utility.
     */
    Allocation
    equalSplit(const std::vector<const UtilityCurve *> &curves,
               Watts dynamic_budget) const;

    /**
     * Alternate duty-cycle plan: one application ON at a time, each
     * using the whole @p on_budget during its slot.
     */
    TemporalPlan
    temporalPlan(const std::vector<const UtilityCurve *> &curves,
                 Watts on_budget, ShareMode mode) const;

    /**
     * ESD-assisted consolidated plan: all applications ON together
     * above the cap, bridged by the battery, alternating with
     * all-off charge periods per Eq. 5.
     *
     * @param idle_power P_idle of the platform.
     * @param cm_power P_cm of the platform.
     * @param cap The server power cap.
     * @param esd The battery's static parameters.
     * @param off_cm_power Management power still drawn during OFF
     *        (charge) periods.  0 on platforms whose uncore parks in
     *        PC6 once every core sleeps (the default platform — its
     *        OFF draw is P_idle alone, matching the paper's §II-C
     *        headroom example); set to the platform's P_cm when the
     *        management plane stays awake while charging, where
     *        ignoring it would understate Eq. 5's off/on ratio and
     *        overstate the plan objective.
     */
    EsdPlan esdPlan(const std::vector<const UtilityCurve *> &curves,
                    Watts idle_power, Watts cm_power, Watts cap,
                    const esd::BatteryConfig &esd,
                    Watts off_cm_power = 0.0) const;

    /** Per-app reserved minima plus the headroom's bucket count. */
    struct ReservePlan
    {
        std::vector<Watts> reserve;
        std::size_t buckets = 0;
    };

    /**
     * The two halves around the DP, public so a reference solver (the
     * dense oracle of the tests) brackets its own DP exactly as
     * allocate() does: the reserve-minima split of @p dynamic_budget,
     * and the allocation built from per-app granted watts (bestWithin
     * + slack pass + objective/used rollup, with the point<=budget
     * invariant asserted).
     */
    ReservePlan
    reservePlan(const std::vector<const UtilityCurve *> &curves,
                Watts dynamic_budget) const;

    Allocation
    buildAllocation(const std::vector<const UtilityCurve *> &curves,
                    const std::vector<Watts> &granted,
                    Watts dynamic_budget) const;

  private:
    /** Per-app DP choices, choice[i][b] = buckets given to app i. */
    using Choices = std::vector<std::vector<std::size_t>>;

    AllocatorConfig cfg;
    Telemetry *tel = nullptr;

    /** Fold every app left-to-right over rp.buckets buckets. */
    Choices foldAll(const std::vector<const UtilityCurve *> &curves,
                    const ReservePlan &rp) const;

    /** Walk @p choice back from rp.buckets into granted watts. */
    std::vector<Watts> grants(const Choices &choice,
                              const ReservePlan &rp) const;

    /** Longest-common-prefix solve against @p cache. */
    Allocation
    solveCached(const std::vector<const UtilityCurve *> &curves,
                Watts dynamic_budget, const ReservePlan &rp,
                AllocatorCache &cache, std::uint64_t epoch) const;

    /** Greedy upgrade pass distributing DP slack.  Bounded: a
     * non-monotonic marginal-utility corner case cannot spin forever
     * (guard trips are counted on the telemetry bus). */
    void distributeSlack(const std::vector<const UtilityCurve *> &curves,
                         Allocation &alloc) const;
};

} // namespace psm::core

#endif // PSM_CORE_POWER_ALLOCATOR_HH
