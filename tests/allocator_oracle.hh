/**
 * @file
 * The dense reference solver for core::PowerAllocator, shared by the
 * allocator tests (tests/test_allocator.cc) and the
 * `bench_allocator --check` tripwire.
 *
 * denseAllocate() is the per-bucket knapsack: a perfAt() table for
 * every app and an O(B²) scan per app, O(k·B²) per solve.
 * denseEsdPlan() re-solves that knapsack for every candidate ON budget
 * of the ESD sweep.  Production code replaced both with the frontier
 * transition and one shared sweep table; these stay as the oracle the
 * fast paths must match bit for bit, smallest-x tie-breaks included.
 * They share only the reserve split and the grant → allocation step
 * with production (PowerAllocator::reservePlan / buildAllocation).
 */

#ifndef PSM_TESTS_ALLOCATOR_ORACLE_HH
#define PSM_TESTS_ALLOCATOR_ORACLE_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/power_allocator.hh"
#include "esd/battery.hh"

namespace psm::oracle
{

/** The dense O(k·B²) DP, bracketed exactly as allocate() is. */
inline core::Allocation
denseAllocate(const core::PowerAllocator &alloc,
              const std::vector<const core::UtilityCurve *> &curves,
              Watts dynamic_budget)
{
    const Watts gran = alloc.config().granularity;
    auto rp = alloc.reservePlan(curves, dynamic_budget);
    std::size_t k = curves.size();
    std::size_t buckets = rp.buckets;

    std::vector<std::vector<double>> perf(k);
    for (std::size_t i = 0; i < k; ++i) {
        perf[i].resize(buckets + 1);
        for (std::size_t b = 0; b <= buckets; ++b) {
            perf[i][b] = curves[i]->perfAt(
                rp.reserve[i] + static_cast<double>(b) * gran);
        }
    }
    std::vector<double> dp(buckets + 1, 0.0);
    std::vector<std::vector<std::size_t>> choice(
        k, std::vector<std::size_t>(buckets + 1, 0));
    for (std::size_t i = 0; i < k; ++i) {
        std::vector<double> next(buckets + 1, 0.0);
        for (std::size_t b = 0; b <= buckets; ++b) {
            double best = -1.0;
            std::size_t best_x = 0;
            for (std::size_t x = 0; x <= b; ++x) {
                double v = dp[b - x] + perf[i][x];
                if (v > best) {
                    best = v;
                    best_x = x;
                }
            }
            next[b] = best;
            choice[i][b] = best_x;
        }
        dp = std::move(next);
    }

    std::vector<Watts> granted(k, 0.0);
    std::size_t b = buckets;
    for (std::size_t ii = k; ii-- > 0;) {
        std::size_t x = choice[ii][b];
        granted[ii] = rp.reserve[ii] + static_cast<double>(x) * gran;
        b -= x;
    }
    return alloc.buildAllocation(curves, granted, dynamic_budget);
}

/** esdPlan() with one dense allocation per candidate ON budget. */
inline core::EsdPlan
denseEsdPlan(const core::PowerAllocator &alloc,
             const std::vector<const core::UtilityCurve *> &curves,
             Watts idle_power, Watts cm_power, Watts cap,
             const esd::BatteryConfig &esd, Watts off_cm_power = 0.0)
{
    core::EsdPlan best;
    if (curves.empty() || cap <= idle_power + off_cm_power)
        return best;
    Watts charge = std::min(cap - idle_power - off_cm_power,
                            esd.maxChargePower);
    double eta = esd.roundTripEfficiency();
    Watts lo = 0.0;
    Watts hi = 0.0;
    for (const auto *c : curves) {
        lo += c->minPower();
        hi += c->maxPower();
    }
    const Watts step = alloc.config().esdSearchStep;
    auto sweep = static_cast<std::size_t>(
        std::floor((hi - lo + 1e-9) / step)) + 1;

    for (std::size_t bucket = 0; bucket < sweep; ++bucket) {
        Watts budget = lo + static_cast<double>(bucket) * step;
        core::Allocation a = denseAllocate(alloc, curves, budget);
        if (!a.allScheduled())
            continue;
        Watts deficit = idle_power + cm_power + a.used - cap;
        double on_fraction = 1.0;
        if (deficit <= 0.0) {
            deficit = 0.0;
        } else {
            if (deficit > esd.maxDischargePower)
                continue;
            on_fraction = 1.0 / (1.0 + deficit / (eta * charge));
        }
        double objective = on_fraction * a.objective;
        if (objective > best.objective) {
            best.onAllocation = std::move(a);
            best.offFraction = 1.0 - on_fraction;
            best.deficit = deficit;
            best.chargePower = charge;
            best.objective = objective;
            best.viable = true;
        }
    }
    return best;
}

} // namespace psm::oracle

#endif // PSM_TESTS_ALLOCATOR_ORACLE_HH
