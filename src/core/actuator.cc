#include "actuator.hh"

#include <algorithm>

#include "policy_registry.hh"
#include "util/logging.hh"

namespace psm::core
{

Actuator::Actuator(sim::Server &server, Coordinator &coordinator,
                   Accountant &accountant, Telemetry *telemetry)
    : srv(server), coord(coordinator), acct(accountant), tel(telemetry)
{
}

void
Actuator::forget(int id)
{
    dram_demand.erase(id);
}

void
Actuator::holdForCalibration(const std::vector<int> &ids)
{
    const power::PlatformConfig &plat = srv.platform();
    for (int id : ids) {
        sim::Application &app = srv.app(id);
        app.setKnobs(plat.minSetting());
        app.resume(srv.now());
        acct.setAllocatedPower(id, 0.0);
    }
}

Watts
Actuator::dramDemandEstimate(int id)
{
    // Remember each application's DRAM appetite across duty-cycle OFF
    // periods (the instantaneous RAPL window forgets in ~10 ms): grow
    // immediately when more draw is observed, decay slowly otherwise.
    Watts obs = srv.observedAppDramPower(id);
    auto [it, inserted] = dram_demand.try_emplace(
        id, srv.platform().dramPowerMin);
    if (obs > it->second)
        it->second = obs;
    else if (obs > 0.5)
        it->second = std::max(it->second * 0.99, obs);
    return it->second;
}

Directive
Actuator::raplDirective(int id, Watts app_budget)
{
    const power::PlatformConfig &plat = srv.platform();
    Directive d;
    d.appId = id;
    d.useRapl = true;

    // Split the app budget between the DRAM and package domains the
    // way a demand-following RAPL controller would: give DRAM its
    // tracked demand plus ratchet headroom (so a throttled channel can
    // reveal more appetite), the rest to the package.
    Watts demand = dramDemandEstimate(id);
    Watts dram_limit =
        std::clamp(demand * 1.25 + 0.25, plat.dramPowerMin,
                   std::min(plat.dramPowerMax,
                            std::max(app_budget - 0.5,
                                     plat.dramPowerMin)));
    d.knobs = plat.maxSetting();
    d.knobs.dramPower = dram_limit;
    // The package gets the budget minus the *expected* DRAM draw
    // (the limit only carries ratchet headroom above it).
    Watts expected_dram = std::min(demand, dram_limit);
    d.packageLimit = std::max(app_budget - expected_dram, 0.5);
    return d;
}

Directive
Actuator::blindRaplDirective(int id, Watts app_budget)
{
    // The utility-unaware baseline's enforcement: leave the DRAM
    // domain at its default limit unless the budget is so small that
    // even a fully-drawn channel would blow it, and cap the package
    // at budget minus the *measured* DRAM draw — pure accounting, no
    // notion of where a watt is worth more.
    const power::PlatformConfig &plat = srv.platform();
    Directive d;
    d.appId = id;
    d.useRapl = true;
    d.knobs = plat.maxSetting();
    d.knobs.dramPower = std::clamp(app_budget - 1.5,
                                   plat.dramPowerMin,
                                   plat.dramPowerMax);
    Watts dram_obs = std::max(srv.observedAppDramPower(id),
                              plat.dramPowerMin);
    d.packageLimit = std::max(app_budget - dram_obs, 0.5);
    return d;
}

Directive
Actuator::directiveFor(int id, const AppAllocation &alloc)
{
    Directive d;
    d.appId = id;
    psm_assert(alloc.point.has_value());
    d.knobs = alloc.point->setting;
    return d;
}

int
Actuator::idForApp(const std::vector<int> &ids,
                   const std::string &name) const
{
    for (int id : ids)
        if (srv.app(id).name() == name)
            return id;
    panic("temporal plan names unknown app '%s'", name.c_str());
}

void
Actuator::executeUncapped(const std::vector<int> &ids)
{
    std::vector<Directive> directives;
    for (int id : ids) {
        Directive d;
        d.appId = id;
        d.knobs = srv.platform().maxSetting();
        directives.push_back(d);
        acct.setAllocatedPower(id, 0.0);
    }
    coord.coordinateSpace(srv, directives);
}

void
Actuator::executeSpatialUtility(const std::vector<int> &ids,
                                const Allocation &alloc,
                                PolicyKind policy)
{
    psm_assert(ids.size() == alloc.apps.size());
    // RAPL-enforced policies (App-Aware) use utilities only to
    // *split* the budget; within an application they enforce the
    // grant with the default hardware knob (RAPL), not per-resource
    // apportioning.
    bool rapl_enforced =
        PolicyRegistry::instance().infoFor(policy).caps.raplEnforced;
    std::vector<Directive> directives;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        psm_assert(alloc.apps[i].scheduled());
        if (rapl_enforced) {
            directives.push_back(blindRaplDirective(
                ids[i], alloc.apps[i].point->power));
        } else {
            directives.push_back(directiveFor(ids[i], alloc.apps[i]));
        }
        acct.setAllocatedPower(ids[i], alloc.apps[i].point->power);
    }
    coord.coordinateSpace(srv, directives);
    last_alloc = alloc;
}

void
Actuator::executeFairRaplSpace(const std::vector<int> &ids, Watts share)
{
    std::vector<Directive> directives;
    for (int id : ids) {
        directives.push_back(blindRaplDirective(id, share));
        acct.setAllocatedPower(id, share);
    }
    coord.coordinateSpace(srv, directives);
}

void
Actuator::executeFairRaplTime(const std::vector<int> &ids, Watts budget,
                              bool demand_following)
{
    std::vector<Directive> directives;
    std::vector<double> shares;
    for (int id : ids) {
        directives.push_back(demand_following
                                 ? raplDirective(id, budget)
                                 : blindRaplDirective(id, budget));
        shares.push_back(1.0 / static_cast<double>(ids.size()));
        acct.setAllocatedPower(id, 0.0);
    }
    coord.coordinateTime(srv, std::move(directives),
                         std::move(shares));
}

void
Actuator::executeServerAvg(const PlanDecision &d,
                           const std::vector<int> &ids)
{
    psm_assert(d.avgPoint.has_value());
    const UtilityPoint &point = *d.avgPoint;
    if (d.choice == PlanChoice::ServerAvgSpace) {
        // Knobs from the server-average utilities, but the equal
        // share is enforced strictly with a package RAPL backstop —
        // this policy has no per-application knowledge to justify
        // letting one app spend another's unused share.
        std::vector<Directive> directives;
        for (int id : ids) {
            Directive dir;
            dir.appId = id;
            dir.useRapl = true;
            dir.knobs = point.setting;
            dir.packageLimit = std::max(
                d.perAppBudget - point.setting.dramPower, 0.5);
            directives.push_back(dir);
            acct.setAllocatedPower(id, d.perAppBudget);
        }
        coord.coordinateSpace(srv, directives);
        return;
    }
    std::vector<Directive> directives;
    std::vector<double> shares;
    for (int id : ids) {
        Directive dir;
        dir.appId = id;
        dir.knobs = point.setting;
        directives.push_back(dir);
        shares.push_back(1.0 / static_cast<double>(ids.size()));
        acct.setAllocatedPower(id, 0.0);
    }
    coord.coordinateTime(srv, std::move(directives),
                         std::move(shares));
}

void
Actuator::executeTemporalUtility(const TemporalPlan &plan,
                                 const std::vector<int> &ids,
                                 PolicyKind policy)
{
    // Suspend applications that cannot run even alone at this cap.
    for (const auto &name : plan.unschedulable) {
        srv.app(idForApp(ids, name)).suspend(srv.now());
        if (tel)
            tel->count(trace::EventId::ActuatorSuspendedUnschedulable);
    }

    bool rapl_enforced =
        PolicyRegistry::instance().infoFor(policy).caps.raplEnforced;
    std::vector<Directive> directives;
    std::vector<double> shares;
    for (const auto &slot : plan.slots) {
        int id = idForApp(ids, slot.app);
        if (rapl_enforced) {
            directives.push_back(
                blindRaplDirective(id, slot.point.power));
        } else {
            Directive d;
            d.appId = id;
            d.knobs = slot.point.setting;
            directives.push_back(d);
        }
        shares.push_back(slot.share);
        acct.setAllocatedPower(id, 0.0);
    }
    coord.coordinateTime(srv, std::move(directives),
                         std::move(shares));
}

void
Actuator::executeEsd(const EsdPlan &plan, const std::vector<int> &ids)
{
    std::vector<Directive> directives;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        psm_assert(plan.onAllocation.apps[i].scheduled());
        directives.push_back(
            directiveFor(ids[i], plan.onAllocation.apps[i]));
        acct.setAllocatedPower(ids[i], 0.0);
    }
    coord.coordinateEsd(srv, std::move(directives), plan.offFraction);
    last_alloc = plan.onAllocation;
}

void
Actuator::execute(const PlanDecision &d, const std::vector<int> &all,
                  const std::vector<int> &ready, PolicyKind policy)
{
    switch (d.choice) {
      case PlanChoice::Idle:
        coord.idle(srv);
        break;
      case PlanChoice::CalibrationOnly:
        // Calibrating apps were already held conservatively; there is
        // nothing else to actuate.
        break;
      case PlanChoice::UncappedRun:
        executeUncapped(all);
        break;
      case PlanChoice::SpatialUtility:
        executeSpatialUtility(ready, d.alloc, policy);
        break;
      case PlanChoice::FairRaplSpace:
        executeFairRaplSpace(ready, d.perAppBudget);
        break;
      case PlanChoice::FairRaplTime:
        executeFairRaplTime(ready, d.perAppBudget,
                            d.demandFollowingRapl);
        break;
      case PlanChoice::ServerAvgSpace:
      case PlanChoice::ServerAvgTime:
        executeServerAvg(d, ready);
        break;
      case PlanChoice::TemporalUtility:
        executeTemporalUtility(d.temporal, ready, policy);
        break;
      case PlanChoice::EsdAssisted:
        executeEsd(d.esd, ready);
        break;
    }
    acct.setDriftDetection(d.driftDetection);
}

} // namespace psm::core
