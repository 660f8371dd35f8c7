#include "policy_registry.hh"

#include <memory>

#include "policy_cuttlesys.hh"
#include "policy_fastcap.hh"
#include "util/logging.hh"

namespace psm::core
{

PolicyRegistry::PolicyRegistry()
{
    // The five paper policies (Sections IV-A/IV-B).  Flags are
    // {appAware, resAware, usesEsd, raplEnforced}.
    add({PolicyKind::UtilUnaware, "Util-Unaware", "util-unaware",
         {false, false, false, false}, nullptr});
    add({PolicyKind::ServerResAware, "Server+Res-Aware",
         "server-res-aware", {false, true, false, false}, nullptr});
    add({PolicyKind::AppAware, "App-Aware", "app-aware",
         {true, false, false, true}, nullptr});
    add({PolicyKind::AppResAware, "App+Res-Aware", "app-res-aware",
         {true, true, false, false}, nullptr});
    add({PolicyKind::AppResEsdAware, "App+Res+ESD-Aware",
         "app-res-esd-aware", {true, true, true, false}, nullptr});

    // The rival allocators of the policy arena.  Both learn full
    // (f, n, m) frontiers but replace the exact DP with their own
    // optimization; neither considers ESD plans.
    add({PolicyKind::FastCapFair, "FastCap", "fastcap",
         {true, true, false, false},
         [] { return std::make_unique<FastCapPlanner>(); }});
    add({PolicyKind::CuttleSysSearch, "CuttleSys", "cuttlesys",
         {true, true, false, false},
         [] { return std::make_unique<CuttleSysPlanner>(); }});
}

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry registry;
    return registry;
}

const PolicyInfo *
PolicyRegistry::find(PolicyKind kind) const
{
    for (const PolicyInfo &info : entries)
        if (info.kind == kind)
            return &info;
    return nullptr;
}

const PolicyInfo &
PolicyRegistry::infoFor(PolicyKind kind) const
{
    const PolicyInfo *info = find(kind);
    if (!info)
        panic("invalid PolicyKind %d", static_cast<int>(kind));
    return *info;
}

const PolicyInfo *
PolicyRegistry::findName(const std::string &cli_name) const
{
    for (const PolicyInfo &info : entries)
        if (info.cliName == cli_name)
            return &info;
    return nullptr;
}

const PolicyInfo *
PolicyRegistry::findWireId(std::uint8_t wire_id) const
{
    return find(static_cast<PolicyKind>(wire_id));
}

std::string
PolicyRegistry::cliNames() const
{
    std::string names;
    for (const PolicyInfo &info : entries) {
        if (!names.empty())
            names += '|';
        names += info.cliName;
    }
    return names;
}

void
PolicyRegistry::add(PolicyInfo info)
{
    if (find(info.kind)) {
        panic("policy kind %d registered twice",
              static_cast<int>(info.kind));
    }
    for (const PolicyInfo &e : entries) {
        if (e.name == info.name || e.cliName == info.cliName) {
            panic("policy name '%s'/'%s' registered twice",
                  info.name.c_str(), info.cliName.c_str());
        }
    }
    entries.push_back(std::move(info));
}

} // namespace psm::core
