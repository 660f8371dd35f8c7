#include "layers.hh"

#include <memory>

#include "cf/estimator.hh"
#include "cf/profiler.hh"
#include "cf/sampler.hh"
#include "core/power_allocator.hh"
#include "core/utility_curve.hh"
#include "esd/battery.hh"
#include "net/frame.hh"
#include "net/message_reader.hh"
#include "perf/perf_model.hh"
#include "perf/workloads.hh"
#include "sim/server.hh"
#include "util/random.hh"

namespace perfbench
{

namespace
{

using namespace psm;

/** Calls per span for operations far below a microsecond. */
constexpr int kBatch = 64;

/** Median per-call cost in ns of spans named @p name over kBatch calls. */
double
batchedNs(const Tracer &t, const char *name)
{
    return median(t.durationsUs(name)) * 1e3 / kBatch;
}

cf::UtilitySurface
oracleSurface(const perf::AppProfile &profile)
{
    const auto &plat = power::defaultPlatform();
    cf::Profiler prof(plat, 0.0);
    perf::PerfModel model(plat, profile);
    Rng rng(1);
    std::vector<double> p, h;
    prof.measureAll(model, p, h, rng);
    return cf::UtilityEstimator::surfaceFromRows(p, h);
}

/** A profile with effectively endless work, as cluster replays use. */
perf::AppProfile
endless(const std::string &name)
{
    perf::AppProfile p = perf::workload(name);
    if (!p.interactive())
        p.totalHeartbeats *= 1000.0;
    return p;
}

} // namespace

void
probeNetCodec(const std::vector<serve::EventRequest> &requests,
              Tracer &tracer, RunResult &out)
{
    std::vector<std::vector<std::uint8_t>> wire;
    wire.reserve(requests.size());
    std::uint32_t id = 1;
    for (std::size_t i = 0; i + kBatch <= requests.size(); i += kBatch) {
        SpanScope s(tracer, "net.encode");
        for (int k = 0; k < kBatch; ++k) {
            std::vector<std::uint8_t> bytes;
            net::encodeFrame(net::FrameType::Event, id++,
                             serve::encodeEventRequest(requests[i + k]),
                             bytes);
            wire.push_back(std::move(bytes));
        }
    }
    net::FrameReader reader;
    std::size_t decoded = 0;
    for (std::size_t i = 0; i + kBatch <= wire.size(); i += kBatch) {
        SpanScope s(tracer, "net.decode");
        for (int k = 0; k < kBatch; ++k) {
            reader.feed(wire[i + k]);
            net::Frame frame;
            serve::EventRequest ev;
            if (reader.next(frame) == net::DecodeResult::Frame &&
                serve::decodeEventRequest(frame.payload, ev))
                ++decoded;
        }
    }
    if (decoded != wire.size())
        out.fail("net codec round trip lost a request");
    out.layers["net.encode_event_ns"] = {batchedNs(tracer, "net.encode"), "ns"};
    out.layers["net.decode_event_ns"] = {batchedNs(tracer, "net.decode"), "ns"};
    out.info["net.codec_requests"] = std::to_string(wire.size());
}

void
probeCore(const std::vector<AppPair> &pairs, const std::vector<double> &caps,
          Tracer &tracer, RunResult &out)
{
    const auto &plat = power::defaultPlatform();
    auto settings = plat.knobSpace();
    core::PowerAllocator allocator;
    esd::BatteryConfig ups = esd::leadAcidUps();
    double objective = 0.0;
    for (const AppPair &apps : pairs) {
        perf::AppProfile pa = endless(apps.first), pb = endless(apps.second);
        cf::UtilitySurface sa = oracleSurface(pa), sb = oracleSurface(pb);
        core::InteractiveSlo slo_a = core::InteractiveSlo::fromProfile(pa);
        core::InteractiveSlo slo_b = core::InteractiveSlo::fromProfile(pb);
        std::unique_ptr<core::UtilityCurve> ca, cb;
        for (int rep = 0; rep < 8; ++rep) {
            SpanScope s(tracer, "core.curve_build");
            ca = std::make_unique<core::UtilityCurve>(
                pa.name, settings, sa, core::KnobFreedom::All, &plat,
                slo_a.valid() ? &slo_a : nullptr);
            cb = std::make_unique<core::UtilityCurve>(
                pb.name, settings, sb, core::KnobFreedom::All, &plat,
                slo_b.valid() ? &slo_b : nullptr);
        }
        std::vector<const core::UtilityCurve *> curves = {ca.get(),
                                                          cb.get()};
        for (double cap : caps) {
            double dynamic = cap - plat.idlePower - plat.cmPower;
            if (dynamic <= 0.0)
                continue;
            {
                SpanScope s(tracer, "core.allocate");
                objective += allocator.allocate(curves, dynamic).objective;
            }
            {
                SpanScope s(tracer, "core.esd_plan");
                objective += allocator
                                 .esdPlan(curves, plat.idlePower,
                                          plat.cmPower, cap, ups)
                                 .objective;
            }
        }
    }
    // Two curves per span.
    out.layers["core.curve_build_us"] = {
        median(tracer.durationsUs("core.curve_build")) / 2.0, "us"};
    out.layers["core.allocate_us"] = {median(tracer.durationsUs("core.allocate")),
                                      "us"};
    out.layers["core.esd_plan_us"] = {median(tracer.durationsUs("core.esd_plan")),
                                      "us"};
    out.info["core.probe_objective_sum"] = std::to_string(objective);
    out.info["core.allocate_samples"] =
        std::to_string(tracer.durationsUs("core.allocate").size());
}

void
probeCf(double fraction, std::uint64_t seed, Tracer &tracer, RunResult &out)
{
    const auto &plat = power::defaultPlatform();
    const auto &lib = perf::workloadLibrary();
    cf::Profiler profiler(plat, 0.0);
    Rng rng(seed);
    std::vector<std::vector<double>> pw(lib.size()), hb(lib.size());
    for (std::size_t i = 0; i < lib.size(); ++i) {
        perf::PerfModel model(plat, lib[i]);
        profiler.measureAll(model, pw[i], hb[i], rng);
    }
    cf::Sampler sampler(plat);
    cf::Profiler noisy(plat, 0.02);
    std::vector<double> wall_ms, cpu_ms;
    for (std::size_t target = 0; target < lib.size(); ++target) {
        cf::UtilityEstimator est(plat);
        for (std::size_t i = 0; i < lib.size(); ++i) {
            if (i != target)
                est.addCorpusApp(lib[i].name, pw[i], hb[i]);
        }
        perf::PerfModel model(plat, lib[target]);
        auto samples = noisy.measure(model, sampler.select(fraction, rng), rng);
        double c0 = processCpuSeconds();
        auto t0 = Clock::now();
        SpanScope span(tracer, "cf.estimate");
        cf::UtilitySurface s = est.estimate(samples);
        wall_ms.push_back(secondsSince(t0) * 1e3);
        cpu_ms.push_back((processCpuSeconds() - c0) * 1e3);
        if (s.power.empty())
            out.fail("cf estimate returned an empty surface");
    }
    out.layers["cf.estimate_ms"] = {median(wall_ms), "ms"};
    out.layers["cf.estimate_cpu_ms"] = {median(cpu_ms), "ms"};
}

void
probeSimStep(const std::vector<AppPair> &pairs, Tracer &tracer,
             RunResult &out)
{
    double watts = 0.0;
    for (const AppPair &apps : pairs) {
        sim::Server server;
        server.admit(endless(apps.first));
        server.admit(endless(apps.second));
        for (int b = 0; b < 64; ++b) {
            SpanScope s(tracer, "sim.step");
            for (int k = 0; k < kBatch; ++k)
                watts += server.step().breakdown.wallPower();
        }
    }
    out.layers["sim.step_ns"] = {batchedNs(tracer, "sim.step"), "ns"};
    out.info["sim.probe_watts_sum"] = std::to_string(watts);
}

void
probeTree(const cluster::PowerTreeConfig &cfg,
          const std::vector<double> &rootCaps, std::uint64_t seed,
          Tracer &tracer, RunResult &out)
{
    cluster::PowerTree tree(cfg);
    Rng rng(seed ^ 0x7ee5ULL);
    std::vector<double> demand(tree.leafCount());
    for (double &d : demand)
        d = rng.uniform(60.0, 140.0);
    std::uint64_t pushes = 0, violations = 0;
    // Several passes over the trace so short traces still time enough
    // resolves; demands drift between intervals as metered draws do.
    for (int pass = 0; pass < 8; ++pass) {
        for (double cap : rootCaps) {
            for (std::size_t s = 0; s < demand.size(); ++s) {
                if (rng.uniform() < 0.5) {
                    demand[s] *= rng.uniform(0.97, 1.03);
                    tree.setLeafDemand(s, demand[s]);
                }
            }
            tree.setRootCap(cap);
            {
                SpanScope s(tracer, "tree.resolve");
                pushes += tree.resolve();
            }
            if (!tree.checkConservation())
                ++violations;
        }
    }
    if (violations)
        out.fail("standalone power tree violated conservation");
    const auto &st = tree.stats();
    double resolves = static_cast<double>(st.resolves);
    out.layers["cluster.tree_resolve_ns"] = {
        median(tracer.durationsUs("tree.resolve")) * 1e3, "ns"};
    out.layers["cluster.tree_visits_per_resolve"] = {
        static_cast<double>(st.nodeVisits) / resolves, "ratio"};
    out.layers["cluster.tree_prunes"] = {static_cast<double>(st.nodePrunes),
                                         "count"};
    out.layers["cluster.cap_pushes_per_interval"] = {
        static_cast<double>(pushes) / resolves, "ratio"};
}

double
nodeBuildSeconds(const cluster::NodePoolConfig &cfg, int repeats)
{
    std::vector<double> s;
    for (int r = 0; r < repeats; ++r) {
        auto t0 = Clock::now();
        cluster::NodePool pool(cfg);
        s.push_back(secondsSince(t0));
    }
    return median(s);
}

std::uint64_t
counterOf(const std::map<std::string, std::uint64_t> &c,
          const std::string &name)
{
    auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
}

void
counterMetrics(const std::map<std::string, std::uint64_t> &c, double ops,
               double nodeIntervals, RunResult &out)
{
    auto n = [&](const char *name) {
        return static_cast<double>(counterOf(c, name));
    };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    double allocs = n("allocator.allocate");
    double fits = n("learning.als_fits");
    double selected = 0.0;
    for (const auto &[name, v] : c) {
        if (name.rfind("selector.", 0) == 0)
            selected += static_cast<double>(v);
    }
    out.layers["core.reallocations_per_event"] = {
        ratio(n("manager.reallocations"), ops), "ratio"};
    out.layers["core.allocate_per_event"] = {ratio(allocs, ops), "ratio"};
    out.layers["core.dp_full_hit_ratio"] = {
        ratio(n("allocator.dp_full_hits"), allocs), "ratio"};
    out.layers["core.dp_rebuild_ratio"] = {
        ratio(n("allocator.dp_rebuilds"), allocs), "ratio"};
    out.layers["core.selector_idle_share"] = {
        ratio(n("selector.idle"), selected), "ratio"};
    out.layers["cf.als_fits_per_kevent"] = {ratio(fits * 1000.0, ops),
                                            "count"};
    out.layers["cf.als_sweeps_per_fit"] = {ratio(n("learning.als_sweeps"), fits),
                                           "ratio"};
    double hits = n("learning.surface_cache_hits");
    out.layers["cf.surface_cache_hit_ratio"] = {ratio(hits, hits + fits),
                                                "ratio"};
    out.layers["cf.warm_start_ratio"] = {
        ratio(n("learning.als_warm_starts"), fits), "ratio"};
    out.layers["sim.control_polls"] = {n("control.polls"), "count"};
    out.layers["sim.interactive_arrivals"] = {n("interactive.arrivals"),
                                              "count"};
    out.layers["sim.interactive_completions"] = {
        n("interactive.completions"), "count"};
    out.layers["cluster.allocator_calls_per_node_interval"] = {
        ratio(allocs, nodeIntervals), "ratio"};
}

void
spanFamily(const std::string &prefix, const std::vector<double> &us,
           RunResult &out)
{
    double busy = 0.0;
    for (double v : us)
        busy += v;
    out.layers[prefix + "_p50_us"] = {percentile(us, 50.0), "us"};
    out.layers[prefix + "_p99_us"] = {percentile(us, 99.0), "us"};
    out.layers[prefix + "_busy_s"] = {busy / 1e6, "s"};
    out.info[prefix + "_samples"] = std::to_string(us.size());
}

} // namespace perfbench
