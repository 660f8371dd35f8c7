/**
 * @file
 * Micro-benchmarks (google-benchmark) of the management framework's
 * decision path, backing the Section IV-C latency claim that a full
 * reallocation (calibration + decision + actuation) completes within
 * ~800 ms of wall-clock on the paper's server.  In this reproduction
 * the calibration wall-clock is simulated; these benches measure the
 * *computation* cost of each stage, which must be far below the
 * simulated measurement time for the claim to hold.
 *
 * Also serves as the ablation for the allocator's DP granularity.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.hh"
#include "cf/estimator.hh"
#include "cf/sampler.hh"
#include "core/power_allocator.hh"
#include "util/thread_pool.hh"

using namespace psm;
using namespace psm::bench;

namespace
{

std::vector<std::unique_ptr<core::UtilityCurve>> &
pairCurves()
{
    static std::vector<std::unique_ptr<core::UtilityCurve>> curves =
        [] {
            std::vector<std::unique_ptr<core::UtilityCurve>> v;
            v.push_back(std::make_unique<core::UtilityCurve>(
                oracleCurve("stream")));
            v.push_back(std::make_unique<core::UtilityCurve>(
                oracleCurve("kmeans")));
            return v;
        }();
    return curves;
}

void
BM_AllocatorDp(benchmark::State &state)
{
    core::AllocatorConfig cfg;
    cfg.granularity = 1.0 / static_cast<double>(state.range(0));
    core::PowerAllocator allocator(cfg);
    std::vector<const core::UtilityCurve *> ptrs = {
        pairCurves()[0].get(), pairCurves()[1].get()};
    double objective = 0.0;
    for (auto _ : state) {
        core::Allocation a = allocator.allocate(ptrs, 29.4);
        objective = a.objective;
        benchmark::DoNotOptimize(a.used);
    }
    state.counters["objective"] = objective;
}

void
BM_BuildUtilityCurve(benchmark::State &state)
{
    auto surface = oracleSurface("facesim");
    auto settings = power::defaultPlatform().knobSpace();
    for (auto _ : state) {
        core::UtilityCurve curve("facesim", settings, surface,
                                 core::KnobFreedom::All);
        benchmark::DoNotOptimize(curve.points().size());
    }
}

void
BM_CfEstimate(benchmark::State &state)
{
    const auto &plat = power::defaultPlatform();
    cf::UtilityEstimator estimator(plat);
    cf::Profiler profiler(plat, 0.0);
    Rng rng(1);
    for (const auto &p : perf::workloadLibrary()) {
        if (p.name == "ferret")
            continue;
        perf::PerfModel model(plat, p);
        std::vector<double> pr, hr;
        profiler.measureAll(model, pr, hr, rng);
        estimator.addCorpusApp(p.name, pr, hr);
    }
    cf::Sampler sampler(plat);
    auto cols = sampler.select(0.10, rng);
    perf::PerfModel model(plat, perf::workload("ferret"));
    auto samples = profiler.measure(model, cols, rng);

    for (auto _ : state) {
        cf::UtilitySurface s = estimator.estimate(samples);
        benchmark::DoNotOptimize(s.power[0]);
    }
}

/**
 * One 12 x 432 rank-3 power fit on its own: 11 fully profiled rows
 * plus a 10%-sampled new row, at pool width 1, so the kernel's cost
 * shows apart from the estimator's two-model fan-out.
 */
void
BM_AlsFit(benchmark::State &state)
{
    const auto &plat = power::defaultPlatform();
    cf::Profiler profiler(plat, 0.0);
    Rng rng(1);
    cf::MaskedMatrix m(0, 0);
    for (const auto &p : perf::workloadLibrary()) {
        if (p.name == "ferret")
            continue;
        perf::PerfModel model(plat, p);
        std::vector<double> pr, hr;
        profiler.measureAll(model, pr, hr, rng);
        m.appendObservedRow(pr);
    }
    m.appendEmptyRow();
    perf::PerfModel model(plat, perf::workload("ferret"));
    auto cols = cf::Sampler(plat).select(0.10, rng);
    for (const cf::Measurement &s : profiler.measure(model, cols, rng))
        m.observe(m.rows() - 1, s.column, s.power);

    util::ThreadPool::configureGlobal(1);
    for (auto _ : state) {
        cf::AlsModel fit(m);
        benchmark::DoNotOptimize(fit.predict(m.rows() - 1, 0));
    }
    util::ThreadPool::configureGlobal(0);
}

void
BM_EsdPlan(benchmark::State &state)
{
    core::PowerAllocator allocator;
    std::vector<const core::UtilityCurve *> ptrs = {
        pairCurves()[0].get(), pairCurves()[1].get()};
    const auto &plat = power::defaultPlatform();
    esd::BatteryConfig esd = esd::leadAcidUps();
    for (auto _ : state) {
        core::EsdPlan plan = allocator.esdPlan(
            ptrs, plat.idlePower, plat.cmPower, 80.0, esd);
        benchmark::DoNotOptimize(plan.objective);
    }
}

void
BM_ServerSimulationStep(benchmark::State &state)
{
    sim::Server server;
    server.admit(perf::workload("stream"));
    server.admit(perf::workload("kmeans"));
    for (auto _ : state) {
        sim::StepResult r = server.step();
        benchmark::DoNotOptimize(r.breakdown.wallPower());
    }
}

void
BM_FullReallocationDecision(benchmark::State &state)
{
    // The complete software path on an arrival: build curves from
    // estimated surfaces, run the DP, derive directives — everything
    // except the simulated measurement wall-clock.
    auto surface_a = oracleSurface("sssp");
    auto surface_b = oracleSurface("x264");
    auto settings = power::defaultPlatform().knobSpace();
    core::PowerAllocator allocator;
    for (auto _ : state) {
        core::UtilityCurve a("sssp", settings, surface_a,
                             core::KnobFreedom::All);
        core::UtilityCurve b("x264", settings, surface_b,
                             core::KnobFreedom::All);
        std::vector<const core::UtilityCurve *> ptrs = {&a, &b};
        core::Allocation alloc = allocator.allocate(ptrs, 29.4);
        benchmark::DoNotOptimize(alloc.objective);
    }
}

BENCHMARK(BM_AllocatorDp)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_BuildUtilityCurve);
BENCHMARK(BM_CfEstimate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AlsFit)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EsdPlan);
BENCHMARK(BM_ServerSimulationStep);
BENCHMARK(BM_FullReallocationDecision)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
