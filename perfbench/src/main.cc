/**
 * @file
 * perfbench: one workload run, printed as one JSON document on stdout.
 *
 *   perfbench --workload serve-churn|serve-capstorm|cluster-10k
 *             --seed N --seconds S --trace 0|1 --out-dir DIR
 *             [--corrupt-reference]
 *
 * --trace 1 records spans around the harness's calls into each layer,
 * runs the per-layer probes and writes the spans to DIR as JSON lines.
 * --corrupt-reference feeds the correctness gate a deliberately wrong
 * reference; the run must then report correct=false.  run.py in this
 * directory builds this program and turns its document into the
 * benchmark's result line.
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hh"
#include "util/logging.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace perfbench;

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

void
printMetrics(std::ostream &os, const std::map<std::string, Metric> &m)
{
    os << "{";
    bool first = true;
    for (const auto &[name, metric] : m) {
        os << (first ? "" : ",") << jsonString(name) << ":{\"value\":"
           << jsonNumber(metric.value)
           << ",\"unit\":" << jsonString(metric.unit) << "}";
        first = false;
    }
    os << "}";
}

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload NAME --seed N --seconds S --trace 0|1"
                 " --out-dir DIR [--corrupt-reference]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // inform() writes to stdout; the result document must be alone.
    psm::setLogLevel(psm::LogLevel::Quiet);

    RunOptions opt;
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--workload")
            workload = value();
        else if (a == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(value().c_str());
        else if (a == "--trace")
            opt.trace = value() == "1";
        else if (a == "--out-dir")
            opt.outDir = value();
        else if (a == "--corrupt-reference")
            opt.corruptReference = true;
        else
            return usage(argv[0]);
    }
    if (!(opt.seconds > 0.0) || opt.seconds > 600.0)
        return usage(argv[0]);

    Tracer tracer(opt.trace);
    RunResult r;
    if (workload == "serve-churn")
        r = runServeChurn(opt, tracer);
    else if (workload == "serve-capstorm")
        r = runServeCapstorm(opt, tracer);
    else if (workload == "cluster-10k")
        r = runCluster10k(opt, tracer);
    else
        return usage(argv[0]);

    for (const auto *m : {&r.endToEnd, &r.layers}) {
        for (const auto &[name, metric] : *m) {
            if (!std::isfinite(metric.value))
                r.fail("metric " + name + " is not finite");
        }
    }
    if (opt.trace) {
        std::string path = opt.outDir + "/" + workload + "-seed" +
                           std::to_string(opt.seed) + ".spans.jsonl";
        if (!tracer.writeJsonl(path))
            r.fail("cannot write spans to " + path);
        r.info["spans"] = std::to_string(tracer.size());
        r.info["spans_file"] = path;
    }
    // A run that fails its gate reports no numbers.
    if (!r.correct) {
        r.endToEnd.clear();
        r.layers.clear();
    }

#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::ostream &os = std::cout;
    os << "{\"workload\":" << jsonString(workload)
       << ",\"correct\":" << (r.correct ? "true" : "false")
       << ",\"gate\":" << jsonString(r.gate)
       << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"end_to_end\":";
    printMetrics(os, r.endToEnd);
    os << ",\"per_layer\":";
    printMetrics(os, r.layers);
    os << ",\"info\":{";
    bool first = true;
    for (const auto &[k, v] : r.info) {
        os << (first ? "" : ",") << jsonString(k) << ":" << jsonString(v);
        first = false;
    }
    os << "},\"build\":{\"compiler\":" << jsonString(__VERSION__)
       << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
       << ",\"optimized\":" << (optimized ? "true" : "false") << "}}"
       << std::endl;
    return r.correct ? 0 : 1;
}
