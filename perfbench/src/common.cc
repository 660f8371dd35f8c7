#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
interquartileMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i)
        sum += v[i];
    return sum / static_cast<double>(hi - lo);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    std::size_t ix = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(ix, v.size() - 1)];
}

double
windowedP99(const std::vector<double> &v, std::size_t window)
{
    if (v.size() < 2 * window)
        return percentile(v, 99.0);
    std::vector<double> p99s;
    for (std::size_t a = 0; a + window <= v.size(); a += window) {
        std::size_t b = v.size() - (a + window) < window ? v.size() : a + window;
        p99s.push_back(percentile(
            std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(a),
                                v.begin() + static_cast<std::ptrdiff_t>(b)),
            99.0));
        if (b == v.size())
            break;
    }
    return median(p99s);
}

double
honestPercentile(std::size_t samples)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
        if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
            return p;
    }
    return -1.0;
}

std::int32_t
Tracer::begin(const char *name, std::uint64_t request)
{
    if (!on)
        return -1;
    Span s;
    s.name = name;
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch)
                    .count();
    s.parent = stack.empty() ? -1 : stack.back();
    s.request = request;
    auto ix = static_cast<std::int32_t>(spans.size());
    spans.push_back(s);
    stack.push_back(ix);
    return ix;
}

void
Tracer::end(std::int32_t ix)
{
    if (ix < 0)
        return;
    spans[static_cast<std::size_t>(ix)].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch)
            .count();
    stack.pop_back();
}

std::vector<double>
Tracer::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans) {
        if (name == s.name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) / 1e3);
    }
    return out;
}

bool
Tracer::writeJsonl(const std::string &path) const
{
    std::ofstream os(path);
    for (const Span &s : spans) {
        os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
           << ",\"request\":" << s.request << "}\n";
    }
    return static_cast<bool>(os);
}

} // namespace perfbench
