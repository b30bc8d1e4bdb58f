/**
 * @file
 * Metric report, percentiles, and the span recorder.
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"

namespace perfbench {

std::size_t
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

double
peakRssMb()
{
    // VmHWM is the high-water resident set of this address space.
    // getrusage's ru_maxrss is not used: it survives exec, so a small
    // benchmark process would report its launcher's footprint.
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::size_t
beyond(const std::vector<double> &v, double p)
{
    const double cut = percentile(v, p);
    return static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(),
                      [cut](double x) { return x > cut; }));
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, std::size_t n,
               const std::string &note)
{
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
    metrics_[name] = value;
    std::printf("metric %s %.17g %s n=%zu%s%s\n", name.c_str(), value,
                unit.c_str(), n, note.empty() ? "" : " ",
                note.c_str());
    std::fflush(stdout);
}

void
Report::latency(const std::string &prefix, const std::vector<double> &ms)
{
    const std::size_t tail = beyond(ms, 99.0);
    metric(prefix + "_p50_ms", percentile(ms, 50.0), "ms", ms.size());
    metric(prefix + "_p99_ms", percentile(ms, 99.0), "ms", ms.size(),
           "beyond=" + std::to_string(tail) +
               (tail >= 10 ? "" : " (under ten samples beyond)"));
}

void
Report::check(bool ok, const std::string &what)
{
    checks(1, ok ? 0 : 1, what);
}

void
Report::checks(std::size_t n, std::size_t bad, const std::string &what)
{
    attempted_ += n;
    failed_ += bad;
    if (bad != 0)
        std::printf("FAILED %zu of %zu: %s\n", bad, n, what.c_str());
}

double
Report::value(const std::string &name) const
{
    auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second;
}

void
Report::finish() const
{
    std::printf("checks attempted=%llu failed=%llu\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    std::fflush(stdout);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::int64_t
Tracer::now() const
{
    return at(Clock::now());
}

std::int64_t
Tracer::at(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
}

std::int64_t
Tracer::begin(const std::string &name, std::int64_t parent)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.startNs = now();
    s.parent = parent;
    return add(std::move(s));
}

void
Tracer::end(std::int64_t id)
{
    if (id < 0)
        return;
    const std::int64_t t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].endNs = t;
}

std::int64_t
Tracer::add(Span span)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Children of each span, as intervals; their union is what the
    // children cover (siblings may overlap when they ran on other
    // threads).
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startNs, s.endNs);
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double dur = static_cast<double>(s.endNs - s.startNs);
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        std::int64_t lo = 0, hi = -1;
        for (const auto &[a0, b0] : iv) {
            const std::int64_t a = std::max(a0, s.startNs);
            const std::int64_t b = std::min(b0, s.endNs);
            if (b <= a)
                continue;
            if (a > hi) {
                if (hi > lo)
                    covered += static_cast<double>(hi - lo);
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        if (hi > lo)
            covered += static_cast<double>(hi - lo);
        Totals &t = out[s.name];
        ++t.count;
        t.totalNs += dur;
        t.selfNs += dur - covered;
    }
    return out;
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream f(path);
    if (!f)
        throw std::runtime_error("cannot write span file " + path);
    f << "{\"traceEvents\":[\n";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%lld,"
                      "\"request\":%llu,\"eval_ms\":%.6g}}\n",
                      i == 0 ? "" : ",", s.name.c_str(),
                      static_cast<unsigned long long>(s.request),
                      static_cast<double>(s.startNs) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                      static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.request),
                      s.evalMs);
        f << buf;
    }
    f << "]}\n";
}

} // namespace perfbench
