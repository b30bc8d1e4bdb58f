/**
 * @file
 * Shared pieces of the repository benchmark: options, the metric
 * report, the in-memory span recorder, and the workload entry points.
 *
 * The benchmark measures from outside: every time it reports comes
 * from std::chrono::steady_clock readings taken around calls into a
 * layer's public functions, and every count comes from a public
 * result struct or stats accessor.  Nothing here reaches into the
 * library's internals.
 */

#ifndef TTS_PERFBENCH_BENCH_HH
#define TTS_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** @return Seconds from a to b. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** @return Milliseconds from a to b. */
inline double
millis(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Benchmark seed whose outputs are pinned (the CLI's default). */
constexpr std::uint64_t kDefaultSeed = 0x715f1ee7ULL;

/** Command-line options of one benchmark invocation. */
struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its span file. */
    std::string outDir = ".bench_out";
    /** serve_mixed latency limits behind slo_ratio (ms). */
    double hitLimitMs = 0.0;
    double missLimitMs = 0.0;
};

/** @return Logical CPUs this process may run on (what nproc says). */
std::size_t nproc();

/** @return Peak resident set of this process so far (MiB). */
double peakRssMb();

/**
 * Percentile of a sample (linear interpolation between order
 * statistics).  @p p is in [0, 100].
 */
double percentile(std::vector<double> v, double p);

/** @return Median of a sample. */
inline double
median(const std::vector<double> &v)
{
    return percentile(v, 50.0);
}

/**
 * @return Samples strictly above the p-th percentile; a percentile is
 * reported only when at least ten samples lie beyond it.
 */
std::size_t beyond(const std::vector<double> &v, double p);

/**
 * Collects metrics and pass/fail accounting.  Every metric is printed
 * as it is recorded, one line each:
 *
 *     metric <name> <value> <unit> n=<samples> [<note>]
 *
 * and finish() prints `checks attempted=<a> failed=<f>`.  run.py
 * turns these lines into the result JSON.
 */
class Report
{
  public:
    /** Record a metric; @p n is its sample count. */
    void metric(const std::string &name, double value,
                const std::string &unit, std::size_t n = 1,
                const std::string &note = "");

    /** Record a latency sample as p50 + p99 metrics (ms). */
    void latency(const std::string &prefix,
                 const std::vector<double> &ms);

    /** Count one checked operation; @p ok false counts it failed. */
    void check(bool ok, const std::string &what = "");

    /** Count @p n checked operations of which @p bad failed. */
    void checks(std::size_t n, std::size_t bad,
                const std::string &what = "");

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** @return Value of a recorded metric (0 when absent). */
    double value(const std::string &name) const;

    /** Print the check totals line. */
    void finish() const;

  private:
    std::map<std::string, double> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** One timed interval recorded by the benchmark. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, or -1. */
    std::int64_t parent = -1;
    /** Serve request id (all spans of one request share it); 0 = none. */
    std::uint64_t request = 0;
    /** The reply's eval_ms on a serve request span, else < 0. */
    double evalMs = -1.0;
};

/**
 * In-memory span recorder.  Disabled recorders do nothing, so the
 * untraced runs pay one branch per call site.  Spans are written out
 * once, when the run ends.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled = false);

    bool enabled() const { return enabled_; }

    /** @return Nanoseconds since the recorder's epoch. */
    std::int64_t now() const;

    /** @return Recorder time of a steady_clock reading. */
    std::int64_t at(Clock::time_point t) const;

    /** Open a span; @return its id (or -1 when disabled). */
    std::int64_t begin(const std::string &name, std::int64_t parent = -1);

    /** Close a span opened by begin(). */
    void end(std::int64_t id);

    /** Record a finished span; @return its id (or -1). */
    std::int64_t add(Span span);

    /**
     * Per span name: (count, total ns, self ns), where self time is a
     * span's duration minus the part its children cover.
     */
    struct Totals
    {
        std::size_t count = 0;
        double totalNs = 0.0;
        double selfNs = 0.0;
    };
    std::map<std::string, Totals> totals() const;

    /** Write every span as a Chrome trace_event file. */
    void write(const std::string &path) const;

    std::size_t size() const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/* Workload entry points (untraced runs fill the end-to-end metrics). */
void runFleetWarehouse(const Options &o, Report &r);
void runOptSearch(const Options &o, Report &r);
void runServeMixed(const Options &o, Report &r);

/* Traced run: every per-layer metric, whichever workload is named. */
void runFleetLayers(const Options &o, Report &r, Tracer &t);
void runOptLayers(Report &r, Tracer &t);
void runServeLayers(const Options &o, Report &r, Tracer &t);
void runProbes(Report &r, Tracer &t);

/* Self-tests: each check must fail on a wrong expected value. */
bool selftestFleet();
bool selftestOpt();
bool selftestServe();

} // namespace perfbench

#endif // TTS_PERFBENCH_BENCH_HH
