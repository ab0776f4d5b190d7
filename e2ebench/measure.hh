/**
 * @file
 * Host-side measurement helpers for the end-to-end benchmark: wall
 * and process CPU clocks, peak resident set size, and the order
 * statistics every reported figure is built from.
 */

#ifndef E2EBENCH_MEASURE_HH
#define E2EBENCH_MEASURE_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

namespace e2e
{

/** Host wall clock, seconds (monotonic). */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time of the whole process (every thread), seconds. */
inline double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Peak resident set size of the process so far, MB: the kernel's
 * VmHWM.  getrusage's ru_maxrss would do on Linux but for one flaw:
 * it survives execve, so it can report the launcher's peak instead.
 */
inline double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    }
    std::fclose(f);
    return kib / 1024.0;
}

/** Median (mean of the middle pair for even sizes); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** One reported figure. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Samples of per-layer figures gathered over several traced passes;
 * each is reported as its median.
 */
class LayerSamples
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        for (Entry &e : entries_) {
            if (e.name == name) {
                e.values.push_back(value);
                return;
            }
        }
        entries_.push_back({name, unit, {value}});
    }

    /**
     * Record an exact work count behind a rate.  Counts are
     * deterministic, so every pass must repeat the first one's.
     */
    void
    count(const std::string &name, double value)
    {
        for (Metric &c : counts_) {
            if (c.name == name) {
                if (c.value != value)
                    unsteady_.push_back(name);
                return;
            }
        }
        counts_.push_back({name, value, "count"});
    }

    const std::vector<Metric> &counts() const { return counts_; }

    /** Counts that changed between passes. */
    const std::vector<std::string> &unsteady() const
    { return unsteady_; }

    std::vector<Metric>
    medians() const
    {
        std::vector<Metric> out;
        for (const Entry &e : entries_)
            out.push_back({e.name, median(e.values), e.unit});
        return out;
    }

  private:
    struct Entry
    {
        std::string name;
        std::string unit;
        std::vector<double> values;
    };
    std::vector<Entry> entries_;
    std::vector<Metric> counts_;
    std::vector<std::string> unsteady_;
};

} // namespace e2e

#endif // E2EBENCH_MEASURE_HH
