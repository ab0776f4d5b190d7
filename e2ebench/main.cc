/**
 * @file
 * The end-to-end benchmark program.
 *
 *   e2ebench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Untraced (--trace 0): set the workload up several times (the
 * median is setup_s), run whole rounds of its operations for S seconds
 * (at least three), then check round 1's outputs and run the
 * checks' self-tests.  Prints the end-to-end metrics: wall_s and
 * cpu_s are one round's time, the sum over its steps of each step's
 * median; the simulated rates divide one round's simulated work by
 * them; peak_rss_mb is the peak over set-up and the first three
 * rounds.
 *
 * Traced (--trace 1): time every layer's public entry point from
 * outside, over the inputs of all three workloads, in passes for S
 * seconds (at least one); prints each per-layer figure's median.
 * An untraced run calls none of that code.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * Diagnostics go to standard error.
 */

#include <charconv>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "measure.hh"
#include "workload.hh"

namespace
{

using namespace e2e;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
};

[[noreturn]] void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s --workload paper-tables|kleb-highrate|fleet "
                 "--seed N --seconds S --trace 0|1\n",
                 prog);
    std::exit(2);
}

template <typename T>
bool
parseWhole(const char *text, T *out)
{
    const char *end = text + std::strlen(text);
    auto [ptr, ec] = std::from_chars(text, end, *out);
    return ec == std::errc() && ptr == end;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *value = argv[++i];
        bool ok = true;
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            ok = have_seed = parseWhole(value, &o.seed);
        else if (flag == "--seconds")
            ok = parseWhole(value, &o.seconds) && o.seconds > 0.0;
        else if (flag == "--trace")
            ok = parseWhole(value, &o.trace) &&
                 (o.trace == 0 || o.trace == 1);
        else
            ok = false;
        if (!ok)
            usage(argv[0]);
    }
    if (!have_seed || o.seconds <= 0.0 || o.trace < 0 ||
        (o.workload != "paper-tables" &&
         o.workload != "kleb-highrate" && o.workload != "fleet"))
        usage(argv[0]);
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "paper-tables")
        return makePaperTables(o.seed);
    if (o.workload == "kleb-highrate")
        return makeKlebHighrate(o.seed);
    return makeFleet(o.seed);
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(),
                     m.value, m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

void
report(const Problems &problems, const char *what)
{
    for (const std::string &p : problems)
        std::fprintf(stderr, "%s: %s\n", what, p.c_str());
}

/** Minimum timed rounds, so every step time is a median. */
constexpr std::size_t minRounds = 3;

/**
 * Set-ups per run: at least three, then more while they have taken
 * under two seconds (at most 25), so a set-up of a few milliseconds
 * still gets a steady median.  The first, timed from process start,
 * is the one the rounds run on; the others come after the checks, so
 * every run allocates the same way up to the RSS reading.
 */
constexpr std::size_t minSetUps = 3;
constexpr std::size_t maxSetUps = 25;
constexpr double setUpSeconds = 2.0;

int
runUntraced(const Options &o, double process_start)
{
    std::unique_ptr<Workload> w = makeWorkload(o);
    w->setUp();
    std::vector<double> setup_s = {wallNow() - process_start};

    // wall[i] and cpu[i] hold step i's time in every round.
    const std::size_t steps = w->steps();
    std::vector<std::vector<double>> wall(steps), cpu(steps);
    std::uint64_t attempted = 0, failed = 0;
    std::size_t rounds = 0;
    double rss = 0.0;
    Problems differed;
    const double start = wallNow();
    while (rounds < minRounds || wallNow() - start < o.seconds) {
        for (std::size_t i = 0; i < steps; ++i) {
            const double w0 = wallNow(), c0 = cpuNow();
            const StepWork work = w->step(i);
            wall[i].push_back(wallNow() - w0);
            cpu[i].push_back(cpuNow() - c0);
            attempted += work.attempted;
            failed += work.failed;
        }
        failed += w->settleRound(&differed);
        // Later rounds only repeat the same allocations; past this
        // point the peak moves with allocator fragmentation alone.
        if (++rounds == minRounds)
            rss = peakRssMb();
    }
    report(differed, "failed");

    Problems problems;
    w->check(&problems);
    report(problems, "CHECK FAILED");
    const double sim_s = w->simSeconds();
    const double sim_inst = w->simInstructions();
    w.reset();

    double setup_total = setup_s.front();
    while (setup_s.size() < minSetUps ||
           (setup_total < setUpSeconds && setup_s.size() < maxSetUps)) {
        const double t0 = wallNow();
        makeWorkload(o)->setUp();
        setup_s.push_back(wallNow() - t0);
        setup_total += setup_s.back();
    }

    // A round's time is the sum of its steps' median times.
    double wall_s = 0.0, cpu_s = 0.0;
    for (std::size_t i = 0; i < steps; ++i) {
        wall_s += median(wall[i]);
        cpu_s += median(cpu[i]);
    }
    std::fprintf(stderr, "%s seed %llu: %zu rounds of %zu steps\n",
                 o.workload.c_str(),
                 static_cast<unsigned long long>(o.seed), rounds, steps);
    printResult(problems.empty(), attempted, failed,
                {{"wall_s", wall_s, "s"},
                 {"cpu_s", cpu_s, "s"},
                 {"sim_s_per_wall_s", sim_s / wall_s, "ratio"},
                 {"sim_minst_per_cpu_s",
                  sim_inst / 1e6 / cpu_s, "Minst/s"},
                 {"setup_s", median(setup_s), "s"},
                 {"peak_rss_mb", rss, "MB"}});
    return 0;
}

int
runTraced(const Options &o)
{
    using TraceFn = void (*)(std::uint64_t, LayerSamples *, Problems *);
    const TraceFn passes[] = {tracePaperTables, traceKlebHighrate,
                              traceFleet};
    LayerSamples layers;
    Problems problems;
    std::uint64_t attempted = 0, failed = 0;
    const double start = wallNow();
    do {
        for (TraceFn pass : passes) {
            ++attempted;
            try {
                pass(o.seed, &layers, &problems);
            } catch (const std::exception &e) {
                ++failed;
                problems.push_back(std::string("traced pass: ") +
                                   e.what());
            }
        }
    } while (wallNow() - start < o.seconds);
    for (const std::string &name : layers.unsteady())
        problems.push_back("work count " + name +
                           " changed between passes");
    report(problems, "CHECK FAILED");

    std::printf("work counts:");
    for (const Metric &c : layers.counts())
        std::printf(" %s=%.17g", c.name.c_str(), c.value);
    std::printf("\n");
    printResult(problems.empty(), attempted, failed, layers.medians());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const double process_start = e2e::wallNow();
    const Options o = parseArgs(argc, argv);
    klebsim::setLoggingQuiet(true);
    return o.trace ? runTraced(o) : runUntraced(o, process_start);
}
