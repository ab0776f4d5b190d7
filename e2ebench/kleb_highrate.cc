/**
 * @file
 * Workload `kleb-highrate`: one long K-LEB session at the 100 us
 * floor with the durable log on, over a compute-bound, cache-light
 * program, then the log read back with LogRecovery::scan.  Timer
 * fires, PMU reads, ring pushes, bulk drains and CRC-framed journal
 * writes do the work; the cache model does almost nothing.
 */

#include <cstring>
#include <string>
#include <vector>

#include "base/random.hh"
#include "bench_support/trial_pool.hh"
#include "hw/perf_event.hh"
#include "kleb/durable_log.hh"
#include "kleb/log_recovery.hh"
#include "tools/harness.hh"
#include "workload.hh"
#include "workload/microbench.hh"

namespace e2e
{

namespace
{

using klebsim::Addr;
using klebsim::Random;
using klebsim::hw::HwEvent;
using klebsim::tools::RunConfig;
using klebsim::tools::RunResult;
using klebsim::tools::ToolKind;
namespace hw = klebsim::hw;
namespace kleb = klebsim::kleb;

/** Instructions the program retires, about 22 simulated seconds. */
constexpr std::uint64_t targetInstructions = 120'000'000'000ULL;

/** The program: @c chunks identical compute chunks. */
struct Program
{
    std::uint64_t chunkInstructions = 0;
    std::size_t chunks = 0;

    std::uint64_t
    instructions() const
    {
        return chunkInstructions * chunks;
    }
};

/**
 * Chunk size drawn from the seed in [475k, 525k] instructions,
 * about one sampling period each.  The chunk list is held in
 * memory, so much smaller chunks would cost hundreds of MB, and a
 * wider range would move peak RSS with the seed.
 */
Program
makeProgram(std::uint64_t seed)
{
    Random rng(klebsim::bench::trialSeed(seed, 0x6b6c6562, 0));
    Program p;
    p.chunkInstructions = 475000 + rng.below(50001);
    p.chunks = static_cast<std::size_t>(targetInstructions /
                                        p.chunkInstructions);
    return p;
}

RunConfig
makeConfig(const Program &prog, ToolKind tool, std::uint64_t seed)
{
    RunConfig cfg;
    cfg.tool = tool;
    cfg.seed = klebsim::bench::trialSeed(seed, 0x6b6c6562, 1);
    cfg.period = klebsim::usToTicks(100);
    cfg.durableLog = tool == ToolKind::kleb;
    cfg.keepDurableBytes = tool == ToolKind::kleb;
    cfg.workloadFactory = [prog](Addr, Random) {
        return std::unique_ptr<hw::WorkSource>(
            new klebsim::workload::FixedWorkSource(
                klebsim::workload::computeSource(
                    prog.chunks, prog.chunkInstructions)));
    };
    return cfg;
}

/** The session's ledger and the instructions it saw. */
void
checkSession(const RunResult &r, const Program &prog,
             Problems *problems)
{
    const kleb::KLebStatus &s = r.klebStatus;
    if (s.samplesKept + s.samplesMigrated + s.samplesDropped !=
        s.samplesEmitted)
        problems->push_back("K-LEB ledger: kept + migrated + dropped "
                            "!= emitted");
    if (s.samplesDropped != 0)
        problems->push_back("K-LEB dropped " +
                            std::to_string(s.samplesDropped) +
                            " samples");
    const std::uint64_t want = prog.instructions();
    if (hw::at(r.trueTotals, HwEvent::instRetired) != want)
        problems->push_back("retired instructions != " +
                            std::to_string(want) +
                            " (chunks x chunk size)");
    if (r.totals.empty() || r.totals[0] != want)
        problems->push_back("K-LEB-reported instructions != " +
                            std::to_string(want));
}

/**
 * The scan of the session's log: every frame intact, no gaps, and a
 * spliced series equal to the one the live session recorded.
 */
void
checkScan(const kleb::RecoveredLog &rec, const RunResult &r,
          Problems *problems)
{
    const kleb::RecoveryReport &rep = rec.report;
    if (!rep.balanced())
        problems->push_back("log scan does not balance");
    if (rep.framesDropped != 0 || rep.framesVanished != 0 ||
        rep.tornTail)
        problems->push_back(
            "log scan: " + std::to_string(rep.framesDropped) +
            " corrupt frames, " + std::to_string(rep.framesVanished) +
            " vanished");
    if (!rep.gaps.empty() || rep.gapTicks != 0)
        problems->push_back("log scan found gaps");
    if (!rep.violations.empty())
        problems->push_back("log scan: " + rep.violations.front());
    if (rep.samplesRecovered != r.samples)
        problems->push_back("log holds " +
                            std::to_string(rep.samplesRecovered) +
                            " samples, session drained " +
                            std::to_string(r.samples));
    if (!r.series) {
        problems->push_back("K-LEB run has no live series");
        return;
    }
    const klebsim::stats::TimeSeries &live = *r.series;
    const klebsim::stats::TimeSeries spliced =
        kleb::LogRecovery::splice(rec, live.channelNames());
    bool same = spliced.size() == live.size();
    for (std::size_t row = 0; same && row < live.size(); ++row) {
        same = spliced.timeAt(row) == live.timeAt(row);
        for (std::size_t c = 0; same && c < live.channels(); ++c)
            same = spliced.valueAt(row, c) == live.valueAt(row, c);
    }
    if (!same)
        problems->push_back("spliced series differs from the live one");
}

/** CRC32C's published check value. */
void
checkCrcVector(Problems *problems)
{
    const char *text = "123456789";
    const std::uint32_t crc = kleb::crc32c(
        reinterpret_cast<const std::uint8_t *>(text),
        std::strlen(text));
    if (crc != 0xE3069283u)
        problems->push_back("crc32c(\"123456789\") != 0xE3069283");
}

class KlebHighrate : public Workload
{
  public:
    explicit KlebHighrate(std::uint64_t seed) : seed_(seed) {}

    void
    setUp() override
    {
        prog_ = makeProgram(seed_);
        cfg_ = makeConfig(prog_, ToolKind::kleb, seed_);
        // Warm-up: one full session.
        klebsim::tools::runOnce(cfg_);
    }

    /** Step 0 runs the session, step 1 scans its log. */
    std::size_t steps() const override { return 2; }

    StepWork
    step(std::size_t i) override
    {
        // The scan reads the session's log: no session, no scan.
        if (i == 1 && !ran_)
            return {1, 1};
        try {
            if (i == 0) {
                ran_ = ok_ = false;
                run_ = klebsim::tools::runOnce(cfg_);
                ran_ = true;
            } else {
                rec_ = kleb::LogRecovery::scan(run_.durableBytes);
                ok_ = true;
            }
            return {1, 0};
        } catch (const std::exception &) {
            return {1, 1};
        }
    }

    std::uint64_t
    settleRound(Problems *problems) override
    {
        if (!ok_)
            return 0;
        if (!haveFirst_) {
            first_ = std::move(run_);
            firstRec_ = std::move(rec_);
            haveFirst_ = true;
            return 0;
        }
        std::uint64_t differed = 0;
        if (run_.lifetime != first_.lifetime ||
            run_.trueTotals != first_.trueTotals ||
            run_.totals != first_.totals ||
            run_.durableBytes != first_.durableBytes) {
            ++differed;
            problems->push_back("session differs from round 1");
        }
        if (rec_.report.samplesRecovered !=
            firstRec_.report.samplesRecovered) {
            ++differed;
            problems->push_back("log scan differs from round 1");
        }
        run_ = RunResult{};
        rec_ = kleb::RecoveredLog{};
        return differed;
    }

    void
    check(Problems *problems) override
    {
        checkCrcVector(problems);
        if (!haveFirst_)
            return;
        checkSession(first_, prog_, problems);
        checkScan(firstRec_, first_, problems);

        // Self-test: one flipped byte inside the second frame must
        // fail the scan check.
        std::vector<std::uint8_t> bad = first_.durableBytes;
        const std::size_t at = kleb::DurableLog::headerSize +
                               kleb::DurableLog::frameSize + 40;
        Problems caught;
        if (at < bad.size()) {
            bad[at] ^= 0x01;
            checkScan(kleb::LogRecovery::scan(bad), first_, &caught);
        }
        if (caught.empty())
            problems->push_back(
                "self-test: the scan check passed a flipped log byte");
    }

    double simSeconds() const override { return first_.seconds; }

    double
    simInstructions() const override
    {
        return static_cast<double>(
            hw::at(first_.trueTotals, HwEvent::instRetired));
    }

  private:
    std::uint64_t seed_;
    Program prog_;
    RunConfig cfg_;
    RunResult run_, first_;
    kleb::RecoveredLog rec_, firstRec_;
    bool ran_ = false; //!< this round's session completed
    bool ok_ = false;  //!< ... and so did its scan
    bool haveFirst_ = false;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeKlebHighrate(std::uint64_t seed)
{
    return std::make_unique<KlebHighrate>(seed);
}

void
traceKlebHighrate(std::uint64_t seed, LayerSamples *out,
                  Problems *problems)
{
    const Program prog = makeProgram(seed);

    double t0 = cpuNow();
    RunResult none =
        klebsim::tools::runOnce(makeConfig(prog, ToolKind::none, seed));
    const double none_cpu = cpuNow() - t0;

    t0 = cpuNow();
    RunResult run =
        klebsim::tools::runOnce(makeConfig(prog, ToolKind::kleb, seed));
    const double kleb_cpu = cpuNow() - t0;
    checkSession(run, prog, problems);

    const std::vector<std::uint8_t> &bytes = run.durableBytes;
    t0 = cpuNow();
    kleb::RecoveredLog rec = kleb::LogRecovery::scan(bytes);
    const double scan_cpu = cpuNow() - t0;
    checkScan(rec, run, problems);

    t0 = cpuNow();
    const std::uint32_t crc = kleb::crc32c(bytes.data(), bytes.size());
    const double crc_cpu = cpuNow() - t0;

    const double samples = static_cast<double>(run.samples);
    const double n_bytes = static_cast<double>(bytes.size());
    out->add("sim.unmonitored_cpu_s", none_cpu, "s");
    out->add("kleb.monitor_ns_per_sample",
             (kleb_cpu - none_cpu) * 1e9 / samples, "ns/sample");
    out->add("kleb.log_scan_ns_per_byte", scan_cpu * 1e9 / n_bytes,
             "ns/byte");
    out->add("kleb.crc_ns_per_byte", crc_cpu * 1e9 / n_bytes,
             "ns/byte");
    out->count("kleb.samples_drained", samples);
    out->count("kleb.log_bytes", n_bytes);
    out->count("kleb.log_crc", static_cast<double>(crc));
    out->count("kleb.unmonitored_lifetime_ticks",
               static_cast<double>(none.lifetime));
}

} // namespace e2e
