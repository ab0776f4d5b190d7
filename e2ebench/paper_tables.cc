/**
 * @file
 * Workload `paper-tables`: the paper's Tables II and III.  Every
 * tool runs the triple-loop matmul, and every tool but LiMiT runs
 * MKL dgemm, on the i7-920 at the paper's 10 ms rate.  The cache
 * and memory hierarchy and the address streams do most of the work;
 * the streaming loop is LLC-miss-bound and blocked dgemm hit-bound.
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "bench_support/trial_pool.hh"
#include "hw/cache.hh"
#include "hw/machine_config.hh"
#include "hw/mem_hierarchy.hh"
#include "hw/perf_event.hh"
#include "tools/harness.hh"
#include "workload.hh"
#include "workload/address_streams.hh"
#include "workload/matmul.hh"

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
namespace wl = klebsim::workload;

/** The repository's --quick size for both tables. */
constexpr std::uint32_t matrixN = 640;
constexpr double nD = matrixN;

/** FLOPs of one multiply, 2 n^3. */
constexpr double expectedFlops = 2.0 * nD * nD * nD;

/**
 * Instructions the matmul models retire: the loop spends n^2 * 6 on
 * initialisation and 8 per multiply-add; dgemm spends n^2 * 3 on
 * packing and two per packed FP instruction (5.33 FLOPs each).
 */
std::uint64_t
programInstructions(bool dgemm)
{
    if (!dgemm)
        return static_cast<std::uint64_t>(nD * nD * 6.0) +
               static_cast<std::uint64_t>(expectedFlops / 2.0 * 8.0);
    return static_cast<std::uint64_t>(nD * nD * 3.0) +
           static_cast<std::uint64_t>(expectedFlops / 5.33) * 2;
}

/** Tools that add no code to the program they monitor. */
bool
addsNoCode(ToolKind tool)
{
    return tool != ToolKind::papi && tool != ToolKind::limit;
}

/** Metric-name form of a tool ("perf-stat"). */
const char *
toolSlug(ToolKind tool)
{
    switch (tool) {
      case ToolKind::none: return "none";
      case ToolKind::kleb: return "kleb";
      case ToolKind::perfStat: return "perf-stat";
      case ToolKind::perfRecord: return "perf-record";
      case ToolKind::papi: return "papi";
      case ToolKind::limit: return "limit";
    }
    return "?";
}

/** One table entry: a tool on a program, with its run inputs. */
struct Cell
{
    ToolKind tool;
    bool dgemm;
    RunConfig cfg;
};

/** The 11 runs of both tables, seeded from @p seed. */
std::vector<Cell>
makeCells(std::uint64_t seed)
{
    std::vector<Cell> cells;
    for (bool dgemm : {false, true}) {
        for (ToolKind tool : klebsim::tools::allTools()) {
            // The MKL testbed's kernel lacks the LiMiT patch.
            if (dgemm && tool == ToolKind::limit)
                continue;
            RunConfig cfg;
            cfg.tool = tool;
            cfg.seed = klebsim::bench::trialSeed(
                seed, static_cast<std::uint64_t>(tool), dgemm);
            cfg.period = klebsim::msToTicks(10);
            if (dgemm) {
                cfg.expectedInstructions = static_cast<std::uint64_t>(
                    expectedFlops / 5.33 * 2.0);
                cfg.expectedLifetime = klebsim::msToTicks(35);
                cfg.limitPatchAvailable = false;
                cfg.workloadFactory = [](Addr base, Random rng) {
                    return wl::makeMatMulMkl({matrixN}, base, rng);
                };
            } else {
                cfg.expectedInstructions = static_cast<std::uint64_t>(
                    expectedFlops / 2.0 * 8.0);
                cfg.expectedLifetime = klebsim::msToTicks(650);
                cfg.workloadFactory = [](Addr base, Random rng) {
                    return wl::makeMatMulLoop({matrixN}, base, rng);
                };
            }
            cells.push_back({tool, dgemm, cfg});
        }
    }
    return cells;
}

/** Run seconds of one table, indexed by ToolKind (0: not run). */
using ToolSeconds = std::array<double, 6>;

double
secsOf(const ToolSeconds &secs, ToolKind tool)
{
    return secs[static_cast<std::size_t>(tool)];
}

/**
 * Table II: K-LEB < perf record < LiMiT < perf stat <= PAPI.  All
 * tools share the baseline, so run time orders them as overhead
 * does.
 */
void
checkTableII(const ToolSeconds &secs, Problems *problems)
{
    const double kleb = secsOf(secs, ToolKind::kleb);
    const double record = secsOf(secs, ToolKind::perfRecord);
    const double limit = secsOf(secs, ToolKind::limit);
    const double stat = secsOf(secs, ToolKind::perfStat);
    const double papi = secsOf(secs, ToolKind::papi);
    if (!(kleb < record && record < limit && limit < stat &&
          stat <= papi)) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "Table II order broken: K-LEB %.6f, perf record "
                      "%.6f, LiMiT %.6f, perf stat %.6f, PAPI %.6f s",
                      kleb, record, limit, stat, papi);
        problems->push_back(buf);
    }
}

/** Table III: PAPI has the largest overhead on dgemm. */
void
checkTableIII(const ToolSeconds &secs, Problems *problems)
{
    const double papi = secsOf(secs, ToolKind::papi);
    for (ToolKind tool : {ToolKind::none, ToolKind::kleb,
                          ToolKind::perfStat, ToolKind::perfRecord}) {
        if (!(secsOf(secs, tool) < papi))
            problems->push_back(
                std::string("Table III: PAPI is not slower than ") +
                klebsim::tools::toolName(tool) + " on dgemm");
    }
}

/** CounterPoint-style identities every run's counters must obey. */
void
checkCounterIdentities(const hw::EventVector &ev,
                       const std::string &label, Problems *problems)
{
    auto get = [&](HwEvent e) { return hw::at(ev, e); };
    if (get(HwEvent::llcMiss) > get(HwEvent::llcReference))
        problems->push_back(label + ": llcMiss > llcReference");
    if (get(HwEvent::l2Miss) > get(HwEvent::l2Reference))
        problems->push_back(label + ": l2Miss > l2Reference");
    if (get(HwEvent::l1dMiss) > get(HwEvent::l1dReference))
        problems->push_back(label + ": l1dMiss > l1dReference");
    if (get(HwEvent::loadRetired) + get(HwEvent::storeRetired) >
        get(HwEvent::instRetired))
        problems->push_back(label +
                            ": loads + stores > instructions");
}

bool
sameOutput(const RunResult &a, const RunResult &b)
{
    return a.supported == b.supported && a.lifetime == b.lifetime &&
           a.trueTotals == b.trueTotals && a.totals == b.totals &&
           a.samples == b.samples && a.flops == b.flops;
}

class PaperTables : public Workload
{
  public:
    explicit PaperTables(std::uint64_t seed) : seed_(seed) {}

    void
    setUp() override
    {
        cells_ = makeCells(seed_);
        // Warm-up: the baseline matmul run.
        klebsim::tools::runOnce(cells_.front().cfg);
    }

    std::size_t steps() const override { return cells_.size(); }

    StepWork
    step(std::size_t i) override
    {
        if (i == 0) {
            latest_.assign(cells_.size(), RunResult{});
            ran_.assign(cells_.size(), false);
        }
        try {
            latest_[i] = klebsim::tools::runOnce(cells_[i].cfg);
            ran_[i] = true;
            return {1, 0};
        } catch (const std::exception &) {
            return {1, 1};
        }
    }

    std::uint64_t
    settleRound(Problems *problems) override
    {
        std::uint64_t differed = 0;
        if (first_.empty()) {
            first_ = std::move(latest_);
            firstRan_ = ran_;
        } else {
            for (std::size_t i = 0; i < cells_.size(); ++i) {
                if (!ran_[i] || !firstRan_[i])
                    continue;
                if (!sameOutput(latest_[i], first_[i])) {
                    ++differed;
                    problems->push_back(
                        label(i) + ": output differs from round 1");
                }
            }
        }
        latest_.clear();
        return differed;
    }

    void
    check(Problems *problems) override
    {
        ToolSeconds loop{}, dgemm{};
        const hw::EventVector *baseline[2] = {nullptr, nullptr};
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            if (!firstRan_[i])
                continue;
            const RunResult &r = first_[i];
            const Cell &c = cells_[i];
            sim_seconds_ += r.seconds;
            sim_inst_ += static_cast<double>(
                hw::at(r.trueTotals, HwEvent::instRetired));
            if (!r.supported) {
                problems->push_back(label(i) + ": tool did not run");
                continue;
            }
            (c.dgemm ? dgemm : loop)[static_cast<std::size_t>(
                c.tool)] = r.seconds;
            checkRun(i, problems);
            if (c.tool == ToolKind::none)
                baseline[c.dgemm] = &r.trueTotals;
        }
        // The program's own loads and stores do not depend on the
        // tool watching it.
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const hw::EventVector *base = baseline[cells_[i].dgemm];
            if (!firstRan_[i] || base == nullptr)
                continue;
            for (HwEvent e : {HwEvent::loadRetired,
                              HwEvent::storeRetired}) {
                if (hw::at(first_[i].trueTotals, e) !=
                    hw::at(*base, e))
                    problems->push_back(
                        label(i) + ": " + hw::eventName(e) +
                        " differs from the unmonitored run");
            }
        }
        checkTableII(loop, problems);
        checkTableIII(dgemm, problems);

        // Self-test: the same table with K-LEB and PAPI swapped must
        // fail the Table II check.
        ToolSeconds reordered = loop;
        std::swap(reordered[static_cast<std::size_t>(ToolKind::kleb)],
                  reordered[static_cast<std::size_t>(ToolKind::papi)]);
        Problems caught;
        checkTableII(reordered, &caught);
        if (caught.empty())
            problems->push_back(
                "self-test: the Table II check passed a reordered "
                "tool table");
    }

    double simSeconds() const override { return sim_seconds_; }
    double simInstructions() const override { return sim_inst_; }

  private:
    std::string
    label(std::size_t i) const
    {
        return std::string(cells_[i].dgemm ? "dgemm/" : "matmul/") +
               klebsim::tools::toolName(cells_[i].tool);
    }

    void
    checkRun(std::size_t i, Problems *problems) const
    {
        const RunResult &r = first_[i];
        const Cell &c = cells_[i];
        const std::uint64_t want = programInstructions(c.dgemm);
        const std::uint64_t inst =
            hw::at(r.trueTotals, HwEvent::instRetired);
        // PAPI and LiMiT run their read points inside the program,
        // at kernel level: more ground-truth instructions, but the
        // same user-mode count reported.
        if (addsNoCode(c.tool) ? inst != want : inst <= want)
            problems->push_back(
                label(i) + ": retired " + std::to_string(inst) +
                " instructions, program has " + std::to_string(want));
        if (c.tool != ToolKind::none &&
            c.tool != ToolKind::perfRecord &&
            (r.totals.empty() || r.totals[0] != want))
            problems->push_back(
                label(i) + ": tool-reported instructions differ from " +
                std::to_string(want));
        if (std::fabs(r.flops - expectedFlops) > 1e-9 * expectedFlops)
            problems->push_back(label(i) + ": completed FLOPs " +
                                std::to_string(r.flops) +
                                " != 2n^3");
        checkCounterIdentities(r.trueTotals, label(i), problems);
    }

    std::uint64_t seed_;
    std::vector<Cell> cells_;
    std::vector<RunResult> latest_, first_;
    std::vector<bool> ran_, firstRan_;
    double sim_seconds_ = 0.0;
    double sim_inst_ = 0.0;
};

/** Address count the chunk engine samples over a phase. */
std::size_t
sampledAddresses(std::uint64_t phase_instructions)
{
    const std::uint64_t chunk = 100000; // PhaseWorkload's default
    const std::uint64_t chunks = (phase_instructions + chunk - 1) / chunk;
    return static_cast<std::size_t>(
        chunks * hw::MachineConfig::corei7_920().memSampleCap);
}

/**
 * Replay the compute phase's address stream of one program outside
 * a machine: generate it with fillBatch, then feed it to a fresh
 * i7-920 hierarchy.
 */
void
replayStream(bool dgemm, std::uint64_t seed, LayerSamples *out,
             double *gen_s, double *access_s, std::size_t *addresses)
{
    const std::uint64_t matrix_bytes =
        static_cast<std::uint64_t>(3.0 * nD * nD * 8.0);
    // The specs of matmul.cc's triple-loop and dgemm phases.
    const wl::MemPatternSpec spec =
        dgemm ? wl::MemPatternSpec::hotCold(256 * 1024, matrix_bytes,
                                            0.998, 0.08)
              : wl::MemPatternSpec::hotCold(128 * 1024, matrix_bytes,
                                            0.995, 0.04);
    const std::uint64_t phase_inst =
        dgemm ? static_cast<std::uint64_t>(expectedFlops / 5.33) * 2
              : static_cast<std::uint64_t>(expectedFlops / 2.0 * 8.0);
    const std::size_t n = sampledAddresses(phase_inst);
    const std::uint32_t cap =
        hw::MachineConfig::corei7_920().memSampleCap;

    auto stream = wl::makeAddressStream(
        spec, 0x10000000,
        Random(klebsim::bench::trialSeed(seed, 0xadd, dgemm)));
    std::vector<Addr> addrs(n);
    std::vector<std::uint8_t> writes(n);
    double t0 = wallNow();
    for (std::size_t at = 0; at < n; at += cap)
        stream->fillBatch(addrs.data() + at, writes.data() + at,
                          std::min<std::size_t>(cap, n - at));
    *gen_s += wallNow() - t0;

    const hw::MachineConfig cfg = hw::MachineConfig::corei7_920();
    hw::Cache llc("LLC", cfg.llc, Random(seed ^ 0x11c));
    hw::MemHierarchy mem(cfg, &llc, Random(seed ^ 0xc0de));
    std::uint64_t sink = 0;
    t0 = wallNow();
    for (std::size_t i = 0; i < n; ++i)
        sink += mem.access(addrs[i], writes[i] != 0).cycles;
    *access_s += wallNow() - t0;
    *addresses += n;

    const std::string prog = dgemm ? "dgemm" : "matmul";
    // Exact work counts behind the rates (deterministic per seed).
    out->count(prog + ".addresses", static_cast<double>(n));
    out->count(prog + ".l1_accesses",
               static_cast<double>(mem.l1().stats().accesses()));
    out->count(prog + ".l2_accesses",
               static_cast<double>(mem.l2().stats().accesses()));
    out->count(prog + ".llc_accesses",
               static_cast<double>(llc.stats().accesses()));
    out->count(prog + ".llc_misses",
               static_cast<double>(llc.stats().misses));
    out->count(prog + ".access_cycles", static_cast<double>(sink));
}

} // anonymous namespace

std::unique_ptr<Workload>
makePaperTables(std::uint64_t seed)
{
    return std::make_unique<PaperTables>(seed);
}

void
tracePaperTables(std::uint64_t seed, LayerSamples *out,
                 Problems *problems)
{
    std::vector<Cell> cells = makeCells(seed);
    std::array<double, 6> cpu{};
    for (const Cell &c : cells) {
        const double t0 = cpuNow();
        RunResult r = klebsim::tools::runOnce(c.cfg);
        cpu[static_cast<std::size_t>(c.tool)] += cpuNow() - t0;
        if (!r.supported)
            problems->push_back(std::string("traced ") +
                                klebsim::tools::toolName(c.tool) +
                                " did not run");
    }
    for (ToolKind tool : klebsim::tools::allTools())
        out->add(std::string("tools.") + toolSlug(tool) +
                     ".run_cpu_s",
                 cpu[static_cast<std::size_t>(tool)], "s");

    double gen_s = 0.0, access_s = 0.0;
    std::size_t addresses = 0;
    for (bool dgemm : {false, true})
        replayStream(dgemm, seed, out, &gen_s, &access_s, &addresses);
    const double n = static_cast<double>(addresses);
    out->add("workload.addr_gen_ns", gen_s * 1e9 / n, "ns/address");
    out->add("hw.mem_access_ns", access_s * 1e9 / n, "ns/access");
}

} // namespace e2e
