/**
 * @file
 * The tool-comparison harness: runs one workload under one
 * monitoring tool (or none) on a fresh simulated machine and
 * reports lifetime, sample counts, and counter totals in a uniform
 * shape.  Every overhead table and accuracy figure bench is built
 * on repeated runOnce() calls.
 */

#ifndef KLEBSIM_TOOLS_HARNESS_HH
#define KLEBSIM_TOOLS_HARNESS_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/random.hh"
#include "hw/exec_types.hh"
#include "hw/machine_config.hh"
#include "kernel/cost_model.hh"
#include "kleb/kleb_config.hh"
#include "kleb/rate_governor.hh"
#include "kleb/supervisor.hh"
#include "stats/time_series.hh"

namespace klebsim::tools
{

/** Which monitoring tool a run uses. */
enum class ToolKind
{
    none,
    kleb,
    perfStat,
    perfRecord,
    papi,
    limit,
};

/** Display name ("K-LEB", "perf stat", ...). */
const char *toolName(ToolKind kind);

/** All tools, in the paper's table order. */
const std::vector<ToolKind> &allTools();

/** Configuration of one run. */
struct RunConfig
{
    ToolKind tool = ToolKind::none;

    /**
     * Factory for the workload under test; invoked with the data
     * region base address and the run's random stream.  The
     * returned object must stay alive for the run (the harness
     * keeps it).
     */
    std::function<std::unique_ptr<hw::WorkSource>(Addr, Random)>
        workloadFactory;

    /** Events every tool records. */
    std::vector<hw::HwEvent> events = {
        hw::HwEvent::instRetired, hw::HwEvent::loadRetired,
        hw::HwEvent::storeRetired, hw::HwEvent::branchRetired};

    /** Timer period for the timer-based tools. */
    Tick period = msToTicks(10);

    /** Read-point spacing for the instrumented tools
     *  (instructions); 0 derives it so point count matches the
     *  timer-based sample count for `expectedLifetime`. */
    std::uint64_t instrumentEveryInstr = 0;

    /** Rough expected workload duration (for auto spacing). */
    Tick expectedLifetime = secToTicks(2.0);

    /** Rough expected instruction count (for auto spacing). */
    std::uint64_t expectedInstructions = 8000000000ULL;

    std::uint64_t seed = 1;
    hw::MachineConfig machine = hw::MachineConfig::corei7_920();
    kernel::CostModel costs{};
    CoreId core = 0;

    /** LiMiT kernel patch present on this machine? */
    bool limitPatchAvailable = true;

    /** Count kernel-mode events too. */
    bool countKernel = false;

    /** Use the ideal (jitter-free) timer; unit tests only. */
    bool idealTimer = false;

    /**
     * Fault-injection plan spec (src/fault/fault_plan.hh), e.g.
     * "pmu.width=24;ioctl.fail=0.2".  Empty (the default) runs the
     * machine fault-free and byte-identical to a build without the
     * fault subsystem.
     */
    std::string faultSpec;

    /**
     * @{ Crash-survivable monitoring (tool == kleb only; DESIGN.md
     * section 11).  All off by default — a plain run stays
     * byte-identical to builds without the recovery subsystem.
     */

    /** Supervise the controller (implies a durable log). */
    bool supervise = false;

    /** Journal drained samples to the durable log. */
    bool durableLog = false;

    /** Heartbeat staleness treated as a hang; 0 keeps the default. */
    Tick heartbeatTimeout = 0;

    /** Restart budget; negative keeps the default. */
    int restartBudget = -1;

    /** First restart backoff; 0 keeps the default. */
    Tick restartBackoff = 0;

    /**
     * Keep a copy of the raw durable-log medium (post fault
     * corruption) in RunResult::durableBytes.  The harness never
     * reads the log back: callers that want the recovered samples
     * run kleb::LogRecovery::scan over those bytes themselves (the
     * fleet uplink, the crash-recovery ablation).
     */
    bool keepDurableBytes = false;

    /** @} */

    /**
     * @{ Adaptive sampling (tool == kleb only).  Off by default:
     * fixed-rate runs stay byte-identical to builds without the
     * governor.
     */

    /** Drive the period with a RateGovernor. */
    bool adaptive = false;

    /** Overhead budget as a fraction (0.01 = 1%); 0 = default. */
    double overheadBudget = 0.0;

    /** Fastest allowed adaptive period; 0 keeps the 100 us floor. */
    Tick minPeriod = 0;

    /** Slowest allowed adaptive period; 0 keeps the default. */
    Tick maxPeriod = 0;

    /** @} */

    /** Hard cap on simulated time (safety against hangs). */
    Tick simLimit = secToTicks(120.0);
};

/** Outcome of one run. */
struct RunResult
{
    ToolKind tool = ToolKind::none;
    bool supported = true;     //!< false: tool can't run (LiMiT/MKL)

    Tick lifetime = 0;         //!< tool launch -> workload exit
    double seconds = 0.0;

    /** Tool-reported totals for RunConfig::events (empty: none). */
    std::vector<std::uint64_t> totals;

    /** Ground-truth user+kernel totals from the exec context. */
    hw::EventVector trueTotals{};

    /** FLOPs the workload completed (GFLOPS reporting). */
    double flops = 0.0;

    std::size_t samples = 0;   //!< samples / read points recorded

    /** Sample series for tools that produce one. */
    std::optional<stats::TimeSeries> series;

    /** K-LEB module status (tool == kleb only). */
    kleb::KLebStatus klebStatus{};

    /** @{ Fault-run outcome (zero/false on fault-free runs). */

    /** Total injections the fault plan performed. */
    std::uint64_t faultsInjected = 0;

    /** K-LEB controller gave up mid-session (partial log kept). */
    bool klebAborted = false;

    /** Transient chardev failures the controller retried through. */
    std::uint64_t klebRetries = 0;

    /** insmod attempts the K-LEB session needed (0 = not kleb). */
    int klebLoadAttempts = 0;

    /** @} */

    /** @{ Crash-recovery outcome (durable-log runs only). */

    /** Raw durable-log medium (RunConfig::keepDurableBytes only). */
    std::vector<std::uint8_t> durableBytes;

    /** Supervisor bookkeeping (zero when unsupervised). */
    kleb::SupervisorStats supervisor{};

    /** @} */

    /** Governor bookkeeping (zero unless RunConfig::adaptive). */
    kleb::RateGovernor::Stats governor{};

    /** Context switches the kernel performed during the run. */
    std::uint64_t contextSwitches = 0;
};

/** Execute one run. */
RunResult runOnce(const RunConfig &cfg);

/**
 * Run @p runs repetitions and return the per-run lifetimes in
 * seconds.  Per-trial seeds are derived by the shared splitmix64
 * mixer from (cfg.seed, cfg.tool, trialIndex) — see
 * bench_support/trial_pool.hh — so adjacent trials never run
 * correlated PCG32 streams.  Trials fan out across @p jobs worker
 * threads (each on a fresh simulated machine); results are
 * identical for every jobs value.
 */
std::vector<double> runMany(RunConfig cfg, int runs,
                            unsigned jobs = 1);

/**
 * Mean overhead of @p tool versus baseline runs, in percent:
 * (mean(tool) - mean(none)) / mean(none) * 100.
 */
double overheadPct(const std::vector<double> &tool_secs,
                   const std::vector<double> &baseline_secs);

} // namespace klebsim::tools

#endif // KLEBSIM_TOOLS_HARNESS_HH
