/**
 * @file
 * Ablation: crash-survivable monitoring (DESIGN.md section 11).
 *
 * Runs the same workload under a *supervised* K-LEB session while
 * the fault injector kills or wedges the controller at different
 * points of the run — and, post-run, tears or bit-flips the durable
 * log — then reports what the recovery scan salvages: samples
 * recovered vs. collected, frame accounting (kept / dropped /
 * vanished, which must balance against the writer's count exactly),
 * outage gap length, restart count and latency.  The fault-free row
 * is the control: supervision alone must lose nothing and leave no
 * gap.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "kleb/log_recovery.hh"
#include "tools/harness.hh"
#include "workload/microbench.hh"

using namespace klebsim;
using namespace klebsim::bench;
using namespace klebsim::tools;
using klebsim::workload::FixedWorkSource;
using klebsim::workload::computeChunk;

namespace
{

struct Scenario
{
    const char *label;
    const char *spec;
};

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = BenchArgs::parse(argc, argv);
    const std::size_t chunks = args.quick ? 60 : 200;

    banner("Ablation: controller crashes vs supervised recovery");

    const std::vector<Scenario> scenarios = {
        {"no faults", ""},
        {"crash @ 8ms", "controller.crash=8ms"},
        {"crash @ 16ms", "controller.crash=16ms"},
        {"crash @ 24ms", "controller.crash=24ms"},
        {"crash @ 32ms", "controller.crash=32ms"},
        {"hang @ 12ms", "controller.hang=12ms"},
        {"crash + torn tail",
         "controller.crash=16ms;log.torn_tail=200"},
        {"crash + bitflips", "controller.crash=16ms;log.bitflip=4"},
    };

    std::vector<RunResult> results = runTrials(
        args.jobs, scenarios.size(), [&](std::size_t k) {
            RunConfig cfg;
            cfg.tool = ToolKind::kleb;
            cfg.seed = 9;
            cfg.period = msToTicks(1);
            cfg.supervise = true;
            cfg.keepDurableBytes = true;
            // Must comfortably exceed the controller's 10 ms drain
            // cadence (each successful drain is a heartbeat), while
            // still catching the hang row within the run.
            cfg.heartbeatTimeout = msToTicks(15);
            cfg.expectedLifetime = msToTicks(40);
            cfg.expectedInstructions =
                static_cast<std::uint64_t>(chunks) * 1000000ULL;
            cfg.faultSpec = scenarios[k].spec;
            cfg.workloadFactory = [chunks](Addr, Random) {
                std::vector<hw::WorkChunk> work(
                    chunks, computeChunk(1000000, 2.0));
                return std::make_unique<FixedWorkSource>(
                    std::move(work));
            };
            return runOnce(cfg);
        });

    Table table({"Scenario", "Lifetime (ms)", "Samples",
                 "Recovered", "Kept", "Dropped", "Vanished",
                 "Gap (ms)", "Restarts", "Outage (ms)", "Balanced",
                 "Injections"});
    for (std::size_t k = 0; k < scenarios.size(); ++k) {
        const RunResult &r = results[k];
        const kleb::RecoveryReport rec =
            kleb::LogRecovery::scan(r.durableBytes).report;
        table.addRow(
            {scenarios[k].label, toFixed(ticksToMs(r.lifetime), 2),
             std::to_string(r.samples),
             std::to_string(rec.samplesRecovered),
             std::to_string(rec.framesKept),
             std::to_string(rec.framesDropped),
             std::to_string(rec.framesVanished),
             toFixed(ticksToMs(rec.gapTicks), 2),
             std::to_string(r.supervisor.restarts),
             toFixed(ticksToMs(r.supervisor.totalOutage), 2),
             rec.balanced() ? "yes" : "NO",
             std::to_string(r.faultsInjected)});
    }
    table.print();
    if (args.csv)
        table.printCsv();

    std::printf("\nShape check: every row balances (kept + dropped "
                "+ vanished = emitted); the fault-free row shows "
                "zero restarts and zero gap; crash rows recover "
                "both the pre-crash and post-restart epochs with "
                "one gap covering the outage; torn tails and "
                "bitflips shrink 'Kept', never the balance.\n");
    return 0;
}
