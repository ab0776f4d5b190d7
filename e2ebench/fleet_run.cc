/**
 * @file
 * Workload `fleet`: one runFleet over a thousand 2-core machines at
 * 100 us, with link drops and delays, machine crashes and one
 * collector crash.  Many short machine simulations make cold-cache
 * machine construction, journal CRCs, the lossy link, the
 * sequential collector merge with its journal replay, and the pool
 * dominate.
 */

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariants.hh"
#include "base/random.hh"
#include "bench_support/trial_pool.hh"
#include "fault/fault_plan.hh"
#include "fleet/fleet.hh"
#include "fleet/machine.hh"
#include "hw/cache.hh"
#include "hw/machine_config.hh"
#include "hw/mem_hierarchy.hh"
#include "kleb/durable_log.hh"
#include "workload.hh"

namespace e2e
{

namespace
{

namespace fleet = klebsim::fleet;
namespace hw = klebsim::hw;
using klebsim::Random;
using klebsim::Tick;
using klebsim::fault::FaultPlan;

constexpr std::uint32_t fleetMachines = 1000;
constexpr unsigned poolWidth = 2;

/** Link faults and machine crashes; the collector crashes once. */
const char *const chaosSpec =
    "machine.crash=0.02;link.drop=0.01;link.delay=0.05;"
    "link.delay.by=500us";
const char *const collectorCrash = ";collector.crash=1ms";

fleet::FleetConfig
makeConfig(std::uint64_t seed)
{
    fleet::FleetConfig cfg;
    cfg.machines = fleetMachines;
    cfg.coresPerMachine = 2;
    cfg.rackSize = 32;
    cfg.seed = seed;
    cfg.jobs = poolWidth;
    cfg.period = klebsim::usToTicks(100);
    cfg.faultSpec = std::string(chaosSpec) + collectorCrash;
    return cfg;
}

FaultPlan
parsePlan(const std::string &spec)
{
    FaultPlan plan;
    std::string err;
    if (!FaultPlan::parse(spec, &plan, &err))
        throw std::runtime_error("bad fleet fault spec: " + err);
    return plan;
}

fleet::MachineParams
machineParams(const fleet::FleetConfig &cfg, fleet::MachineId id)
{
    fleet::MachineParams p;
    p.id = id;
    p.seed = cfg.seed;
    p.cores = cfg.coresPerMachine;
    p.period = cfg.period;
    return p;
}

/** checkFleetBalance from the repository's invariant checker. */
void
checkBalance(const fleet::FleetResult &r, Problems *problems)
{
    klebsim::analysis::InvariantChecker checker;
    checker.checkFleetBalance(r, "fleet");
    for (const std::string &v : checker.violations())
        problems->push_back(v);
}

/** Every shard's deliveries, in machine order. */
std::vector<fleet::Delivery>
spliceDeliveries(const std::vector<fleet::MachineShardResult> &shards)
{
    std::vector<fleet::Delivery> all;
    for (const fleet::MachineShardResult &s : shards)
        all.insert(all.end(), s.deliveries.begin(), s.deliveries.end());
    return all;
}

class Fleet : public Workload
{
  public:
    explicit Fleet(std::uint64_t seed) : cfg_(makeConfig(seed)) {}

    void
    setUp() override
    {
        plan_ = parsePlan(cfg_.faultSpec);
        pool_ = std::make_unique<klebsim::bench::TrialPool>(poolWidth);
        // Warm-up: one machine simulation, on the pool.
        pool_->map(1, [&](std::size_t) {
            return fleet::runMachine(machineParams(cfg_, 0)).produced;
        });
    }

    /** One runFleet: every machine simulation is an operation. */
    std::size_t steps() const override { return 1; }

    StepWork
    step(std::size_t) override
    {
        StepWork work{cfg_.machines, 0};
        ok_ = false;
        try {
            latest_ = fleet::runFleet(cfg_);
            work.failed = latest_.simFailures.size();
            ok_ = true;
        } catch (const std::exception &) {
            work.failed = work.attempted;
        }
        return work;
    }

    std::uint64_t
    settleRound(Problems *problems) override
    {
        if (!ok_)
            return 0;
        if (!haveFirst_) {
            first_ = std::move(latest_);
            haveFirst_ = true;
            return 0;
        }
        std::uint64_t differed = 0;
        if (latest_.csvDigest != first_.csvDigest ||
            latest_.treeDigest != first_.treeDigest ||
            latest_.aggregateAccounted != first_.aggregateAccounted) {
            differed = cfg_.machines - latest_.simFailures.size();
            problems->push_back("fleet differs from round 1");
        }
        latest_ = fleet::FleetResult{};
        return differed;
    }

    void
    check(Problems *problems) override
    {
        if (!haveFirst_)
            return;
        checkBalance(first_, problems);
        if (klebsim::kleb::crc32c(
                reinterpret_cast<const std::uint8_t *>(
                    first_.csv.data()),
                first_.csv.size()) != first_.csvDigest)
            problems->push_back("CSV digest is not the CRC of the CSV");
        if (first_.collector.restarts != 1)
            problems->push_back("the collector crash did not happen "
                                "exactly once");

        // The same fleet at pool width 1 without the collector crash
        // must aggregate to the same bytes.
        fleet::FleetConfig ref_cfg = cfg_;
        ref_cfg.jobs = 1;
        ref_cfg.faultSpec = chaosSpec;
        const fleet::FleetResult ref = fleet::runFleet(ref_cfg);
        if (ref.collector.restarts != 0)
            problems->push_back("reference fleet restarted");
        if (ref.csvDigest != first_.csvDigest ||
            ref.treeDigest != first_.treeDigest)
            problems->push_back(
                "fleet digests differ from the width-1 crash-free "
                "collector run");

        measureSimulated(problems);

        // Self-test: one extra kept record must unbalance the ledger.
        fleet::FleetResult bad = first_;
        bad.accounts.front().kept += 1;
        Problems caught;
        checkBalance(bad, &caught);
        if (caught.empty())
            problems->push_back(
                "self-test: the balance check passed an unbalanced "
                "ledger");
    }

    double simSeconds() const override { return sim_seconds_; }
    double simInstructions() const override { return sim_inst_; }

  private:
    /**
     * Simulated time and instructions: per machine-core, the last
     * sample that reached the collector (its timestamp and
     * cumulative instructions), summed.  Phases 1+2 are rerun here
     * because runFleet keeps no per-core timestamps; their ledgers
     * must match the fleet's.
     */
    void
    measureSimulated(Problems *problems)
    {
        std::vector<klebsim::bench::TrialFailure> failures;
        const std::vector<fleet::MachineShardResult> shards =
            fleet::simulateMachines(cfg_, plan_, *pool_, &failures);
        std::map<std::pair<fleet::MachineId, std::uint16_t>,
                 std::pair<Tick, std::uint64_t>>
            last;
        for (const fleet::MachineShardResult &s : shards) {
            const fleet::MachineAccount &a = s.account;
            const fleet::MachineAccount &b =
                first_.accounts[a.machine];
            if (a.produced != b.produced || a.sent != b.sent ||
                a.dropped != b.dropped || a.delayed != b.delayed ||
                a.crashed != b.crashed)
                problems->push_back(
                    "machine " + std::to_string(a.machine) +
                    ": phases 1+2 ledger differs from runFleet's");
            for (const fleet::Delivery &d : s.deliveries) {
                auto &slot = last[{d.rec.machine, d.rec.core}];
                slot.first = std::max(slot.first, d.rec.ts);
                slot.second = std::max(slot.second, d.rec.counts[0]);
            }
        }
        for (const auto &[core, ts_inst] : last) {
            sim_seconds_ += klebsim::ticksToSec(ts_inst.first);
            sim_inst_ += static_cast<double>(ts_inst.second);
        }
    }

    fleet::FleetConfig cfg_;
    FaultPlan plan_;
    std::unique_ptr<klebsim::bench::TrialPool> pool_;
    fleet::FleetResult latest_, first_;
    bool ok_ = false;
    bool haveFirst_ = false;
    double sim_seconds_ = 0.0;
    double sim_inst_ = 0.0;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeFleet(std::uint64_t seed)
{
    return std::make_unique<Fleet>(seed);
}

void
traceFleet(std::uint64_t seed, LayerSamples *out, Problems *problems)
{
    const fleet::FleetConfig cfg = makeConfig(seed);
    const FaultPlan plan = parsePlan(cfg.faultSpec);
    klebsim::bench::TrialPool pool(poolWidth);

    // Phases 1+2 at the workload's pool width.
    std::vector<klebsim::bench::TrialFailure> failures;
    double w0 = wallNow(), c0 = cpuNow();
    const std::vector<fleet::MachineShardResult> shards =
        fleet::simulateMachines(cfg, plan, pool, &failures);
    const double p12_wall = wallNow() - w0;
    const double p12_cpu = cpuNow() - c0;
    if (!failures.empty())
        problems->push_back(std::to_string(failures.size()) +
                            " traced machine simulations died");
    out->add("fleet.phase12_wall_s", p12_wall, "s");
    out->add("fleet.phase12_cpu_s", p12_cpu, "s");
    out->add("bench_support.pool_efficiency",
             p12_cpu / (poolWidth * p12_wall), "ratio");

    // Phase 3 as runFleet drives it: the sorted stream through one
    // collector.
    std::vector<fleet::Delivery> deliveries = spliceDeliveries(shards);
    std::sort(deliveries.begin(), deliveries.end(),
              fleet::deliveryBefore);
    fleet::CollectorConfig ccfg;
    ccfg.machines = cfg.machines;
    ccfg.coresPerMachine = cfg.coresPerMachine;
    ccfg.rackSize = cfg.rackSize;
    ccfg.heartbeatTimeout = cfg.heartbeatTimeout;
    ccfg.probeBudget = cfg.probeBudget;
    ccfg.drainCost = cfg.drainCost;
    ccfg.backpressureLag = cfg.backpressureLag;
    ccfg.checkpointEvery = cfg.checkpointEvery;
    ccfg.crashAt = plan.collectorCrashAt;
    fleet::Collector collector(ccfg);
    c0 = cpuNow();
    collector.ingest(deliveries);
    const Tick last_arrival =
        deliveries.empty() ? 0 : deliveries.back().arrival;
    collector.finish(last_arrival + collector.quarantineAfter() + 1);
    const double merge_cpu = cpuNow() - c0;
    out->add("fleet.collector_ns_per_delivery",
             merge_cpu * 1e9 / static_cast<double>(deliveries.size()),
             "ns/delivery");

    std::vector<double> digest_us;
    std::uint32_t digest = 0;
    for (int i = 0; i < 9; ++i) {
        c0 = cpuNow();
        digest = collector.tree().digest();
        digest_us.push_back((cpuNow() - c0) * 1e6);
    }
    out->add("fleet.tree_digest_us", median(digest_us), "us");

    // One machine at a time, healthy, then its uplink.
    constexpr fleet::MachineId sampled = 64;
    fleet::LinkParams link;
    link.baseLatency = cfg.linkLatency;
    link.jitterMax = cfg.linkJitter;
    link.dropProb = plan.linkDropProb;
    link.delayProb = plan.linkDelayProb;
    link.delayBy = plan.linkDelayBy;
    std::vector<double> machine_ms;
    double link_cpu = 0.0;
    std::uint64_t transmitted = 0;
    for (fleet::MachineId m = 0; m < sampled; ++m) {
        c0 = cpuNow();
        const fleet::MachineOutput mo =
            fleet::runMachine(machineParams(cfg, m));
        machine_ms.push_back((cpuNow() - c0) * 1e3);
        std::vector<fleet::Delivery> arrivals;
        c0 = cpuNow();
        fleet::transmit(mo, link, cfg.seed, &arrivals);
        link_cpu += cpuNow() - c0;
        transmitted += mo.records.size();
    }
    out->add("fleet.machine_ms", median(machine_ms), "ms");
    out->add("fleet.link_us", link_cpu * 1e6 / sampled, "us/machine");

    // One simulated machine's caches, built as kernel::System builds
    // them: a shared LLC and a private L1D + L2 per core.
    const hw::MachineConfig mc = hw::MachineConfig::corei7_920();
    constexpr int builds = 200;
    c0 = cpuNow();
    for (int b = 0; b < builds; ++b) {
        hw::Cache llc("LLC", mc.llc, Random(seed + b));
        std::vector<std::unique_ptr<hw::MemHierarchy>> cores;
        for (int c = 0; c < mc.numCores; ++c)
            cores.push_back(std::make_unique<hw::MemHierarchy>(
                mc, &llc, Random(seed + b * 8 + c)));
    }
    out->add("hw.cache_build_us", (cpuNow() - c0) * 1e6 / builds,
             "us/machine");

    out->count("fleet.deliveries_merged",
               static_cast<double>(deliveries.size()));
    out->count("fleet.collector_accepted",
               static_cast<double>(collector.stats().accepted));
    out->count("fleet.collector_replayed",
               static_cast<double>(collector.stats().replayedRecords));
    out->count("fleet.tree_digest", static_cast<double>(digest));
    out->count("fleet.sampled_machine_records",
               static_cast<double>(transmitted));
}

} // namespace e2e
