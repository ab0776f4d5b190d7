#include <gtest/gtest.h>

#include "kleb/log_recovery.hh"
#include "tools/harness.hh"
#include "workload/microbench.hh"

using namespace klebsim;
using namespace klebsim::tools;
using klebsim::workload::FixedWorkSource;
using klebsim::workload::computeChunk;

namespace
{

RunConfig
smallConfig(ToolKind tool)
{
    RunConfig cfg;
    cfg.tool = tool;
    cfg.costs.costSigma = 0.0;
    cfg.costs.runSigma = 0.0;
    cfg.period = msToTicks(10);
    cfg.expectedLifetime = msToTicks(37);
    cfg.expectedInstructions = 200000000;
    cfg.workloadFactory = [](Addr, Random) {
        std::vector<hw::WorkChunk> chunks(
            200, computeChunk(1000000, 2.0));
        return std::make_unique<FixedWorkSource>(
            std::move(chunks));
    };
    return cfg;
}

} // namespace

TEST(Harness, ToolNames)
{
    EXPECT_STREQ(toolName(ToolKind::none), "no-profiling");
    EXPECT_STREQ(toolName(ToolKind::kleb), "K-LEB");
    EXPECT_STREQ(toolName(ToolKind::perfStat), "perf stat");
    EXPECT_EQ(allTools().size(), 6u);
}

TEST(Harness, BaselineRun)
{
    RunResult r = runOnce(smallConfig(ToolKind::none));
    EXPECT_TRUE(r.supported);
    EXPECT_NEAR(r.seconds, 0.0375, 0.002);
    EXPECT_EQ(at(r.trueTotals, hw::HwEvent::instRetired),
              200000000u);
    EXPECT_TRUE(r.totals.empty());
}

TEST(Harness, EveryToolRuns)
{
    for (ToolKind tool : allTools()) {
        RunResult r = runOnce(smallConfig(tool));
        ASSERT_TRUE(r.supported) << toolName(tool);
        EXPECT_GT(r.seconds, 0.03) << toolName(tool);
        if (tool != ToolKind::none) {
            ASSERT_EQ(r.totals.size(), 4u) << toolName(tool);
            EXPECT_GT(r.samples, 0u) << toolName(tool);
        }
    }
}

TEST(Harness, ToolTotalsAgreeAcrossTools)
{
    // Fig. 9's premise: the same deterministic program measured by
    // different tools yields nearly identical architectural counts.
    std::vector<std::uint64_t> inst_counts;
    for (ToolKind tool : {ToolKind::kleb, ToolKind::perfStat,
                          ToolKind::perfRecord, ToolKind::papi,
                          ToolKind::limit}) {
        RunResult r = runOnce(smallConfig(tool));
        ASSERT_TRUE(r.supported);
        inst_counts.push_back(r.totals[0]);
    }
    std::uint64_t ref = inst_counts[0];
    for (std::uint64_t v : inst_counts) {
        double diff = std::abs(static_cast<double>(v) -
                               static_cast<double>(ref)) /
                      static_cast<double>(ref) * 100.0;
        // perf record's last-sample tail error scales with 1 /
        // lifetime; this scaled-down 37 ms run tolerates ~0.8 %,
        // while the full-length bench asserts the paper's 0.3 %.
        EXPECT_LT(diff, 0.8);
    }
}

TEST(Harness, LimitUnsupportedWithoutPatch)
{
    RunConfig cfg = smallConfig(ToolKind::limit);
    cfg.limitPatchAvailable = false;
    RunResult r = runOnce(cfg);
    EXPECT_FALSE(r.supported);
}

TEST(Harness, RunManyProducesDistinctSeeds)
{
    RunConfig cfg = smallConfig(ToolKind::none);
    cfg.costs.costSigma = 0.08;
    auto secs = runMany(cfg, 3);
    ASSERT_EQ(secs.size(), 3u);
    for (double s : secs)
        EXPECT_GT(s, 0.03);
}

TEST(Harness, OverheadPct)
{
    EXPECT_NEAR(overheadPct({1.05, 1.07}, {1.0, 1.0}), 6.0, 1e-9);
    EXPECT_NEAR(overheadPct({1.0}, {1.0}), 0.0, 1e-9);
}

TEST(Harness, KLebStatusPropagated)
{
    RunResult r = runOnce(smallConfig(ToolKind::kleb));
    EXPECT_GT(r.klebStatus.samplesRecorded, 0u);
    EXPECT_EQ(r.klebStatus.samplesDropped, 0u);
    ASSERT_TRUE(r.series.has_value());
    EXPECT_EQ(r.series->size(), r.samples);
}

TEST(Harness, KeptDurableLogScansBackToTheLiveSamples)
{
    RunConfig cfg = smallConfig(ToolKind::kleb);
    cfg.durableLog = true;
    cfg.keepDurableBytes = true;
    RunResult r = runOnce(cfg);
    ASSERT_FALSE(r.durableBytes.empty());
    kleb::RecoveryReport rep =
        kleb::LogRecovery::scan(r.durableBytes).report;
    EXPECT_TRUE(rep.valid);
    EXPECT_TRUE(rep.balanced());
    EXPECT_EQ(rep.samplesRecovered, r.samples);
    EXPECT_EQ(rep.framesDropped, 0u);
}

TEST(Harness, KeptDurableLogIsThePostCorruptionMedium)
{
    // The harness corrupts a copy of the medium after the run and
    // hands that copy back: the scan sees the flipped frames.
    RunConfig cfg = smallConfig(ToolKind::kleb);
    cfg.durableLog = true;
    cfg.keepDurableBytes = true;
    const RunResult clean = runOnce(cfg);
    cfg.faultSpec = "log.bitflip=4";
    const RunResult flipped = runOnce(cfg);
    ASSERT_EQ(flipped.durableBytes.size(), clean.durableBytes.size());
    EXPECT_NE(flipped.durableBytes, clean.durableBytes);
    kleb::RecoveryReport rep =
        kleb::LogRecovery::scan(flipped.durableBytes).report;
    EXPECT_TRUE(rep.valid);
    EXPECT_TRUE(rep.balanced());
    EXPECT_GT(rep.framesDropped, 0u);
}
