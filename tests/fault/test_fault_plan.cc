#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/random.hh"
#include "fault/fault_plan.hh"

using namespace klebsim;
using namespace klebsim::ticks_literals;
using fault::FaultPlan;
using fault::FaultPoint;
using fault::numFaultPoints;

TEST(FaultPlan, DefaultIsInert)
{
    FaultPlan plan;
    EXPECT_FALSE(plan.active());
    EXPECT_FALSE(plan.timerFaultsActive());
    EXPECT_FALSE(plan.chardevFaultsActive());
    EXPECT_FALSE(plan.readerStallActive());
    EXPECT_EQ(plan.str(), "");
}

TEST(FaultPlan, EmptySpecParsesInert)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("", &plan));
    EXPECT_FALSE(plan.active());
    ASSERT_TRUE(FaultPlan::parse("  ;  ; ", &plan));
    EXPECT_FALSE(plan.active());
}

TEST(FaultPlan, ParsesEveryKey)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse(
        "seed=7;timer.miss=0.1;timer.spike=0.05;timer.spike.us=80;"
        "pmu.width=24;ioctl.fail=0.2;read.fail=0.3;"
        "reader.stall=5ms;reader.stall.p=0.5;module.initfail=2;"
        "target.crash=2ms",
        &plan));
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_DOUBLE_EQ(plan.timerMissProb, 0.1);
    EXPECT_DOUBLE_EQ(plan.timerSpikeProb, 0.05);
    EXPECT_EQ(plan.timerSpikeLateness, 80_us);
    EXPECT_EQ(plan.counterWidth, 24);
    EXPECT_DOUBLE_EQ(plan.ioctlFailProb, 0.2);
    EXPECT_DOUBLE_EQ(plan.readFailProb, 0.3);
    EXPECT_EQ(plan.readerStall, 5_ms);
    EXPECT_DOUBLE_EQ(plan.readerStallProb, 0.5);
    EXPECT_EQ(plan.moduleInitFails, 2);
    EXPECT_EQ(plan.targetCrashAt, 2_ms);
    EXPECT_TRUE(plan.active());
}

TEST(FaultPlan, AdaptiveKeysParseAndRoundTrip)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse(
        "module.set_period=0.4;reprogram.crash=2", &plan));
    EXPECT_DOUBLE_EQ(plan.setPeriodFailProb, 0.4);
    EXPECT_EQ(plan.reprogramCrashNth, 2);
    EXPECT_TRUE(plan.active());
    FaultPlan again;
    ASSERT_TRUE(FaultPlan::parse(plan.str(), &again));
    EXPECT_EQ(again.str(), plan.str());

    std::string err;
    EXPECT_FALSE(
        FaultPlan::parse("module.set_period=1.5", &plan, &err));
    EXPECT_FALSE(
        FaultPlan::parse("reprogram.crash=-1", &plan, &err));
}

TEST(FaultPlan, WhitespaceTolerant)
{
    FaultPlan plan;
    ASSERT_TRUE(
        FaultPlan::parse(" pmu.width=16 ; ioctl.fail=0.5 ", &plan));
    EXPECT_EQ(plan.counterWidth, 16);
    EXPECT_DOUBLE_EQ(plan.ioctlFailProb, 0.5);
}

TEST(FaultPlan, DurationUnits)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("reader.stall=250us", &plan));
    EXPECT_EQ(plan.readerStall, 250_us);
    ASSERT_TRUE(FaultPlan::parse("reader.stall=40ns", &plan));
    EXPECT_EQ(plan.readerStall, 40_ns);
    ASSERT_TRUE(FaultPlan::parse("target.crash=1s", &plan));
    EXPECT_EQ(plan.targetCrashAt, secToTicks(1.0));
    // Bare numbers are ticks.
    ASSERT_TRUE(FaultPlan::parse("reader.stall=12345", &plan));
    EXPECT_EQ(plan.readerStall, 12345u);
}

TEST(FaultPlan, RejectsBadInput)
{
    FaultPlan plan;
    std::string err;
    EXPECT_FALSE(FaultPlan::parse("bogus.key=1", &plan, &err));
    EXPECT_NE(err.find("bogus.key"), std::string::npos);
    EXPECT_FALSE(FaultPlan::parse("timer.miss=1.5", &plan, &err));
    EXPECT_FALSE(FaultPlan::parse("timer.miss=-0.1", &plan, &err));
    EXPECT_FALSE(FaultPlan::parse("pmu.width=4", &plan, &err));
    EXPECT_FALSE(FaultPlan::parse("pmu.width=64", &plan, &err));
    EXPECT_FALSE(FaultPlan::parse("module.initfail=-1", &plan, &err));
    EXPECT_FALSE(FaultPlan::parse("reader.stall=10lightyears",
                                  &plan, &err));
    EXPECT_FALSE(FaultPlan::parse("justakey", &plan, &err));
    EXPECT_FALSE(FaultPlan::parse("=value", &plan, &err));
}

TEST(FaultPlan, RejectsDurationsOutsideTickRange)
{
    // Converting these to Tick would be undefined behaviour, and a
    // sub-tick spike lateness would render as an unparseable 0.
    FaultPlan plan;
    for (const char *spec :
         {"reader.stall=inf", "reader.stall=nan", "target.crash=1e30s",
          "controller.crash=-inf", "timer.spike.us=1e300",
          "timer.spike.us=nan", "timer.spike.us=1e-9"})
        EXPECT_FALSE(FaultPlan::parse(spec, &plan)) << spec;
    // Values at the edges of the range still parse.
    EXPECT_TRUE(FaultPlan::parse("reader.stall=18446744s", &plan));
    EXPECT_TRUE(FaultPlan::parse("timer.spike.us=0.000001", &plan));
}

TEST(FaultPlan, FailedParseLeavesOutputUntouched)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("pmu.width=24", &plan));
    ASSERT_EQ(plan.counterWidth, 24);
    EXPECT_FALSE(FaultPlan::parse("pmu.width=3", &plan));
    EXPECT_EQ(plan.counterWidth, 24);
    EXPECT_FALSE(FaultPlan::parse("pmu.width=16;nope=1", &plan));
    EXPECT_EQ(plan.counterWidth, 24);
}

TEST(FaultPlan, StrRoundTrips)
{
    const std::string spec =
        "seed=9;timer.miss=0.25;pmu.width=32;read.fail=0.1;"
        "reader.stall=3ms;module.initfail=1;target.crash=7ms";
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse(spec, &plan));
    FaultPlan again;
    ASSERT_TRUE(FaultPlan::parse(plan.str(), &again));
    EXPECT_EQ(again.str(), plan.str());
    EXPECT_EQ(again.seed, plan.seed);
    EXPECT_EQ(again.counterWidth, plan.counterWidth);
    EXPECT_EQ(again.readerStall, plan.readerStall);
    EXPECT_EQ(again.targetCrashAt, plan.targetCrashAt);
}

namespace
{

/** A spec that sets every key, written out of canonical order. */
const char *const everyKeySpec =
    "collector.crash=1s;link.delay.by=500us;link.delay=0.2;"
    "link.drop=0.1;machine.crash=0.3;pmu.contend=0.25;"
    "task.migrate=250us;cpu.online=9ms;cpu.offline.core=1;"
    "cpu.offline=6ms;reprogram.crash=2;module.set_period=0.4;"
    "log.bitflip=3;log.torn_tail=16;controller.hang=40ns;"
    "controller.crash=3ms;target.crash=12345;module.initfail=2;"
    "reader.stall.p=0.5;reader.stall=5ms;read.fail=0.3;"
    "ioctl.fail=0.2;pmu.width=24;timer.spike.us=80;"
    "timer.spike=0.05;timer.miss=0.1;seed=7";

/** One seeded edit of @p s, drawing splice material from @p corpus. */
void
mutate(std::string &s, Random &rng,
       const std::vector<std::string> &corpus)
{
    auto pos = [&rng](std::size_t n) {
        return static_cast<std::size_t>(
            rng.below(static_cast<std::uint32_t>(n + 1)));
    };
    switch (rng.below(4)) {
      case 0: // flip one bit of one byte
        if (!s.empty())
            s[pos(s.size() - 1)] ^=
                static_cast<char>(1u << rng.below(8));
        break;
      case 1: // truncate
        s.resize(pos(s.size()));
        break;
      case 2: { // duplicate one ';' segment after itself
        const std::size_t b = s.rfind(';', pos(s.size()));
        const std::size_t begin = b == std::string::npos ? 0 : b + 1;
        const std::size_t end = std::min(s.find(';', begin), s.size());
        std::string dup(1, ';');
        dup.append(s, begin, end - begin);
        s.insert(end, dup);
        break;
      }
      default: { // splice: our head onto another spec's tail
        const std::string &other = corpus[rng.below(
            static_cast<std::uint32_t>(corpus.size()))];
        s.resize(pos(s.size()));
        s.append(other, pos(other.size()));
        break;
      }
    }
}

} // anonymous namespace

TEST(FaultPlan, StrTextIsPinned)
{
    // Round-trip tests pass for any rendering both sides agree on;
    // this pins the canonical text itself: key order, unit choice
    // (1s renders as 1000ms, whole ns keep their unit, other ticks
    // stay bare) and the auxiliary keys next to their points.
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse(everyKeySpec, &plan));
    EXPECT_EQ(plan.str(),
              "seed=7;timer.miss=0.1;timer.spike=0.05;"
              "timer.spike.us=80;pmu.width=24;ioctl.fail=0.2;"
              "read.fail=0.3;reader.stall=5ms;reader.stall.p=0.5;"
              "module.initfail=2;target.crash=12345;"
              "controller.crash=3ms;controller.hang=40ns;"
              "log.torn_tail=16;log.bitflip=3;"
              "module.set_period=0.4;reprogram.crash=2;"
              "cpu.offline=6ms;cpu.offline.core=1;cpu.online=9ms;"
              "task.migrate=250us;pmu.contend=0.25;"
              "machine.crash=0.3;link.drop=0.1;link.delay=0.2;"
              "link.delay.by=500us;collector.crash=1000ms");
}

TEST(FaultPlan, ParseSurvivesMutatedSpecs)
{
    // Deterministic mutation fuzzing of the spec parser, which reads
    // untrusted bytes: every spec string in this file, mangled by a
    // fixed seeded sequence of edits.  parse must never crash; an
    // accepted spec must render to a str() that parses back to the
    // same text; a rejected one must leave the output plan as it was
    // (checked through str(), which every field of the all-keys
    // starting plan shows up in).
    const std::vector<std::string> corpus = {
        everyKeySpec,
        "seed=7;timer.miss=0.1;timer.spike=0.05;timer.spike.us=80;"
        "pmu.width=24;ioctl.fail=0.2;read.fail=0.3;"
        "reader.stall=5ms;reader.stall.p=0.5;module.initfail=2;"
        "target.crash=2ms",
        "module.set_period=0.4;reprogram.crash=2",
        " pmu.width=16 ; ioctl.fail=0.5 ",
        "reader.stall=250us", "reader.stall=40ns", "target.crash=1s",
        "reader.stall=12345",
        "seed=9;timer.miss=0.25;pmu.width=32;read.fail=0.1;"
        "reader.stall=3ms;module.initfail=1;target.crash=7ms",
        "machine.crash=0.3;link.drop=0.1;link.delay=0.2;"
        "link.delay.by=500us;collector.crash=2ms",
        "timer.miss=1.5", "pmu.width=4", "justakey", "=value",
        "machine.crsh=0.3", "link.delay.bye=2ms"};

    FaultPlan start;
    ASSERT_TRUE(FaultPlan::parse(everyKeySpec, &start));
    const std::string startText = start.str();

    Random rng(0x5eedfa17);
    int accepted = 0;
    int rejected = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        std::string spec = corpus[rng.below(
            static_cast<std::uint32_t>(corpus.size()))];
        for (std::uint32_t e = 1 + rng.below(3); e > 0; --e)
            mutate(spec, rng, corpus);

        FaultPlan plan = start;
        std::string err;
        if (FaultPlan::parse(spec, &plan, &err)) {
            ++accepted;
            FaultPlan again;
            ASSERT_TRUE(FaultPlan::parse(plan.str(), &again, &err))
                << "spec '" << spec << "' rendered '" << plan.str()
                << "': " << err;
            ASSERT_EQ(again.str(), plan.str()) << "spec '" << spec << "'";
        } else {
            ++rejected;
            ASSERT_FALSE(err.empty()) << "spec '" << spec << "'";
            ASSERT_EQ(plan.str(), startText) << "spec '" << spec << "'";
        }
    }
    // Both outcomes are exercised, so neither branch is vacuous.
    EXPECT_GT(accepted, 100);
    EXPECT_GT(rejected, 100);
}

TEST(FaultPlan, PointTableIsComplete)
{
    // Every registered point has a distinct, nonempty key and name.
    ASSERT_GE(numFaultPoints, 8);
    for (int i = 0; i < numFaultPoints; ++i) {
        auto p = static_cast<FaultPoint>(i);
        ASSERT_NE(fault::faultPointKey(p), nullptr);
        ASSERT_NE(fault::faultPointName(p), nullptr);
        EXPECT_GT(std::string(fault::faultPointKey(p)).size(), 0u);
        for (int j = i + 1; j < numFaultPoints; ++j) {
            auto q = static_cast<FaultPoint>(j);
            EXPECT_STRNE(fault::faultPointKey(p),
                         fault::faultPointKey(q));
            EXPECT_STRNE(fault::faultPointName(p),
                         fault::faultPointName(q));
        }
    }
    EXPECT_STREQ(fault::faultPointKey(FaultPoint::counterWidth),
                 "pmu.width");
    EXPECT_STREQ(fault::faultPointName(FaultPoint::counterWidth),
                 "counterWidth");
}

TEST(FaultPlan, FleetKeysParseAndRoundTrip)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse(
        "machine.crash=0.3;link.drop=0.1;link.delay=0.2;"
        "link.delay.by=500us;collector.crash=2ms",
        &plan));
    EXPECT_DOUBLE_EQ(plan.machineCrashProb, 0.3);
    EXPECT_DOUBLE_EQ(plan.linkDropProb, 0.1);
    EXPECT_DOUBLE_EQ(plan.linkDelayProb, 0.2);
    EXPECT_EQ(plan.linkDelayBy, 500_us);
    EXPECT_EQ(plan.collectorCrashAt, 2_ms);
    EXPECT_TRUE(plan.active());
    EXPECT_TRUE(plan.linkFaultsActive());

    FaultPlan again;
    ASSERT_TRUE(FaultPlan::parse(plan.str(), &again));
    EXPECT_EQ(again.str(), plan.str());
    EXPECT_EQ(again.linkDelayBy, plan.linkDelayBy);
    EXPECT_EQ(again.collectorCrashAt, plan.collectorCrashAt);

    // Each fleet key alone activates the plan.
    FaultPlan solo;
    ASSERT_TRUE(FaultPlan::parse("machine.crash=0.5", &solo));
    EXPECT_TRUE(solo.active());
    EXPECT_FALSE(solo.linkFaultsActive());
    ASSERT_TRUE(FaultPlan::parse("collector.crash=1ms", &solo));
    EXPECT_TRUE(solo.active());
}

TEST(FaultPlan, FleetKeysRejectBadValues)
{
    FaultPlan plan;
    EXPECT_FALSE(FaultPlan::parse("machine.crash=1.5", &plan));
    EXPECT_FALSE(FaultPlan::parse("link.drop=-0.1", &plan));
    EXPECT_FALSE(FaultPlan::parse("link.delay.by=0", &plan));
    EXPECT_FALSE(FaultPlan::parse("link.delay.by=oops", &plan));
    EXPECT_FALSE(FaultPlan::parse("collector.crash=2parsecs",
                                  &plan));
}

TEST(FaultPlan, UnknownKeyErrorNamesNearestValidKey)
{
    FaultPlan plan;
    std::string err;

    ASSERT_FALSE(FaultPlan::parse("machine.crsh=0.3", &plan, &err));
    EXPECT_NE(err.find("machine.crsh"), std::string::npos);
    EXPECT_NE(err.find("nearest valid key"), std::string::npos);
    EXPECT_NE(err.find("'machine.crash'"), std::string::npos);

    ASSERT_FALSE(FaultPlan::parse("timer.mis=0.1", &plan, &err));
    EXPECT_NE(err.find("'timer.miss'"), std::string::npos);

    ASSERT_FALSE(FaultPlan::parse("link.delay.bye=2ms", &plan,
                                  &err));
    EXPECT_NE(err.find("'link.delay.by'"), std::string::npos);

    ASSERT_FALSE(FaultPlan::parse("reader.stall.q=0.5", &plan,
                                  &err));
    EXPECT_NE(err.find("'reader.stall.p'"), std::string::npos);
}
