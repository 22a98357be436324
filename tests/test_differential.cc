/**
 * @file
 * The centerpiece property suite: differential execution.
 *
 * For randomly generated programs, every point of the engine's
 * cold-tier table -- each cold tier (interpretation, x86 mode,
 * software, XLTx86-assisted and template BBT) with either hotspot
 * detector, synchronous or with async SBT -- plus BBT-only and
 * deterministic async must produce exactly the same architected x86
 * state and the same data memory image as the reference interpreter,
 * both from a cold boot and from a warm boot that installs a primed
 * run's image through an image endpoint before the first instruction.
 */

#include <gtest/gtest.h>

#include "helpers.hh"

namespace cdvm
{
namespace
{

using test::RunResult;
using test::runInterp;
using test::runVmm;

using test::sameOutcome;

/**
 * A spec's config with hot thresholds low enough that SBT really
 * triggers on these small programs: software counters and the BBB at
 * 30, interpretation at 10.
 */
vmm::VmmConfig
cfg(const std::string &spec)
{
    vmm::VmmConfig c = engine::EngineConfig::fromSpec(spec);
    c.hotThreshold = 30;
    c.bbbParams.hotThreshold = 30;
    c.interpHotThreshold = 10;
    return c;
}

/** Every cold x detector x async{0,2} point of the cold-tier table,
 *  plus BBT-only and deterministic async. */
std::vector<vmm::VmmConfig>
allConfigs()
{
    std::vector<vmm::VmmConfig> out;
    for (const engine::ColdTier &t : engine::coldTiers())
        for (const char *detector : {"", "+bbb"})
            for (const char *async : {"", "+async2"})
                out.push_back(cfg(t.token + std::string(detector) + async));

    vmm::VmmConfig bbt_only = cfg("vm.soft");
    bbt_only.enableSbt = false;
    bbt_only.name += " (BBT only)";
    out.push_back(bbt_only);
    vmm::VmmConfig det = cfg("soft+async2");
    det.asyncDeterministic = true;
    det.name += " (deterministic)";
    out.push_back(det);
    return out;
}

class DifferentialTest : public ::testing::TestWithParam<u64>
{
};

TEST_P(DifferentialTest, AllStrategiesMatchInterpreter)
{
    workload::ProgramParams pp;
    pp.seed = GetParam();
    pp.numFuncs = 3 + static_cast<unsigned>(GetParam() % 3);
    pp.mainIterations = 40;
    workload::Program prog = workload::generateProgram(pp);

    x86::Memory ref_mem;
    RunResult ref = runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit),
              static_cast<int>(x86::Exit::Halted))
        << "reference run did not halt";

    // Warm boots install a primed vm.soft run's image through an
    // in-process image endpoint before the first instruction.
    dbt::ImageBuilder builder;
    {
        x86::Memory mem;
        prog.loadInto(mem);
        x86::CpuState cpu = prog.initialState();
        vmm::Vmm vm(mem, cfg("vm.soft"));
        ASSERT_EQ(static_cast<int>(vm.run(cpu, 10'000'000)),
                  static_cast<int>(x86::Exit::Halted));
        builder.add(vm.captureWarmStart());
    }
    auto image = std::make_shared<dbt::TransImage>();
    ASSERT_EQ(dbt::TransImage::adopt(builder.build(), *image),
              dbt::LoadError::None);
    engine::SharedServices warm;
    warm.imageEndpoint = std::make_shared<dbt::ImageStore>(image);

    const std::vector<vmm::VmmConfig> configs = allConfigs();
    ASSERT_EQ(configs.size(), 22u);
    for (const vmm::VmmConfig &c : configs) {
        for (const engine::SharedServices &svc :
             {engine::SharedServices{}, warm}) {
            const bool is_warm = svc.imageEndpoint != nullptr;
            const std::string name = c.name + (is_warm ? " warm" : "");
            x86::Memory mem;
            vmm::VmmStats stats;
            RunResult got =
                runVmm(prog, mem, c, &stats, 10'000'000, svc);
            EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem))
                << name;
            if (is_warm) {
                EXPECT_GT(stats.warmInstalled, 0u) << name;
                EXPECT_EQ(stats.warmInvalidated, 0u) << name;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10, 11, 12));

TEST(DifferentialFeatures, FeatureKnobsStillMatch)
{
    for (u64 seed = 100; seed < 106; ++seed) {
        workload::ProgramParams pp;
        pp.seed = seed;
        pp.withDiv = seed % 2 == 0;
        pp.withIndirect = seed % 3 != 0;
        pp.with16Bit = seed % 2 == 1;
        pp.mainIterations = 25;
        workload::Program prog = workload::generateProgram(pp);

        x86::Memory ref_mem;
        RunResult ref = runInterp(prog, ref_mem);
        ASSERT_EQ(static_cast<int>(ref.exit),
                  static_cast<int>(x86::Exit::Halted));

        x86::Memory mem;
        RunResult got = runVmm(prog, mem, cfg("vm.soft"));
        EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem))
            << "seed " << seed;
    }
}

TEST(DifferentialStats, SbtActuallyRunsAndFuses)
{
    workload::ProgramParams pp;
    pp.seed = 42;
    pp.mainIterations = 60;
    workload::Program prog = workload::generateProgram(pp);

    x86::Memory mem;
    vmm::VmmStats stats;
    runVmm(prog, mem, cfg("vm.soft"), &stats);

    EXPECT_GT(stats.bbtTranslations, 0u);
    EXPECT_GT(stats.sbtTranslations, 0u)
        << "hot threshold was never crossed; test workload too small";
    EXPECT_GT(stats.insnsSbtCode, 0u);
    EXPECT_GT(stats.hotspotDetections, 0u);
    EXPECT_GT(stats.chainFollows, 0u);
}

TEST(DifferentialStats, TinyCodeCacheStillCorrect)
{
    // Large static footprint (lots of code to translate) but a short
    // dynamic run, so retranslation-after-flush dominates.
    workload::ProgramParams pp;
    pp.seed = 77;
    pp.numFuncs = 6;
    pp.blocksPerFunc = 5;
    pp.mainIterations = 4;
    workload::Program prog = workload::generateProgram(pp);

    x86::Memory ref_mem;
    RunResult ref = runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit),
              static_cast<int>(x86::Exit::Halted))
        << "reference run did not halt within budget";

    vmm::VmmConfig c = cfg("vm.soft");
    c.bbtCacheBytes = 1024; // force flush/retranslate cycles
    c.sbtCacheBytes = 8192;

    x86::Memory mem;
    vmm::VmmStats stats;
    RunResult got = runVmm(prog, mem, c, &stats);
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem))
        << "tiny code cache";
    EXPECT_GT(stats.bbtCacheFlushes, 0u)
        << "cache was big enough that flushing never happened";

    // The template tier must survive the same flush/retranslate storm.
    vmm::VmmConfig ct = cfg("tmpl");
    ct.bbtCacheBytes = 1024;
    ct.sbtCacheBytes = 8192;
    x86::Memory mem_t;
    vmm::VmmStats stats_t;
    RunResult got_t = runVmm(prog, mem_t, ct, &stats_t);
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got_t, mem_t))
        << "tiny code cache (template tier)";
    EXPECT_GT(stats_t.bbtCacheFlushes, 0u);
}

} // namespace
} // namespace cdvm
