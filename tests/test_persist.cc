/**
 * @file
 * The engine's warm-start path end to end, through the one on-disk
 * format: a Vmm saves its translations as an image, and a later Vmm
 * maps it from EngineConfig::warmStartLoadPath.
 *
 * The acceptance property: a warm-started VM retires bit-identical
 * architected state (registers, flags, memory image) to a cold run of
 * the same program. Stale records (guest code changed since capture)
 * are invalidated at load time and the VM silently falls back to cold
 * translation for them; a missing file boots cold.
 *
 * Format robustness (truncation and bit-flip sweeps, typed
 * rejection of foreign and removed formats) lives in test_image.
 */

#include <cstdio>
#include <string>

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

vmm::VmmConfig
cfgSoft()
{
    vmm::VmmConfig c = engine::EngineConfig::vmSoft();
    c.hotThreshold = 30; // low threshold so SBT entries exist too
    return c;
}

workload::Program
testProgram(u64 seed = 7)
{
    workload::ProgramParams pp;
    pp.seed = seed;
    return workload::generateProgram(pp);
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------------
// Warm start end to end
// ---------------------------------------------------------------------

TEST(WarmStart, DifferentialBitIdenticalToColdRun)
{
    const std::string path = tempPath("warm_diff.cdvm");
    workload::Program prog = testProgram(11);

    x86::Memory ref_mem;
    RunResult ref = runInterp(prog, ref_mem);

    // Cold run, saving the image on the way out.
    vmm::VmmConfig save_cfg = cfgSoft();
    save_cfg.warmStartSavePath = path;
    x86::Memory cold_mem;
    vmm::VmmStats cold_st;
    prog.loadInto(cold_mem);
    RunResult cold;
    cold.cpu = prog.initialState();
    {
        vmm::Vmm vm(cold_mem, save_cfg);
        cold.exit = vm.run(cold.cpu, 10'000'000);
        cold.retired = cold.cpu.icount;
        cold_st = vm.stats();
        ASSERT_TRUE(vm.saveWarmStart());
    }
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, cold, cold_mem));

    // Warm run from the saved image.
    vmm::VmmConfig load_cfg = cfgSoft();
    load_cfg.warmStartLoadPath = path;
    x86::Memory warm_mem;
    vmm::VmmStats warm_st;
    RunResult warm = runVmm(prog, warm_mem, load_cfg, &warm_st);

    // The acceptance property: bit-identical architected state.
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, warm, warm_mem));
    EXPECT_EQ(warm.retired, cold.retired);

    // The warm stats prove the image was actually used.
    EXPECT_GT(warm_st.warmLoaded, 0u);
    EXPECT_GT(warm_st.warmInstalled, 0u);
    EXPECT_EQ(warm_st.warmInvalidated, 0u);
    EXPECT_EQ(warm_st.warmInstalled, warm_st.warmLoaded);

    // And that it saved translation work: the warm run re-translates
    // strictly fewer basic blocks than the cold run did.
    EXPECT_LT(warm_st.bbtTranslations, cold_st.bbtTranslations);

    std::remove(path.c_str());
}

TEST(WarmStart, StaleRepositoryFallsBackToColdTranslation)
{
    const std::string path = tempPath("warm_stale.cdvm");

    // Save an image for program A, then warm-start program B --
    // different code at the same addresses. Every stale entry must be
    // rejected and the run must still be correct.
    workload::Program prog_a = testProgram(21);
    x86::Memory mem_a;
    {
        vmm::VmmConfig cfg = cfgSoft();
        prog_a.loadInto(mem_a);
        x86::CpuState cpu = prog_a.initialState();
        vmm::Vmm vm(mem_a, cfg);
        vm.run(cpu, 10'000'000);
        ASSERT_TRUE(vm.saveWarmStart(path));
    }

    workload::Program prog_b = testProgram(22);
    x86::Memory ref_mem;
    RunResult ref = runInterp(prog_b, ref_mem);

    vmm::VmmConfig load_cfg = cfgSoft();
    load_cfg.warmStartLoadPath = path;
    x86::Memory warm_mem;
    vmm::VmmStats st;
    RunResult warm = runVmm(prog_b, warm_mem, load_cfg, &st);

    EXPECT_TRUE(sameOutcome(prog_b, ref, ref_mem, warm, warm_mem));
    EXPECT_GT(st.warmLoaded, 0u);
    EXPECT_GT(st.warmInvalidated, 0u);
    EXPECT_EQ(st.warmInstalled + st.warmInvalidated, st.warmLoaded);

    std::remove(path.c_str());
}

TEST(WarmStart, MissingRepositoryRunsCold)
{
    workload::Program prog = testProgram(31);
    x86::Memory ref_mem;
    RunResult ref = runInterp(prog, ref_mem);

    vmm::VmmConfig cfg = cfgSoft();
    cfg.warmStartLoadPath = tempPath("never_saved.cdvm");
    x86::Memory mem;
    vmm::VmmStats st;
    RunResult got = runVmm(prog, mem, cfg, &st);

    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem));
    EXPECT_EQ(st.warmLoaded, 0u);
    EXPECT_EQ(st.warmInstalled, 0u);
}

} // namespace
} // namespace cdvm
