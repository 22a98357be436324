/**
 * @file
 * VMM runtime tests beyond the differential suite: precise-state
 * recovery through faults in translated code, staged-transition
 * behaviour, chaining, and the analytical model.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "analysis/model.hh"
#include "helpers.hh"
#include "x86/asm.hh"

namespace cdvm
{
namespace
{

using namespace cdvm::x86;

TEST(Model, Eq2PaperNumbers)
{
    EXPECT_NEAR(analysis::paperHotThreshold(), 8000.0, 1e-6);
    EXPECT_NEAR(analysis::hotThreshold(1152.0, 1.15), 7680.0, 1.0);
    EXPECT_NEAR(analysis::hotThreshold(1200.0, 1.20), 6000.0, 1.0);
}

TEST(Model, Eq1PaperNumbers)
{
    analysis::Eq1Breakdown e = analysis::paperEq1();
    EXPECT_NEAR(e.bbtComponent, 15.75e6, 1e3);
    EXPECT_NEAR(e.sbtComponent, 5.022e6, 1e3);
    EXPECT_GT(e.bbtComponent, e.sbtComponent * 3.0);
}

TEST(Vmm, PreciseStateOnDivideFault)
{
    // A block whose middle instruction faults: the VM must recover the
    // exact architected state the interpreter produces.
    Assembler as(0x1000);
    as.movRI(EAX, 100);
    as.movRI(EDX, 0);
    as.movRI(EBX, 7);          // some state before the fault
    as.aluRI(Op::Add, EBX, 1);
    as.movRI(ECX, 0);
    as.divA(ECX);              // #DE
    as.movRI(ESI, 0x999);      // must NOT execute
    as.hlt();

    workload::Program prog;
    {
        Assembler as2(0x1000);
        as2.movRI(EAX, 100);
        as2.movRI(EDX, 0);
        as2.movRI(EBX, 7);
        as2.aluRI(Op::Add, EBX, 1);
        as2.movRI(ECX, 0);
        as2.divA(ECX);
        as2.movRI(ESI, 0x999);
        as2.hlt();
        prog = test::snippetProgram(as2);
    }

    x86::Memory ref_mem;
    test::RunResult ref = test::runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit),
              static_cast<int>(Exit::Trap));

    vmm::VmmConfig cfg;
    x86::Memory mem;
    vmm::VmmStats stats;
    test::RunResult got = test::runVmm(prog, mem, cfg, &stats);
    EXPECT_EQ(static_cast<int>(got.exit), static_cast<int>(Exit::Trap));
    EXPECT_EQ(got.cpu.eip, ref.cpu.eip); // points at the div
    for (unsigned r = 0; r < NUM_REGS; ++r)
        EXPECT_EQ(got.cpu.regs[r], ref.cpu.regs[r]) << r;
    EXPECT_GT(stats.preciseStateRecoveries, 0u);
}

TEST(Vmm, FaultReplayStartsFromBlockEntryState)
{
    // The faulting block reads and updates registers it does not
    // reinitialize, so replaying it from anything but its entry state
    // (e.g. registers already written back by the uops) would apply
    // the add and the inc twice.
    Assembler as(0x1000);
    auto body = as.newLabel();
    as.movRI(EBX, 7);
    as.movRI(EAX, 100);
    as.movRI(EDX, 0);
    as.jmp(body);
    as.bind(body);
    as.aluRI(Op::Add, EBX, 1);
    as.inc(EDI);
    as.movRI(ECX, 0);
    as.divA(ECX); // #DE
    as.hlt();
    const workload::Program prog = test::snippetProgram(as);

    x86::Memory ref_mem;
    test::RunResult ref = test::runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit), static_cast<int>(Exit::Trap));

    vmm::VmmConfig cfg;
    x86::Memory mem;
    vmm::VmmStats stats;
    test::RunResult got = test::runVmm(prog, mem, cfg, &stats);
    EXPECT_EQ(static_cast<int>(got.exit), static_cast<int>(Exit::Trap));
    EXPECT_EQ(got.cpu.eip, ref.cpu.eip);
    EXPECT_TRUE(got.cpu.sameArchState(ref.cpu));
    EXPECT_EQ(got.cpu.regs[EBX], 8u);
    EXPECT_GT(stats.preciseStateRecoveries, 0u);
}

TEST(Vmm, FaultReplayStartsFromBlockEntryMemory)
{
    // The faulting block stores before it faults: replaying it over
    // memory the uops already changed would apply the add twice.
    Assembler as(0x1000);
    auto body = as.newLabel();
    as.movRI(EBX, 0x800000);
    as.movRI(EAX, 100);
    as.movRI(EDX, 0);
    as.jmp(body);
    as.bind(body);
    as.aluMI(Op::Add, MemRef{EBX, REG_NONE, 1, 0}, 1);
    as.movRI(ECX, 0);
    as.divA(ECX); // #DE
    as.hlt();
    const workload::Program prog = test::snippetProgram(as);

    x86::Memory ref_mem;
    test::RunResult ref = test::runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit), static_cast<int>(Exit::Trap));
    ASSERT_EQ(ref_mem.read32(0x800000), 1u);

    x86::Memory mem;
    vmm::VmmStats stats;
    test::RunResult got = test::runVmm(
        prog, mem, engine::EngineConfig::vmSoft(), &stats);
    EXPECT_TRUE(test::sameOutcome(prog, ref, ref_mem, got, mem));
    EXPECT_EQ(mem.read32(0x800000), 1u);
    EXPECT_GT(stats.preciseStateRecoveries, 0u);
}

TEST(Vmm, SuperblockFaultReplayStartsFromBlockEntryMemory)
{
    // The same store-then-fault shape inside a hot loop: the loop is
    // a superblock by the time its last trip divides by zero.
    Assembler as(0x1000);
    auto loop = as.newLabel();
    as.movRI(EBX, 0x800000);
    as.movRI(EDI, 400);
    as.bind(loop);
    as.aluMI(Op::Add, MemRef{EBX, REG_NONE, 1, 0}, 1);
    as.movRI(EAX, 100);
    as.movRI(EDX, 0);
    as.movRR(ECX, EDI);
    as.dec(ECX);
    as.divA(ECX); // #DE on the last trip (ECX = 0)
    as.dec(EDI);
    as.jcc(Cond::NE, loop);
    as.hlt();
    const workload::Program prog = test::snippetProgram(as);

    x86::Memory ref_mem;
    test::RunResult ref = test::runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit), static_cast<int>(Exit::Trap));
    ASSERT_EQ(ref_mem.read32(0x800000), 400u);

    vmm::VmmConfig cfg = engine::EngineConfig::vmSoft();
    cfg.hotThreshold = 50;
    x86::Memory mem;
    vmm::VmmStats stats;
    test::RunResult got = test::runVmm(prog, mem, cfg, &stats);
    EXPECT_TRUE(test::sameOutcome(prog, ref, ref_mem, got, mem));
    EXPECT_EQ(mem.read32(0x800000), 400u);
    EXPECT_GT(stats.sbtTranslations, 0u);
    EXPECT_GT(stats.insnsSbtCode, 0u);
    EXPECT_GT(stats.preciseStateRecoveries, 0u);
}

TEST(Vmm, Int3PreciseState)
{
    Assembler as(0x1000);
    as.movRI(EAX, 42);
    as.int3();
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    x86::Memory mem;
    vmm::VmmStats stats;
    test::RunResult got = test::runVmm(prog, mem, vmm::VmmConfig{},
                                       &stats);
    EXPECT_EQ(static_cast<int>(got.exit), static_cast<int>(Exit::Trap));
    EXPECT_EQ(got.cpu.regs[EAX], 42u);
}

/**
 * Retire accounting of the execute-style cold tiers, charged once per
 * dynamic block: it must equal per-instruction accounting. Expected
 * figures are counted by hand from the program (and match the
 * per-instruction charging this replaced).
 */
struct ColdCounts
{
    u64 coldInsns = 0; //!< insnsInterp or insnsX86Mode
    u64 totalRetired = 0;
    InstCount icount = 0;
    std::vector<dbt::SavedBranchStat> branches; //!< sorted by pc
};

ColdCounts
runCold(const workload::Program &prog, const char *spec, Exit want)
{
    x86::Memory mem;
    prog.loadInto(mem);
    x86::CpuState cpu = prog.initialState();
    vmm::Vmm vm(mem, engine::EngineConfig::fromSpec(spec));
    EXPECT_EQ(static_cast<int>(vm.run(cpu, 100000)),
              static_cast<int>(want))
        << spec;
    ColdCounts c;
    c.coldInsns = vm.stats().insnsInterp + vm.stats().insnsX86Mode;
    c.totalRetired = vm.stats().totalRetired();
    c.icount = cpu.icount;
    c.branches = vm.captureWarmStart().branchProfile;
    std::sort(c.branches.begin(), c.branches.end(),
              [](const auto &a, const auto &b) { return a.pc < b.pc; });
    return c;
}

TEST(Vmm, BlockBatchedRetireAccountingOnHalt)
{
    // 1 + (5 + 6 + 6) retired, then HLT (counted in icount only).
    Assembler as(0x1000);
    auto loop = as.newLabel();
    auto skip = as.newLabel();
    as.movRI(ECX, 3);
    as.bind(loop);
    as.aluRR(Op::Add, EAX, ECX);
    as.aluRI(Op::Cmp, EAX, 4);
    const Addr jl_pc = as.here();
    as.jcc(Cond::L, skip); // taken once, not taken twice
    as.inc(ESI);
    as.bind(skip);
    as.dec(ECX);
    const Addr jne_pc = as.here();
    as.jcc(Cond::NE, loop); // taken twice, not taken once
    as.hlt();
    const workload::Program prog = test::snippetProgram(as);

    for (const char *spec : {"vm.interp", "x86+bbb"}) {
        const ColdCounts c = runCold(prog, spec, Exit::Halted);
        EXPECT_EQ(c.coldInsns, 18u) << spec;
        EXPECT_EQ(c.totalRetired, 18u) << spec;
        EXPECT_EQ(c.icount, 19u) << spec;
        ASSERT_EQ(c.branches.size(), 2u) << spec;
        EXPECT_EQ(c.branches[0].pc, jl_pc);
        EXPECT_EQ(c.branches[0].taken, 1u) << spec;
        EXPECT_EQ(c.branches[0].notTaken, 2u) << spec;
        EXPECT_EQ(c.branches[1].pc, jne_pc);
        EXPECT_EQ(c.branches[1].taken, 2u) << spec;
        EXPECT_EQ(c.branches[1].notTaken, 1u) << spec;
    }
}

TEST(Vmm, BlockBatchedRetireAccountingOnMidBlockTrap)
{
    // 1 + 3 + 3 + 1 retired; the INT3 in the middle of the last block
    // neither retires nor counts.
    Assembler as(0x1000);
    auto loop = as.newLabel();
    as.movRI(ECX, 2);
    as.bind(loop);
    as.aluRI(Op::Add, EAX, 1);
    as.dec(ECX);
    const Addr jne_pc = as.here();
    as.jcc(Cond::NE, loop);
    as.aluRI(Op::Add, EBX, 5);
    as.int3();
    as.aluRI(Op::Add, EBX, 7);
    as.hlt();
    const workload::Program prog = test::snippetProgram(as);

    for (const char *spec : {"vm.interp", "x86+bbb"}) {
        const ColdCounts c = runCold(prog, spec, Exit::Trap);
        EXPECT_EQ(c.coldInsns, 8u) << spec;
        EXPECT_EQ(c.totalRetired, 8u) << spec;
        EXPECT_EQ(c.icount, 8u) << spec;
        ASSERT_EQ(c.branches.size(), 1u) << spec;
        EXPECT_EQ(c.branches[0].pc, jne_pc);
        EXPECT_EQ(c.branches[0].taken, 1u) << spec;
        EXPECT_EQ(c.branches[0].notTaken, 1u) << spec;
    }
}

TEST(Vmm, StagedTransitionCounts)
{
    // A two-phase program: phase 1 loops block A hot; phase 2 touches
    // fresh code. Verifies the staged pipeline acted as configured.
    Assembler as(0x1000);
    auto loop = as.newLabel();
    as.movRI(ECX, 3000);
    as.bind(loop);
    as.aluRI(Op::Add, EAX, 1);
    as.aluRI(Op::Xor, EDX, 3);
    as.dec(ECX);
    as.jcc(Cond::NE, loop);
    for (int i = 0; i < 50; ++i)
        as.aluRI(Op::Add, ESI, i); // cold tail, BBT only
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    vmm::VmmConfig cfg;
    cfg.hotThreshold = 500;
    x86::Memory mem;
    vmm::VmmStats st;
    test::RunResult r = test::runVmm(prog, mem, cfg, &st);
    ASSERT_EQ(static_cast<int>(r.exit), static_cast<int>(Exit::Halted));

    EXPECT_GT(st.bbtTranslations, 0u);
    EXPECT_EQ(st.sbtTranslations, 1u); // exactly the hot loop
    EXPECT_GT(st.insnsSbtCode, st.insnsBbtCode);
    EXPECT_GT(st.chainFollows, st.dispatches); // loop chains to itself
    EXPECT_EQ(st.insnsInterp, 0u);
    EXPECT_EQ(st.insnsX86Mode, 0u);
}

TEST(Vmm, NoSbtBelowThreshold)
{
    Assembler as(0x1000);
    auto loop = as.newLabel();
    as.movRI(ECX, 50); // well below the threshold
    as.bind(loop);
    as.aluRI(Op::Add, EAX, 1);
    as.dec(ECX);
    as.jcc(Cond::NE, loop);
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    vmm::VmmConfig cfg;
    cfg.hotThreshold = 8000;
    x86::Memory mem;
    vmm::VmmStats st;
    test::runVmm(prog, mem, cfg, &st);
    EXPECT_EQ(st.sbtTranslations, 0u);
    EXPECT_EQ(st.hotspotDetections, 0u);
}

TEST(Vmm, X86ModeUsesBbbAndNoBbt)
{
    Assembler as(0x1000);
    auto loop = as.newLabel();
    as.movRI(ECX, 2000);
    as.bind(loop);
    as.aluRI(Op::Add, EAX, 1);
    as.dec(ECX);
    as.jcc(Cond::NE, loop);
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    vmm::VmmConfig cfg = engine::EngineConfig::vmFe();
    cfg.bbbParams.hotThreshold = 300;
    x86::Memory mem;
    vmm::VmmStats st;
    test::RunResult r = test::runVmm(prog, mem, cfg, &st);
    ASSERT_EQ(static_cast<int>(r.exit), static_cast<int>(Exit::Halted));
    EXPECT_EQ(st.bbtTranslations, 0u);
    EXPECT_GT(st.insnsX86Mode, 0u);
    EXPECT_GT(st.sbtTranslations, 0u); // BBB found the loop
    EXPECT_GT(st.insnsSbtCode, 0u);
}

TEST(Vmm, BudgetOvershootIsBounded)
{
    Assembler as(0x1000);
    auto loop = as.newLabel();
    as.movRI(ECX, 100000);
    as.bind(loop);
    as.dec(ECX);
    as.jcc(Cond::NE, loop);
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    x86::Memory mem;
    prog.loadInto(mem);
    x86::CpuState cpu = prog.initialState();
    vmm::Vmm vm(mem, vmm::VmmConfig{});
    x86::Exit e = vm.run(cpu, 1000);
    EXPECT_EQ(static_cast<int>(e), static_cast<int>(Exit::None));
    // Translations complete atomically: overshoot stays within one
    // region (64 insns max by default).
    EXPECT_GE(vm.stats().totalRetired(), 1000u);
    EXPECT_LE(vm.stats().totalRetired(), 1000u + 200u);
}

} // namespace
} // namespace cdvm
