/**
 * @file
 * Cracking + micro-op executor differential tests: for random
 * instruction mixes, executing the cracked micro-ops must produce the
 * same architected state as the reference interpreter, instruction by
 * instruction; and single-stepping a cracked block with exec() must
 * match running it with run(); and cracking appends to a block
 * without touching what is already in it.
 */

#include <functional>

#include <gtest/gtest.h>

#include "helpers.hh"

#include "common/random.hh"
#include "dbt/bbt.hh"
#include "uops/crack.hh"
#include "uops/encoding.hh"
#include "uops/exec.hh"
#include "x86/asm.hh"
#include "x86/decode_cache.hh"
#include "x86/decoder.hh"
#include "x86/interp.hh"

namespace cdvm
{
namespace
{

using uops::UopExecutor;
using uops::UState;
using x86::Assembler;
using x86::Cond;
using x86::CpuState;
using x86::Insn;
using x86::MemRef;
using x86::Memory;
using x86::Op;
using x86::Reg;

/** Random-but-valid architected state. */
CpuState
randomState(Pcg32 &rng)
{
    CpuState cpu;
    for (unsigned r = 0; r < x86::NUM_REGS; ++r)
        cpu.regs[r] = rng.next();
    cpu.regs[x86::ESP] = 0x7fff0000 - rng.below(64) * 4;
    cpu.eflags = 0x202 | (rng.next() & x86::FLAG_ALL);
    return cpu;
}

/**
 * Execute one decoded instruction both ways from the same initial
 * state and compare everything.
 */
void
checkInsn(const Insn &in, const CpuState &start, Memory &mem_template,
          const std::string &label)
{
    // Interpreter path.
    Memory mem_a = mem_template;
    CpuState cpu_a = start;
    x86::Interpreter interp(cpu_a, mem_a);
    x86::StepResult sr = interp.execute(in);

    // Cracked micro-op path.
    uops::CrackResult cr = uops::crack(in);
    Memory mem_b = mem_template;
    UState ust;
    ust.loadArch(start);
    UopExecutor exe(ust, mem_b);
    uops::BlockResult br = exe.run(cr.uops, in.nextPc());
    CpuState cpu_b = start;
    ust.storeArch(cpu_b);
    cpu_b.eip = static_cast<u32>(br.nextPc);

    if (sr.exit == x86::Exit::Trap) {
        EXPECT_EQ(static_cast<int>(br.exit),
                  static_cast<int>(uops::BlockExit::Fault))
            << label;
        return;
    }
    if (sr.exit == x86::Exit::Halted) {
        EXPECT_EQ(static_cast<int>(br.exit),
                  static_cast<int>(uops::BlockExit::VmExit))
            << label;
        return;
    }

    for (unsigned r = 0; r < x86::NUM_REGS; ++r)
        EXPECT_EQ(cpu_a.regs[r], cpu_b.regs[r])
            << label << " reg " << x86::regName(static_cast<Reg>(r))
            << "\n  insn: " << in.toString();
    EXPECT_EQ(cpu_a.eflags & x86::FLAG_ALL,
              cpu_b.eflags & x86::FLAG_ALL)
        << label << "\n  insn: " << in.toString();
    EXPECT_EQ(cpu_a.eip, cpu_b.eip)
        << label << "\n  insn: " << in.toString();

    // Memory effects: compare the data window.
    std::vector<u8> da = mem_a.readBlock(0x00800000, 8192);
    std::vector<u8> db = mem_b.readBlock(0x00800000, 8192);
    EXPECT_EQ(da, db) << label << "\n  insn: " << in.toString();
    std::vector<u8> sa = mem_a.readBlock(0x7ffeff00, 0x200);
    std::vector<u8> sb = mem_b.readBlock(0x7ffeff00, 0x200);
    EXPECT_EQ(sa, sb) << label << "\n  insn: " << in.toString();
}

/**
 * Decode the single instruction an assembler callback emits at 0x1000;
 * its encoding goes to bytes when given.
 */
Insn
assembleOne(const std::function<void(Assembler &)> &emit,
            std::vector<u8> *bytes = nullptr)
{
    Assembler as(0x1000);
    emit(as);
    std::vector<u8> buf = as.finalize();
    if (bytes)
        *bytes = buf;
    buf.resize(x86::MAX_INSN_LEN + 1, 0x90);
    x86::DecodeResult dr =
        x86::decode(std::span<const u8>(buf.data(), buf.size()), 0x1000);
    EXPECT_TRUE(dr.ok) << dr.error;
    return dr.insn;
}

/**
 * One random instruction of the differential mix; memory operands
 * use m, which the caller points into the seeded data window. Its
 * encoding at 0x1000 goes to bytes when given.
 */
Insn
randomInsn(Pcg32 &rng, const MemRef &m, std::vector<u8> *bytes = nullptr)
{
    const auto assemble = [&](const std::function<void(Assembler &)> &f) {
        return assembleOne(f, bytes);
    };
    static const Op alu_ops[] = {Op::Add, Op::Or, Op::Adc, Op::Sbb,
                                 Op::And, Op::Sub, Op::Xor, Op::Cmp};

    unsigned pick = rng.below(20);
    Insn in;
    switch (pick) {
      case 0:
        in = assemble([&](Assembler &a) {
            a.aluRR(alu_ops[rng.below(8)],
                    static_cast<Reg>(rng.below(8)),
                    static_cast<Reg>(rng.below(8)));
        });
        break;
      case 1:
        in = assemble([&](Assembler &a) {
            a.aluRM(alu_ops[rng.below(8)],
                    static_cast<Reg>(rng.below(8)), m);
        });
        break;
      case 2:
        in = assemble([&](Assembler &a) {
            a.aluMR(alu_ops[rng.below(8)], m,
                    static_cast<Reg>(rng.below(8)));
        });
        break;
      case 3:
        in = assemble([&](Assembler &a) {
            a.aluMI(alu_ops[rng.below(8)], m,
                    static_cast<i32>(rng.next()));
        });
        break;
      case 4: { // byte ALU incl. high-byte registers
        u8 row = static_cast<u8>(rng.below(8));
        u8 modrm = static_cast<u8>(0xc0 | rng.below(64));
        in = assemble([&](Assembler &a) {
            a.db(static_cast<u8>(row << 3)); // op r/m8, r8
            a.db(modrm);
        });
        break;
      }
      case 5:
        in = assemble([&](Assembler &a) {
            a.db(0x66);
            a.aluRR(alu_ops[rng.below(8)],
                    static_cast<Reg>(rng.below(8)),
                    static_cast<Reg>(rng.below(8)));
        });
        break;
      case 6:
        in = assemble([&](Assembler &a) {
            a.movRM(static_cast<Reg>(rng.below(8)), m);
        });
        break;
      case 7:
        in = assemble([&](Assembler &a) {
            a.movMR(m, static_cast<Reg>(rng.below(8)));
        });
        break;
      case 8:
        in = assemble([&](Assembler &a) {
            if (rng.chance(0.5))
                a.movzxM(static_cast<Reg>(rng.below(8)), m,
                         rng.chance(0.5) ? 1 : 2);
            else
                a.movsx(static_cast<Reg>(rng.below(8)),
                        static_cast<Reg>(rng.below(8)),
                        rng.chance(0.5) ? 1 : 2);
        });
        break;
      case 9:
        in = assemble([&](Assembler &a) {
            a.shiftRI(rng.chance(0.5)
                          ? (rng.chance(0.5) ? Op::Shl : Op::Shr)
                          : (rng.chance(0.5) ? Op::Sar
                             : rng.chance(0.5) ? Op::Rol
                                               : Op::Ror),
                      static_cast<Reg>(rng.below(8)),
                      static_cast<u8>(rng.below(40)));
        });
        break;
      case 10:
        in = assemble([&](Assembler &a) {
            a.shiftRCl(rng.chance(0.5) ? Op::Shl : Op::Sar,
                       static_cast<Reg>(rng.below(8)));
        });
        break;
      case 11:
        in = assemble([&](Assembler &a) {
            if (rng.chance(0.5))
                a.imulRR(static_cast<Reg>(rng.below(8)),
                         static_cast<Reg>(rng.below(8)));
            else
                a.imulRRI(static_cast<Reg>(rng.below(8)),
                          static_cast<Reg>(rng.below(8)),
                          static_cast<i32>(rng.next()));
        });
        break;
      case 12:
        in = assemble([&](Assembler &a) {
            switch (rng.below(4)) {
              case 0: a.mulA(static_cast<Reg>(rng.below(8))); break;
              case 1: a.imulA(static_cast<Reg>(rng.below(8))); break;
              case 2: a.divA(static_cast<Reg>(rng.below(8))); break;
              default: a.idivA(static_cast<Reg>(rng.below(8))); break;
            }
        });
        break;
      case 13:
        in = assemble([&](Assembler &a) {
            if (rng.chance(0.5))
                a.push(static_cast<Reg>(rng.below(8)));
            else
                a.pop(static_cast<Reg>(rng.below(8)));
        });
        break;
      case 14:
        in = assemble([&](Assembler &a) {
            switch (rng.below(4)) {
              case 0: a.inc(static_cast<Reg>(rng.below(8))); break;
              case 1: a.dec(static_cast<Reg>(rng.below(8))); break;
              case 2: a.notReg(static_cast<Reg>(rng.below(8))); break;
              default: a.negReg(static_cast<Reg>(rng.below(8))); break;
            }
        });
        break;
      case 15:
        in = assemble([&](Assembler &a) {
            a.setcc(static_cast<Cond>(rng.below(16)),
                    static_cast<Reg>(rng.below(8)));
        });
        break;
      case 16:
        in = assemble([&](Assembler &a) {
            a.xchg(static_cast<Reg>(rng.below(8)),
                   static_cast<Reg>(rng.below(8)));
        });
        break;
      case 17:
        in = assemble([&](Assembler &a) { a.cdq(); });
        break;
      case 18:
        in = assemble([&](Assembler &a) {
            a.lea(static_cast<Reg>(rng.below(8)), m);
        });
        break;
      default:
        in = assemble([&](Assembler &a) {
            if (rng.chance(0.5))
                a.testRR(static_cast<Reg>(rng.below(8)),
                         static_cast<Reg>(rng.below(8)));
            else
                a.aluRI(alu_ops[rng.below(8)],
                        static_cast<Reg>(rng.below(8)),
                        static_cast<i32>(rng.next()));
        });
        break;
    }
    return in;
}

class CrackExecRandom : public ::testing::TestWithParam<u64>
{
};

TEST_P(CrackExecRandom, RandomInstructionMix)
{
    Pcg32 rng(GetParam(), 7);
    Memory mem_template;
    // Seed data memory with deterministic noise.
    for (Addr a = 0x00800000; a < 0x00800000 + 4096; a += 4)
        mem_template.write32(a, rng.next());

    for (int iter = 0; iter < 400; ++iter) {
        CpuState start = randomState(rng);
        // Constrain base registers so memory operands land in the
        // seeded data window.
        start.regs[x86::EBX] = 0x00800000 + rng.below(512) * 4;
        start.regs[x86::ESI] = rng.below(200);

        MemRef m{x86::EBX, rng.chance(0.5) ? x86::ESI : x86::REG_NONE,
                 4, static_cast<i32>(rng.below(1024))};

        const Insn in = randomInsn(rng, m);
        checkInsn(in, start, mem_template,
                  "seed " + std::to_string(GetParam()) + " iter " +
                      std::to_string(iter));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrackExecRandom,
                         ::testing::Values(1, 2, 3, 4, 5));

/**
 * The interpreter has one instruction body: step() through a
 * DecodeCache (a hit), step() over raw bytes and execute() of the
 * decoded instruction give the same StepResult, state and memory.
 */
class InterpStepPaths : public ::testing::TestWithParam<u64>
{
};

TEST_P(InterpStepPaths, CachedRawAndExecuteAgree)
{
    Pcg32 rng(GetParam(), 11);
    Memory mem_template;
    for (Addr a = 0x00800000; a < 0x00800000 + 4096; a += 4)
        mem_template.write32(a, rng.next());

    for (int iter = 0; iter < 400; ++iter) {
        CpuState start = randomState(rng);
        start.eip = 0x1000;
        start.regs[x86::EBX] = 0x00800000 + rng.below(512) * 4;
        start.regs[x86::ESI] = rng.below(200);
        MemRef m{x86::EBX, rng.chance(0.5) ? x86::ESI : x86::REG_NONE,
                 4, static_cast<i32>(rng.below(1024))};
        std::vector<u8> bytes;
        const Insn in = randomInsn(rng, m, &bytes);
        const std::string label = "seed " + std::to_string(GetParam()) +
                                  " iter " + std::to_string(iter) +
                                  "\n  insn: " + in.toString();

        Memory mem_c = mem_template;
        mem_c.writeBlock(0x1000, bytes);
        Memory mem_r = mem_c;
        Memory mem_e = mem_c;
        CpuState cpu_c = start, cpu_r = start, cpu_e = start;

        x86::DecodeCache dc(64);
        ASSERT_NE(dc.fetch(mem_c, 0x1000), nullptr) << label;
        const x86::StepResult rc =
            x86::Interpreter(cpu_c, mem_c, &dc).step();
        EXPECT_EQ(dc.hits(), 1u) << label;
        const x86::StepResult rr = x86::Interpreter(cpu_r, mem_r).step();
        const x86::StepResult re =
            x86::Interpreter(cpu_e, mem_e).execute(in);

        EXPECT_EQ(rc, rr) << label;
        EXPECT_EQ(rc, re) << label;
        EXPECT_EQ(rc.pc, 0x1000u) << label;
        EXPECT_TRUE(cpu_c.sameArchState(cpu_r)) << label;
        EXPECT_TRUE(cpu_c.sameArchState(cpu_e)) << label;
        EXPECT_EQ(cpu_c.icount, cpu_r.icount) << label;
        EXPECT_EQ(cpu_c.icount, cpu_e.icount) << label;
        const std::vector<u8> data = mem_c.readBlock(0x00800000, 8192);
        EXPECT_EQ(data, mem_r.readBlock(0x00800000, 8192)) << label;
        EXPECT_EQ(data, mem_e.readBlock(0x00800000, 8192)) << label;
        const std::vector<u8> stack = mem_c.readBlock(0x7ffeff00, 0x200);
        EXPECT_EQ(stack, mem_r.readBlock(0x7ffeff00, 0x200)) << label;
        EXPECT_EQ(stack, mem_e.readBlock(0x7ffeff00, 0x200)) << label;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpStepPaths,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(InterpStepPaths, GeneratedProgramInLockstep)
{
    // A whole generated program (calls, indirect calls, loops) stepped
    // with and without a DecodeCache: every step agrees.
    workload::ProgramParams pp;
    pp.seed = 5;
    pp.numFuncs = 4;
    pp.mainIterations = 20;
    const workload::Program prog = workload::generateProgram(pp);

    Memory mem_c, mem_r;
    prog.loadInto(mem_c);
    prog.loadInto(mem_r);
    CpuState cpu_c = prog.initialState();
    CpuState cpu_r = prog.initialState();
    x86::DecodeCache dc;
    x86::Interpreter cached(cpu_c, mem_c, &dc);
    x86::Interpreter raw(cpu_r, mem_r);

    x86::Exit exit = x86::Exit::None;
    u64 steps = 0;
    for (; steps < 5'000'000 && exit == x86::Exit::None; ++steps) {
        const x86::StepResult rc = cached.step();
        const x86::StepResult rr = raw.step();
        ASSERT_EQ(rc, rr) << "step " << steps;
        ASSERT_TRUE(cpu_c.sameArchState(cpu_r)) << "step " << steps;
        ASSERT_EQ(cpu_c.icount, cpu_r.icount) << "step " << steps;
        exit = rc.exit;
    }
    EXPECT_EQ(static_cast<int>(exit), static_cast<int>(x86::Exit::Halted));
    EXPECT_GT(steps, 1000u);
    EXPECT_GT(dc.hitRate(), 0.9);
    EXPECT_EQ(mem_c.readBlock(prog.dataBase, prog.dataBytes),
              mem_r.readBlock(prog.dataBase, prog.dataBytes));
}

/**
 * Run a block one micro-op at a time through exec(), mapping each
 * outcome to a block exit the way run() does.
 */
uops::BlockResult
singleStep(UopExecutor &exe, const uops::UopVec &block, Addr fallthrough)
{
    uops::BlockResult res;
    for (std::size_t i = 0; i < block.size(); ++i) {
        const UopExecutor::Outcome o = exe.exec(block[i]);
        ++res.uopsRun;
        if (o.fault) {
            res.exit = uops::BlockExit::Fault;
            res.faultIndex = static_cast<int>(i);
            res.faultX86Pc = block[i].x86pc;
            return res;
        }
        if (o.vmExit) {
            res.exit = uops::BlockExit::VmExit;
            res.nextPc = block[i].x86pc;
            return res;
        }
        if (o.taken) {
            res.exit = uops::BlockExit::Branch;
            res.nextPc = o.target;
            return res;
        }
    }
    res.nextPc = fallthrough;
    return res;
}

class CrackExecStepVsRun : public ::testing::TestWithParam<u64>
{
};

TEST_P(CrackExecStepVsRun, SingleStepMatchesBlockRun)
{
    // exec() and run() share one micro-op body: single-stepping a
    // cracked block must leave exactly the state a block run leaves.
    Pcg32 rng(GetParam(), 9);
    Memory mem_template;
    for (Addr a = 0x00800000; a < 0x00800000 + 4096; a += 4)
        mem_template.write32(a, rng.next());
    const Addr fallthrough = 0x2000;

    for (int iter = 0; iter < 200; ++iter) {
        CpuState start = randomState(rng);
        start.regs[x86::EBX] = 0x00800000 + rng.below(512) * 4;
        start.regs[x86::ESI] = rng.below(200);

        // Up to 8 instructions of the mix, cracked back to back, and
        // half the time a conditional branch or a hlt to end on.
        uops::UopVec block;
        const unsigned n = 1 + rng.below(8);
        for (unsigned k = 0; k < n; ++k) {
            MemRef m{x86::EBX, rng.chance(0.5) ? x86::ESI : x86::REG_NONE,
                     4, static_cast<i32>(rng.below(1024))};
            const uops::UopVec u = uops::crack(randomInsn(rng, m)).uops;
            block.insert(block.end(), u.begin(), u.end());
        }
        if (rng.chance(0.5)) {
            const Cond cc = static_cast<Cond>(rng.below(16));
            const bool halt = rng.chance(0.25);
            const Insn end = assembleOne([&](Assembler &a) {
                if (halt) {
                    a.hlt();
                } else {
                    auto l = a.newLabel();
                    a.jcc(cc, l);
                    a.nop();
                    a.bind(l);
                }
            });
            const uops::UopVec u = uops::crack(end).uops;
            block.insert(block.end(), u.begin(), u.end());
        }

        Memory mem_run = mem_template;
        UState st_run;
        st_run.loadArch(start);
        UopExecutor exe_run(st_run, mem_run);
        const uops::BlockResult br = exe_run.run(block, fallthrough);

        Memory mem_step = mem_template;
        UState st_step;
        st_step.loadArch(start);
        UopExecutor exe_step(st_step, mem_step);
        const uops::BlockResult bs = singleStep(exe_step, block, fallthrough);

        const std::string label = "seed " + std::to_string(GetParam()) +
                                  " iter " + std::to_string(iter);
        EXPECT_EQ(static_cast<int>(br.exit), static_cast<int>(bs.exit))
            << label;
        EXPECT_EQ(br.nextPc, bs.nextPc) << label;
        EXPECT_EQ(br.uopsRun, bs.uopsRun) << label;
        EXPECT_EQ(br.faultIndex, bs.faultIndex) << label;
        EXPECT_EQ(br.faultX86Pc, bs.faultX86Pc) << label;
        EXPECT_EQ(st_run.regs, st_step.regs) << label;
        EXPECT_EQ(st_run.eflags, st_step.eflags) << label;
        EXPECT_EQ(st_run.uopCount, st_step.uopCount) << label;
        EXPECT_EQ(mem_run.readBlock(0x00800000, 8192),
                  mem_step.readBlock(0x00800000, 8192))
            << label;
        EXPECT_EQ(mem_run.readBlock(0x7ffeff00, 0x200),
                  mem_step.readBlock(0x7ffeff00, 0x200))
            << label;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrackExecStepVsRun,
                         ::testing::Values(1, 2, 3));

TEST(CrackExec, BranchesAndCalls)
{
    Pcg32 rng(11, 3);
    for (int iter = 0; iter < 100; ++iter) {
        CpuState start = randomState(rng);
        Memory mem;

        Assembler as(0x1000);
        auto l = as.newLabel();
        unsigned pick = rng.below(5);
        switch (pick) {
          case 0:
            as.jcc(static_cast<Cond>(rng.below(16)), l);
            break;
          case 1:
            as.jmp(l);
            break;
          case 2:
            as.call(l);
            break;
          case 3:
            start.regs[x86::EDI] = 0x1400;
            as.jmpInd(x86::EDI);
            break;
          default:
            // ret: plant a return address.
            mem.write32(start.regs[x86::ESP], 0x2222);
            as.ret();
            break;
        }
        for (int n = 0; n < 32; ++n)
            as.nop();
        as.bind(l);
        as.hlt();

        std::vector<u8> buf = as.finalize();
        buf.resize(x86::MAX_INSN_LEN + 32, 0x90);
        x86::DecodeResult dr = x86::decode(
            std::span<const u8>(buf.data(), buf.size()), 0x1000);
        ASSERT_TRUE(dr.ok);
        checkInsn(dr.insn, start, mem, "cti iter " + std::to_string(iter));
    }
}

TEST(CrackExec, UopCountsAreCisclike)
{
    // Sanity-check the crack expansion ratio on representative forms.
    auto count = [](const std::function<void(Assembler &)> &e) {
        Assembler as(0x1000);
        e(as);
        std::vector<u8> buf = as.finalize();
        buf.resize(x86::MAX_INSN_LEN + 1, 0x90);
        x86::DecodeResult dr = x86::decode(
            std::span<const u8>(buf.data(), buf.size()), 0x1000);
        EXPECT_TRUE(dr.ok);
        return uops::crack(dr.insn).uops.size();
    };

    EXPECT_EQ(count([](Assembler &a) { a.aluRR(Op::Add, x86::EAX,
                                               x86::ECX); }),
              1u);
    EXPECT_EQ(count([](Assembler &a) {
                  a.movRM(x86::EAX, MemRef{x86::EBX, x86::REG_NONE, 1, 4});
              }),
              1u);
    EXPECT_EQ(count([](Assembler &a) {
                  a.aluMR(Op::Add, MemRef{x86::EBX, x86::REG_NONE, 1, 4},
                          x86::ECX);
              }),
              3u); // load, add, store
    EXPECT_EQ(count([](Assembler &a) { a.push(x86::EAX); }), 2u);
    EXPECT_EQ(count([](Assembler &a) { a.pop(x86::EAX); }), 2u);
    EXPECT_EQ(count([](Assembler &a) { a.ret(); }), 3u);
    EXPECT_LE(count([](Assembler &a) {
                  auto l = a.newLabel();
                  a.bind(l);
                  a.call(l);
              }),
              4u);
}

TEST(CrackExec, ComplexClassification)
{
    auto crackOf = [](std::initializer_list<u8> bytes) {
        std::vector<u8> v(bytes);
        v.resize(x86::MAX_INSN_LEN + 1, 0x90);
        x86::DecodeResult dr = x86::decode(
            std::span<const u8>(v.data(), v.size()), 0x1000);
        EXPECT_TRUE(dr.ok) << dr.error;
        return uops::crack(dr.insn);
    };
    EXPECT_TRUE(crackOf({0xf7, 0xf1}).complex);  // div ecx
    EXPECT_TRUE(crackOf({0x0f, 0xa2}).complex);  // cpuid
    EXPECT_FALSE(crackOf({0x01, 0xc1}).complex); // add
    EXPECT_FALSE(crackOf({0x8b, 0x03}).complex); // mov eax,[ebx]
}

TEST(CrackAppend, PrefixStaysAndSuffixIsTheFreshCrack)
{
    // crack(in, out) leaves what out already holds untouched and
    // appends exactly crack(in).uops, with the same complex flag.
    auto check = [](const Insn &before, const Insn &in,
                    const std::string &label) {
        uops::UopVec out = uops::crack(before).uops;
        ASSERT_FALSE(out.empty()) << label;
        const uops::UopVec prefix = out;
        const uops::CrackResult fresh = uops::crack(in);
        const bool complex = uops::crack(in, out);
        EXPECT_EQ(complex, fresh.complex) << label;
        ASSERT_EQ(out.size(), prefix.size() + fresh.uops.size()) << label;
        const std::span<const uops::Uop> all(out);
        EXPECT_TRUE(test::sameUops(all.first(prefix.size()), prefix))
            << label;
        EXPECT_TRUE(test::sameUops(all.subspan(prefix.size()), fresh.uops))
            << label;
    };

    for (u64 seed : {1, 2, 3, 4, 5}) {
        Pcg32 rng(seed, 13);
        for (int iter = 0; iter < 200; ++iter) {
            const MemRef m{x86::EBX,
                           rng.chance(0.5) ? x86::ESI : x86::REG_NONE, 4,
                           static_cast<i32>(rng.below(1024))};
            const Insn before = randomInsn(rng, m);
            const Insn in = randomInsn(rng, m);
            check(before, in,
                  "seed " + std::to_string(seed) + " iter " +
                      std::to_string(iter));
        }
    }

    // A prefix ending in the Limm of `mov r, imm`, then an ALU op
    // reading r: the shape an immediate fold could reach back into.
    for (unsigned r = 0; r < x86::NUM_REGS; ++r) {
        const Reg reg = static_cast<Reg>(r);
        const Insn mov =
            assembleOne([&](Assembler &a) { a.movRI(reg, 5); });
        const Insn add = assembleOne(
            [&](Assembler &a) { a.aluRR(Op::Add, x86::EBX, reg); });
        check(mov, add, std::string("mov/add ") + x86::regName(reg));
    }
}

TEST(CrackAppend, ImmediateFoldStaysInsideItsInstruction)
{
    // mov eax, 5 cracks to a Limm of eax. The add in the same block
    // reads eax as its second source, but the Limm belongs to the
    // previous instruction: folding it into the add would drop the
    // write of eax.
    Assembler as(0x1000);
    as.movRI(x86::EAX, 5);
    as.aluRR(Op::Add, x86::EBX, x86::EAX);
    as.hlt();
    const std::vector<u8> code = as.finalize();
    Memory mem;
    mem.writeBlock(0x1000, code);
    dbt::BasicBlockTranslator bbt(mem);
    const std::unique_ptr<dbt::Translation> t = bbt.translate(0x1000);
    ASSERT_TRUE(t);
    ASSERT_EQ(t->numX86Insns, 3u);

    CpuState start;
    start.regs[x86::EAX] = 0x1234;
    start.regs[x86::EBX] = 10;
    UState ust;
    ust.loadArch(start);
    UopExecutor exe(ust, mem);
    exe.run(t->uops, t->fallthroughPc);
    CpuState end = start;
    ust.storeArch(end);
    EXPECT_EQ(end.regs[x86::EAX], 5u);
    EXPECT_EQ(end.regs[x86::EBX], 15u);
}

} // namespace
} // namespace cdvm
