/**
 * @file
 * Template cold-tier tests (dbt/templates).
 *
 * Three layers of assurance that the IR-less template tier can never
 * diverge from the software BBT it replaces:
 *
 *   1. Rule-table lint: every learned rule is swept across its
 *      substitutable dimensions (register choices including the
 *      AH-family high classes, immediate magnitudes crossing the
 *      16-byte "complex" encoding threshold, displacement signs,
 *      scales, condition codes, targets and instruction lengths) and
 *      the specialized micro-ops must match the cracker bit for bit,
 *      deterministically.
 *   2. Interpreter cross-check: specialized micro-ops executed by the
 *      UopExecutor must reproduce the reference interpreter's
 *      architected state on the same sweeps.
 *   3. Translator behaviour: per-block fallback, provenance tagging
 *      and the coverage ablation knob.
 */

#include <optional>

#include <gtest/gtest.h>

#include "helpers.hh"

#include "common/random.hh"
#include "dbt/templates.hh"
#include "uops/crack.hh"
#include "uops/encoding.hh"
#include "uops/exec.hh"
#include "x86/decoder.hh"
#include "x86/form.hh"

namespace cdvm
{
namespace
{

using dbt::TemplateRule;
using dbt::TemplateRuleTable;
using test::sameUops;
using uops::UopExecutor;
using uops::UState;
using x86::Cond;
using x86::CpuState;
using x86::FormKey;
using x86::Insn;
using x86::MemRef;
using x86::Memory;
using x86::Op;
using x86::Operand;
using x86::Reg;

/** Concrete values for every substitutable dimension of a form. */
struct SweepVals
{
    Reg dstReg = x86::EAX;
    Reg srcReg = x86::EDX;
    Reg memBase = x86::EBX;
    Reg memIndex = x86::ESI;
    u8 scale = 2;
    i32 disp = 0x30;
    i64 srcImm = 0x11;
    i64 src2Imm = 0x22;
    unsigned cond = 4;
    Addr target = 0x5000;
    Addr pc = 0x4000;
    u8 length = 3;
};

/** Rebuild an operand of the given 4-bit shape from concrete values. */
Operand
operandFromShape(unsigned nib, Reg reg, i64 imm, const SweepVals &v)
{
    switch (static_cast<Operand::Kind>(nib & 3)) {
      case Operand::Kind::None:
        return Operand::none();
      case Operand::Kind::Reg:
        return Operand::makeReg(reg);
      case Operand::Kind::Mem: {
        MemRef m;
        m.base = (nib & 4) ? v.memBase : x86::REG_NONE;
        m.index = (nib & 8) ? v.memIndex : x86::REG_NONE;
        m.scale = (nib & 8) ? v.scale : 1;
        m.disp = v.disp;
        return Operand::makeMem(m);
      }
      default:
        return Operand::makeImm(imm);
    }
}

/** Reconstruct an instruction of the rule's form from sweep values. */
Insn
buildFromKey(FormKey key, const SweepVals &v)
{
    Insn in;
    in.op = static_cast<Op>(key & 0xff);
    unsigned szl = (key >> 8) & 3;
    in.opSize = szl == 0 ? 1 : szl == 1 ? 2 : 4;
    in.pc = v.pc;
    in.length = v.length;
    in.cond = static_cast<Cond>(v.cond);
    in.target = v.target;
    in.dst = operandFromShape((key >> 10) & 0xf, v.dstReg, v.srcImm, v);
    in.src = operandFromShape((key >> 14) & 0xf, v.srcReg, v.srcImm, v);
    in.src2 =
        operandFromShape((key >> 18) & 0xf, v.srcReg, v.src2Imm, v);
    return in;
}

/** Register candidates of one shape class (lo = EAX..EBX, hi = rest). */
std::vector<Reg>
regClass(unsigned nib)
{
    if (nib & 4)
        return {x86::ESP, x86::EBP, x86::ESI, x86::EDI};
    return {x86::EAX, x86::ECX, x86::EDX, x86::EBX};
}

/**
 * One-at-a-time sweep over every substitutable dimension of a rule's
 * form. Variants whose form key no longer matches the rule (register
 * aliasing, `pop esp`) are dropped — those are different forms with
 * their own handling. `small_values` restricts displacements and
 * immediates to execution-friendly magnitudes for the interpreter
 * cross-check; the structural lint uses the full range.
 */
std::vector<Insn>
sweepInsns(const TemplateRule &r, bool small_values)
{
    FormKey key = r.key;
    Op op = static_cast<Op>(key & 0xff);
    unsigned ds = (key >> 10) & 0xf;
    unsigned ss = (key >> 14) & 0xf;
    unsigned s2s = (key >> 18) & 0xf;
    bool popEsp = key & (1u << 23);

    SweepVals base;
    if ((ds & 3) == 1)
        base.dstReg = regClass(ds)[0];
    if (popEsp)
        base.dstReg = x86::ESP;
    if ((ss & 3) == 1)
        base.srcReg = regClass(ss).back();

    std::vector<SweepVals> vals;
    vals.push_back(base);
    auto vary = [&](auto &&set) {
        SweepVals v = base;
        set(v);
        vals.push_back(v);
    };

    if ((ds & 3) == 1 && !popEsp)
        for (Reg r2 : regClass(ds))
            vary([&](SweepVals &v) { v.dstReg = r2; });
    if ((ss & 3) == 1)
        for (Reg r2 : regClass(ss))
            vary([&](SweepVals &v) { v.srcReg = r2; });

    bool hasMem = (ds & 3) == 2 || (ss & 3) == 2;
    unsigned memNib = (ds & 3) == 2 ? ds : ss;
    if (hasMem) {
        if (memNib & 4)
            for (Reg b : {x86::EAX, x86::EBX, x86::EBP, x86::EDI})
                vary([&](SweepVals &v) { v.memBase = b; });
        if (memNib & 8) {
            for (Reg ix : {x86::ECX, x86::EDX, x86::ESI, x86::EDI})
                vary([&](SweepVals &v) { v.memIndex = ix; });
            for (u8 sc : {1, 2, 4, 8})
                vary([&](SweepVals &v) { v.scale = sc; });
        }
        static const i32 disps_full[] = {0, 1, -1, 0x7fff, -0x8000,
                                         0x1234567};
        static const i32 disps_small[] = {0, 4, -8, 0x7f0};
        for (i32 d : small_values ? std::span<const i32>(disps_small)
                                  : std::span<const i32>(disps_full))
            vary([&](SweepVals &v) { v.disp = d; });
    }

    bool hasImm = (ss & 3) == 3 || (s2s & 3) == 3;
    if (hasImm) {
        // The large magnitudes force long Limm encodings, crossing the
        // 16-byte complex threshold for forms near the boundary.
        static const i64 imms_full[] = {0,    1,          -1,
                                        127,  -128,       0x7fffffff,
                                        -0x7fffffffll - 1};
        static const i64 imms_small[] = {0, 1, -1, 100, 0x12345};
        for (i64 i : small_values ? std::span<const i64>(imms_small)
                                  : std::span<const i64>(imms_full))
            vary([&](SweepVals &v) {
                ((ss & 3) == 3 ? v.srcImm : v.src2Imm) = i;
            });
    }

    if (op == Op::Jcc || op == Op::Setcc)
        for (unsigned c = 0; c < 16; ++c)
            vary([&](SweepVals &v) { v.cond = c; });
    if (op == Op::Jcc || op == Op::Jmp || op == Op::Call)
        vary([&](SweepVals &v) { v.target = 0x123450; });
    for (u8 len : {2, 5, 13})
        vary([&](SweepVals &v) { v.length = len; });
    vary([&](SweepVals &v) { v.pc = 0x9eb0; });

    std::vector<Insn> out;
    for (const SweepVals &v : vals) {
        Insn in = buildFromKey(key, v);
        if (x86::formKey(in) == key)
            out.push_back(in);
    }
    return out;
}

TEST(TemplateRules, TableIsSubstantial)
{
    const TemplateRuleTable &t = TemplateRuleTable::instance();
    EXPECT_GT(t.numRules(), 1000u);
    // Every rule is reachable through lookup at full coverage...
    for (std::size_t i = 0; i < t.numRules(); ++i)
        EXPECT_EQ(t.find(t.ruleAt(i).key), &t.ruleAt(i));
    // ...and the ablation knob hides the tail of the enumeration.
    EXPECT_EQ(t.find(t.ruleAt(t.numRules() - 1).key, 0), nullptr);
    EXPECT_NE(t.find(t.ruleAt(0).key, 1), nullptr);
}

TEST(TemplateRules, LintEveryRuleMatchesCrackerOnSweeps)
{
    const TemplateRuleTable &t = TemplateRuleTable::instance();
    u64 checked = 0;
    for (std::size_t i = 0; i < t.numRules(); ++i) {
        const TemplateRule &r = t.ruleAt(i);
        for (const Insn &in : sweepInsns(r, false)) {
            uops::CrackResult cr = uops::crack(in);
            uops::UopVec a, b;
            unsigned bytes = 0;
            bool ca = TemplateRuleTable::specialize(r, in, a, &bytes);
            bool cb = TemplateRuleTable::specialize(r, in, b);
            ASSERT_TRUE(sameUops(a, b))
                << "non-deterministic specialization: " << in.toString();
            EXPECT_EQ(ca, cb) << in.toString();
            ASSERT_TRUE(sameUops(a, cr.uops))
                << "rule " << i << " diverges from crack: "
                << in.toString();
            EXPECT_EQ(ca, cr.complex)
                << "complex flag diverges: " << in.toString();
            // The baked fixed-size + patched-uop accounting must agree
            // with a full encode (TemplateTranslator sums it per block
            // into Translation::codeBytes).
            EXPECT_EQ(bytes, uops::encodedBytes(a))
                << "encoded-size accounting diverges: " << in.toString();
            ++checked;
        }
    }
    // The sweeps must actually exercise the table, not filter it away.
    EXPECT_GT(checked, 10 * t.numRules());
}

/**
 * Execute one instruction via the interpreter and via its specialized
 * template micro-ops from the same initial state; compare everything
 * (the test_crack_exec protocol, with specialize() as the producer).
 */
void
checkSemantics(const TemplateRule &r, const Insn &in,
               const CpuState &start, Memory &mem_template,
               const std::string &label)
{
    Memory mem_a = mem_template;
    CpuState cpu_a = start;
    x86::Interpreter interp(cpu_a, mem_a);
    x86::StepResult sr = interp.execute(in);

    uops::UopVec uv;
    TemplateRuleTable::specialize(r, in, uv);
    Memory mem_b = mem_template;
    UState ust;
    ust.loadArch(start);
    UopExecutor exe(ust, mem_b);
    uops::BlockResult br = exe.run(uv, in.nextPc());
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

    for (unsigned reg = 0; reg < x86::NUM_REGS; ++reg)
        EXPECT_EQ(cpu_a.regs[reg], cpu_b.regs[reg])
            << label << " reg "
            << x86::regName(static_cast<Reg>(reg))
            << "\n  insn: " << in.toString();
    EXPECT_EQ(cpu_a.eflags & x86::FLAG_ALL,
              cpu_b.eflags & x86::FLAG_ALL)
        << label << "\n  insn: " << in.toString();
    EXPECT_EQ(cpu_a.eip, cpu_b.eip)
        << label << "\n  insn: " << in.toString();

    std::vector<u8> da = mem_a.readBlock(0x00800000, 8192);
    std::vector<u8> db = mem_b.readBlock(0x00800000, 8192);
    EXPECT_EQ(da, db) << label << "\n  insn: " << in.toString();
    std::vector<u8> sa = mem_a.readBlock(0x7ffeff00, 0x200);
    std::vector<u8> sb = mem_b.readBlock(0x7ffeff00, 0x200);
    EXPECT_EQ(sa, sb) << label << "\n  insn: " << in.toString();
}

TEST(TemplateRules, InterpreterCrossCheckOnSweeps)
{
    const TemplateRuleTable &t = TemplateRuleTable::instance();
    Pcg32 rng(2026, 8);
    Memory mem_template;
    for (Addr a = 0x00800000; a < 0x00800000 + 4096; a += 4)
        mem_template.write32(a, rng.next());

    for (std::size_t i = 0; i < t.numRules(); ++i) {
        const TemplateRule &r = t.ruleAt(i);
        Op op = static_cast<Op>(r.key & 0xff);
        // Interp-vs-uop equivalence of the serializing forms is not a
        // template-tier property; the structural lint already pins
        // them to the cracker's exact micro-ops.
        if (op == Op::Cpuid || op == Op::Rdtsc || op == Op::Int3)
            continue;
        for (const Insn &in : sweepInsns(r, true)) {
            CpuState start;
            for (unsigned reg2 = 0; reg2 < x86::NUM_REGS; ++reg2)
                start.regs[reg2] = rng.next();
            start.regs[x86::ESP] = 0x7fff0000 - rng.below(64) * 4;
            start.eflags = 0x202 | (rng.next() & x86::FLAG_ALL);
            // Constrain any memory operand into the seeded window.
            const Operand *memOp = in.dst.isMem()   ? &in.dst
                                   : in.src.isMem() ? &in.src
                                                    : nullptr;
            if (memOp) {
                if (memOp->mem.hasBase() &&
                    memOp->mem.base != x86::ESP)
                    start.regs[memOp->mem.base] = 0x00800000 + 0x800;
                if (memOp->mem.hasIndex())
                    start.regs[memOp->mem.index] = rng.below(32);
                if ((memOp->mem.hasBase() &&
                     memOp->mem.base == x86::ESP) ||
                    (memOp->mem.hasIndex() &&
                     memOp->mem.index == x86::ESP))
                    continue; // stack-relative: outside the window
            }
            Memory mem = mem_template;
            if (in.isRet())
                mem.write32(start.regs[x86::ESP], 0x2222);
            if (in.op == Op::JmpInd || in.op == Op::CallInd) {
                if (in.src.isReg())
                    start.regs[in.src.reg] = 0x1400;
                else if (in.src.isMem())
                    mem.write32(0x00800000 + 0x800 +
                                    static_cast<u32>(in.src.mem.disp),
                                0x1400);
            }
            checkSemantics(r, in, start, mem,
                           "rule " + std::to_string(i));
        }
    }
}

TEST(TemplateTranslator, ProvenanceFallbackAndCoverage)
{
    x86::Assembler as(0x1000);
    as.aluRI(Op::Add, x86::EAX, 5);
    as.movRM(x86::ECX, MemRef{x86::EBX, x86::REG_NONE, 1, 8});
    as.push(x86::EAX);
    as.pop(x86::EDX);
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    // Full coverage: the block comes from templates.
    {
        x86::Memory mem;
        prog.loadInto(mem);
        dbt::TemplateTranslator tx(mem, 32, 100);
        auto t = tx.translate(0x1000);
        ASSERT_TRUE(t);
        EXPECT_EQ(static_cast<int>(t->provenance),
                  static_cast<int>(dbt::TransProvenance::TmplBbt));
        EXPECT_GT(tx.templatedBlocks(), 0u);
        EXPECT_EQ(tx.fallbackBlocks(), 0u);

        // The templated block must equal the software BBT's, bit for
        // bit, including boundaries.
        dbt::BasicBlockTranslator sw(mem, 32);
        auto ref = sw.translate(0x1000);
        ASSERT_TRUE(ref);
        EXPECT_TRUE(sameUops(t->uops, ref->uops));
        EXPECT_EQ(t->numX86Insns, ref->numX86Insns);
        EXPECT_EQ(t->fallthroughPc, ref->fallthroughPc);
        EXPECT_EQ(t->containsComplex, ref->containsComplex);
    }

    // Zero coverage: every rule hidden, whole block falls back to the
    // embedded software translator (provenance says so).
    {
        x86::Memory mem;
        prog.loadInto(mem);
        dbt::TemplateTranslator tx(mem, 32, 0);
        auto t = tx.translate(0x1000);
        ASSERT_TRUE(t);
        EXPECT_EQ(static_cast<int>(t->provenance),
                  static_cast<int>(dbt::TransProvenance::SwBbt));
        EXPECT_EQ(tx.templatedBlocks(), 0u);
        EXPECT_GT(tx.fallbackBlocks(), 0u);
    }
}

/** A block formed the per-instruction way. */
struct RefBlock
{
    uops::UopVec uops;
    std::vector<Addr> x86pcs;
    u32 codeBytes = 0;
    Addr fallthroughPc = 0;
};

/**
 * Reference block former: for each instruction a fresh
 * MAX_INSN_LEN + 1 byte fetch, a decode and a crack into a fresh
 * vector. No block at all for an entry pc on an unmapped page.
 */
std::optional<RefBlock>
referenceBlock(const Memory &mem, Addr pc, unsigned max_insns)
{
    if (!mem.isMapped(pc))
        return std::nullopt;
    RefBlock b;
    Addr cur = pc;
    for (unsigned n = 0; n < max_insns; ++n) {
        u8 window[x86::MAX_INSN_LEN + 1];
        mem.fetchWindow(cur, window, sizeof(window));
        const x86::DecodeResult dr = x86::decode(
            std::span<const u8>(window, sizeof(window)), cur);
        if (!dr.ok) {
            if (n == 0)
                return std::nullopt;
            break;
        }
        const uops::UopVec u = uops::crack(dr.insn).uops;
        b.uops.insert(b.uops.end(), u.begin(), u.end());
        b.x86pcs.push_back(cur);
        cur = dr.insn.nextPc();
        if (dr.insn.isCti())
            break;
    }
    b.codeBytes = uops::encodedBytes(b.uops);
    b.fallthroughPc = cur;
    return b;
}

TEST(BlockWindow, RefillsMatchPerInstructionFetch)
{
    // Twenty 15-byte instructions (four ignored segment prefixes on a
    // disp32+imm32 store or rmw) fill the last 296 bytes of a mapped
    // page: a block runs past the 192-byte window, its last
    // instruction straddles into the unmapped page after it, and the
    // block goes on through the hole's zero bytes (add [eax], al).
    const Addr hole = 0x11000;
    const Addr origin = hole - 296;
    x86::Assembler as(origin);
    std::vector<Addr> starts;
    for (int i = 0; i < 20; ++i) {
        starts.push_back(as.here());
        for (int p = 0; p < 4; ++p)
            as.db(0x3e);
        const MemRef m{x86::EBX, x86::ESI, 4, 0x12340 + 4 * i};
        if (i % 3 == 2)
            as.aluMI(Op::Add, m, 0x55667788 + i);
        else
            as.movMI(m, 0x11223344 + i);
        ASSERT_EQ(as.here() - starts.back(), 15u) << "insn " << i;
    }
    const std::vector<u8> code = as.finalize();
    Memory mem;
    mem.writeBlock(origin,
                   std::span<const u8>(code.data(), hole - origin));
    ASSERT_FALSE(mem.isMapped(hole));

    const unsigned max_insns = 64;
    dbt::BasicBlockTranslator sw(mem, max_insns);
    dbt::TemplateTranslator tm(mem, max_insns, 100);
    std::vector<Addr> entries = starts;
    entries.push_back(origin + 1); // mid-instruction entry
    for (Addr pc : entries) {
        const std::optional<RefBlock> ref =
            referenceBlock(mem, pc, max_insns);
        ASSERT_TRUE(ref) << std::hex << pc;
        ASSERT_GT(ref->fallthroughPc, hole) << std::hex << pc;
        const std::unique_ptr<dbt::Translation> got[] = {
            sw.translate(pc), tm.translate(pc)};
        for (const std::unique_ptr<dbt::Translation> &t : got) {
            ASSERT_TRUE(t) << std::hex << pc;
            EXPECT_TRUE(sameUops(t->uops, ref->uops)) << std::hex << pc;
            EXPECT_EQ(t->x86pcs, ref->x86pcs) << std::hex << pc;
            EXPECT_EQ(t->codeBytes, ref->codeBytes) << std::hex << pc;
            EXPECT_EQ(t->fallthroughPc, ref->fallthroughPc)
                << std::hex << pc;
        }
    }

    // An entry pc on an unmapped page has no block.
    for (Addr pc : {hole, hole + 0x800}) {
        EXPECT_FALSE(referenceBlock(mem, pc, max_insns));
        EXPECT_EQ(sw.translate(pc), nullptr) << std::hex << pc;
        EXPECT_EQ(tm.translate(pc), nullptr) << std::hex << pc;
    }
}

TEST(TemplateVmm, SmcParityWithSoftwareBbt)
{
    // The VMM does not invalidate translations on guest code writes;
    // a self-modifying program therefore executes whatever mix of
    // stale translated code and fresh translations the block shapes
    // imply. Both tiers form identical blocks, so their outcomes must
    // be identical -- compared against each other, not the
    // interpreter (which always sees the rewritten bytes).
    x86::Assembler as(0x1000);
    as.movRI(x86::EBX, 0x100d); // imm32 of the movRI(EAX) below
    as.movRI(x86::ECX, 0x2222);
    as.movMR(MemRef{x86::EBX, x86::REG_NONE, 1, 0}, x86::ECX);
    as.movRI(x86::EAX, 0x1111); // at 0x100c, patched in flight
    as.hlt();
    workload::Program prog = test::snippetProgram(as);

    vmm::VmmConfig cfg_soft = engine::EngineConfig::vmSoft();
    vmm::VmmConfig cfg_tmpl = engine::EngineConfig::fromSpec("tmpl");

    x86::Memory mem_a, mem_b;
    test::RunResult a = test::runVmm(prog, mem_a, cfg_soft);
    test::RunResult b = test::runVmm(prog, mem_b, cfg_tmpl);
    ASSERT_EQ(static_cast<int>(a.exit),
              static_cast<int>(x86::Exit::Halted));
    EXPECT_TRUE(test::sameOutcome(prog, a, mem_a, b, mem_b));
    EXPECT_EQ(a.retired, b.retired);
}

TEST(TemplateVmm, RetiresIdenticallyToInterpreter)
{
    workload::ProgramParams pp;
    pp.seed = 909;
    pp.mainIterations = 30;
    workload::Program prog = workload::generateProgram(pp);

    x86::Memory ref_mem;
    test::RunResult ref = test::runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit),
              static_cast<int>(x86::Exit::Halted));

    vmm::VmmConfig cfg = engine::EngineConfig::fromSpec("tmpl");
    cfg.hotThreshold = 30;
    x86::Memory mem;
    vmm::VmmStats stats;
    test::RunResult got = test::runVmm(prog, mem, cfg, &stats);
    EXPECT_TRUE(test::sameOutcome(prog, ref, ref_mem, got, mem));
    EXPECT_GT(stats.bbtTranslations, 0u);
}

} // namespace
} // namespace cdvm
