#include "dbt/templates.hh"

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>

#include "common/statreg.hh"
#include "uops/crack.hh"
#include "uops/encoding.hh"
#include "x86/decoder.hh"
#include "x86/memory.hh"

namespace cdvm::dbt
{

using uops::Uop;
using x86::Cond;
using x86::Insn;
using x86::MemRef;
using x86::Op;
using x86::Operand;
using x86::Reg;

TmplParams
extractTmplParams(const Insn &in)
{
    TmplParams p{};
    p[TP_DST_REG] = in.dst.isReg() ? in.dst.reg : 0;
    p[TP_SRC_REG] = in.src.isReg() ? in.src.reg : 0;
    p[TP_SRC_IMM] = in.src.isImm() ? in.src.imm : 0;
    p[TP_SRC2_IMM] = in.src2.isImm() ? in.src2.imm : 0;
    const MemRef *m = in.dst.isMem()   ? &in.dst.mem
                      : in.src.isMem() ? &in.src.mem
                                       : nullptr;
    p[TP_MEM_SCALE] = 1;
    if (m) {
        p[TP_MEM_BASE] = m->hasBase() ? m->base : 0;
        p[TP_MEM_INDEX] = m->hasIndex() ? m->index : 0;
        p[TP_MEM_SCALE] = m->scale;
        p[TP_MEM_DISP] = m->disp;
    }
    p[TP_COND] = static_cast<u8>(in.cond);
    p[TP_TARGET] = static_cast<i64>(in.target);
    p[TP_NEXT_PC] = static_cast<i64>(in.nextPc());
    return p;
}

namespace
{

/**
 * Fetch one substitutable parameter straight from the instruction.
 * Mirrors extractTmplParams() case for case; the hot specialize path
 * uses this so an instruction with two patches costs two lookups, not
 * an 11-entry extraction.
 */
i64
paramValue(const x86::Insn &in, u8 param)
{
    switch (param) {
      case TP_DST_REG: return in.dst.isReg() ? in.dst.reg : 0;
      case TP_SRC_REG: return in.src.isReg() ? in.src.reg : 0;
      case TP_SRC_IMM: return in.src.isImm() ? in.src.imm : 0;
      case TP_SRC2_IMM: return in.src2.isImm() ? in.src2.imm : 0;
      case TP_COND: return static_cast<u8>(in.cond);
      case TP_TARGET: return static_cast<i64>(in.target);
      case TP_NEXT_PC: return static_cast<i64>(in.nextPc());
      default: {
        const x86::MemRef *m = in.dst.isMem()   ? &in.dst.mem
                               : in.src.isMem() ? &in.src.mem
                                                : nullptr;
        if (!m)
            return param == TP_MEM_SCALE ? 1 : 0;
        switch (param) {
          case TP_MEM_BASE: return m->hasBase() ? m->base : 0;
          case TP_MEM_INDEX: return m->hasIndex() ? m->index : 0;
          case TP_MEM_SCALE: return m->scale;
          default: return m->disp;
        }
      }
    }
}

i64
getField(const Uop &u, u8 f)
{
    switch (f) {
      case TF_DST: return u.dst;
      case TF_SRC1: return u.src1;
      case TF_SRC2: return u.src2;
      case TF_SIZE: return u.size;
      case TF_SCALE: return u.scale;
      case TF_COND: return u.cond;
      case TF_IMM: return u.imm;
      default: return static_cast<i64>(u.target);
    }
}

void
setField(Uop &u, u8 f, i64 v)
{
    switch (f) {
      case TF_DST: u.dst = static_cast<u8>(v); break;
      case TF_SRC1: u.src1 = static_cast<u8>(v); break;
      case TF_SRC2: u.src2 = static_cast<u8>(v); break;
      case TF_SIZE: u.size = static_cast<u8>(v); break;
      case TF_SCALE: u.scale = static_cast<u8>(v); break;
      case TF_COND: u.cond = static_cast<u8>(v); break;
      case TF_IMM: u.imm = static_cast<i32>(v); break;
      default: u.target = static_cast<Addr>(v); break;
    }
}

/** Shape equality: the non-substitutable parts of a micro-op. */
bool
sameShape(const Uop &a, const Uop &b)
{
    return a.op == b.op && a.hasImm == b.hasImm &&
           a.writeFlags == b.writeFlags && a.fusedHead == b.fusedHead;
}

bool
uopsEqual(const uops::UopVec &a, const uops::UopVec &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (!sameShape(a[i], b[i]) || a[i].x86pc != b[i].x86pc)
            return false;
        for (u8 f = 0; f < TF_NUM_FIELDS; ++f) {
            if (getField(a[i], f) != getField(b[i], f))
                return false;
        }
    }
    return true;
}

/** One candidate instruction form offered to the learner. */
struct Shape
{
    Operand::Kind dst = Operand::Kind::None;
    Operand::Kind src = Operand::Kind::None;
    Operand::Kind src2 = Operand::Kind::None;
    bool dstHi = false;    //!< dst register drawn from the >= 4 class
    bool srcHi = false;    //!< src register drawn from the >= 4 class
    bool memBase = false;  //!< the memory operand has a base register
    bool memIndex = false; //!< the memory operand has an index register
    bool pinDstEsp = false; //!< dst register pinned to ESP (pop esp)
    /**
     * dst and src are the *same* register (`xor edx, edx`,
     * `test eax, eax`, `movzx al, eax`...). Both probe operands draw
     * from TP_DST_REG and only that parameter is marked varied, so
     * field attribution stays unambiguous even though the two
     * registers move in lockstep.
     */
    bool alias = false;
};

/** The two synthetic probes a rule is learned from. */
struct ProbePair
{
    Insn a, b;
    TmplParams pa{}, pb{};
    std::array<bool, TP_NUM_PARAMS> varied{};
};

constexpr Addr PROBE_PC = 0x8000;

/**
 * Build the probe pair for a form. Every substitutable parameter the
 * form exposes is varied between the probes with a delta distinct
 * from every other varied parameter's, so the learner can attribute
 * each moving micro-op field to exactly one parameter. Returns
 * nullopt when distinct deltas cannot be assigned (never happens for
 * the shapes enumerated below; the guard keeps growth honest).
 */
std::optional<ProbePair>
makeProbes(Op op, unsigned op_size, const Shape &sh)
{
    ProbePair pp;
    std::vector<i64> used;

    // Register probe pairs per class; deltas within a class are
    // distinct, and the used-set keeps them distinct across classes.
    // The high class avoids ESP so probe values stay canonical.
    auto pick = [&](bool hi) -> std::optional<std::pair<int, int>> {
        static constexpr std::pair<int, int> LO[] = {{0, 1}, {1, 3}, {0, 3}};
        static constexpr std::pair<int, int> HI[] = {{5, 6}, {7, 5}, {5, 7}};
        std::span<const std::pair<int, int>> cands =
            hi ? std::span<const std::pair<int, int>>(HI)
               : std::span<const std::pair<int, int>>(LO);
        for (const auto &c : cands) {
            i64 d = c.second - c.first;
            if (std::find(used.begin(), used.end(), d) == used.end()) {
                used.push_back(d);
                return c;
            }
        }
        return std::nullopt;
    };

    auto setPair = [&](TmplParam p, i64 va, i64 vb) {
        pp.pa[p] = va;
        pp.pb[p] = vb;
        pp.varied[p] = va != vb;
    };

    if (sh.dst == Operand::Kind::Reg) {
        if (sh.pinDstEsp) {
            setPair(TP_DST_REG, x86::ESP, x86::ESP);
        } else {
            auto c = pick(sh.dstHi);
            if (!c)
                return std::nullopt;
            setPair(TP_DST_REG, c->first, c->second);
        }
    }
    if (sh.src == Operand::Kind::Reg) {
        if (sh.alias) {
            // Same values as dst, but *not* marked varied: every
            // matching field delta attributes to TP_DST_REG alone.
            pp.pa[TP_SRC_REG] = pp.pa[TP_DST_REG];
            pp.pb[TP_SRC_REG] = pp.pb[TP_DST_REG];
        } else {
            auto c = pick(sh.srcHi);
            if (!c)
                return std::nullopt;
            setPair(TP_SRC_REG, c->first, c->second);
        }
    }
    bool has_mem =
        sh.dst == Operand::Kind::Mem || sh.src == Operand::Kind::Mem;
    pp.pa[TP_MEM_SCALE] = pp.pb[TP_MEM_SCALE] = 1;
    if (has_mem) {
        if (sh.memBase) {
            auto c = pick(false);
            if (!c)
                return std::nullopt;
            setPair(TP_MEM_BASE, c->first, c->second);
        }
        if (sh.memIndex) {
            auto c = pick(false);
            if (!c)
                return std::nullopt;
            setPair(TP_MEM_INDEX, c->first, c->second);
            setPair(TP_MEM_SCALE, 1, 8); // delta 7, unique
        }
        setPair(TP_MEM_DISP, 0x40, 0x40 + 0x41400);
    }
    if (sh.src == Operand::Kind::Imm)
        setPair(TP_SRC_IMM, 0x1234, 0x1234 + 0x151000);
    if (sh.src2 == Operand::Kind::Imm)
        setPair(TP_SRC2_IMM, 0x2222, 0x2222 + 0x252000);
    if (op == Op::Jcc || op == Op::Setcc)
        setPair(TP_COND, 2, 6); // delta 4, unique vs register deltas
    setPair(TP_TARGET, 0x40001000, 0x40001000 + 0x1110000);
    // pc is held constant (x86pc is overwritten wholesale when
    // specializing); nextPc varies through the encoded length.
    setPair(TP_NEXT_PC, static_cast<i64>(PROBE_PC) + 2,
            static_cast<i64>(PROBE_PC) + 13);

    auto build = [&](const TmplParams &p, u8 length) {
        Insn in{};
        in.op = op;
        in.opSize = static_cast<u8>(op_size);
        in.pc = PROBE_PC;
        in.length = length;
        in.cond = static_cast<Cond>(p[TP_COND]);
        in.target = static_cast<Addr>(p[TP_TARGET]);
        auto operand = [&](Operand::Kind k, TmplParam reg_p,
                           TmplParam imm_p) {
            switch (k) {
              case Operand::Kind::Reg:
                return Operand::makeReg(static_cast<Reg>(p[reg_p]));
              case Operand::Kind::Imm:
                return Operand::makeImm(p[imm_p]);
              case Operand::Kind::Mem: {
                MemRef m;
                m.base = sh.memBase ? static_cast<Reg>(p[TP_MEM_BASE])
                                    : x86::REG_NONE;
                m.index = sh.memIndex
                              ? static_cast<Reg>(p[TP_MEM_INDEX])
                              : x86::REG_NONE;
                m.scale = static_cast<u8>(p[TP_MEM_SCALE]);
                m.disp = static_cast<i32>(p[TP_MEM_DISP]);
                return Operand::makeMem(m);
              }
              default:
                return Operand::none();
            }
        };
        in.dst = operand(sh.dst, TP_DST_REG, TP_SRC_IMM);
        in.src = operand(sh.src, TP_SRC_REG, TP_SRC_IMM);
        in.src2 = operand(sh.src2, TP_SRC_REG, TP_SRC2_IMM);
        return in;
    };
    pp.a = build(pp.pa, 2);
    pp.b = build(pp.pb, 13);
    return pp;
}

/**
 * Learn the rule for one form by double-cracking its probes and
 * attributing every moving field to exactly one parameter delta.
 */
std::optional<TemplateRule>
learnRule(Op op, unsigned op_size, const Shape &sh)
{
    std::optional<ProbePair> pp = makeProbes(op, op_size, sh);
    if (!pp || x86::formKey(pp->a) != x86::formKey(pp->b))
        return std::nullopt;

    uops::CrackResult ca = uops::crack(pp->a);
    uops::CrackResult cb = uops::crack(pp->b);
    if (ca.uops.size() != cb.uops.size())
        return std::nullopt;

    TemplateRule r;
    r.key = x86::formKey(pp->a);
    r.skeleton = ca.uops;
    r.insnComplex = pp->a.isComplex();
    for (size_t i = 0; i < ca.uops.size(); ++i) {
        if (!sameShape(ca.uops[i], cb.uops[i]))
            return std::nullopt;
        for (u8 f = 0; f < TF_NUM_FIELDS; ++f) {
            i64 va = getField(ca.uops[i], f);
            i64 vb = getField(cb.uops[i], f);
            i64 d = vb - va;
            if (d == 0)
                continue;
            int match = -1;
            for (u8 pi = 0; pi < TP_NUM_PARAMS; ++pi) {
                if (!pp->varied[pi] || pp->pb[pi] - pp->pa[pi] != d)
                    continue;
                if (match >= 0)
                    return std::nullopt; // ambiguous attribution
                match = pi;
            }
            if (match < 0)
                return std::nullopt; // unexplained movement
            r.patches.push_back({static_cast<u8>(i), f,
                                 static_cast<u8>(match),
                                 va - pp->pa[match]});
        }
    }

    // Bound the encoded size reachable under any substitution: a
    // patched micro-op can encode anywhere in [2, MAX_UOP_BYTES]; an
    // unpatched one has a fixed size. When the bound decides crack's
    // `encodedBytes > 16` for every specialization, bake the answer.
    {
        std::vector<bool> patched(r.skeleton.size(), false);
        for (const TmplPatch &pt : r.patches)
            patched[pt.uop] = true;
        unsigned min_b = 0, max_b = 0;
        for (size_t i = 0; i < r.skeleton.size(); ++i) {
            if (patched[i]) {
                r.patchedUops.push_back(static_cast<u8>(i));
                min_b += 2;
                max_b += uops::MAX_UOP_BYTES;
            } else {
                unsigned b = r.skeleton[i].encodedSize();
                r.fixedBytes += static_cast<u16>(b);
                min_b += b;
                max_b += b;
            }
        }
        r.complexity = (r.insnComplex || min_b > 16)
                           ? TemplateRule::Always
                           : (max_b <= 16 ? TemplateRule::Never
                                          : TemplateRule::Depends);
    }

    // A rule only enters the table if it reproduces the cracker
    // bit-for-bit on both probes (complex flag included).
    uops::UopVec out;
    if (TemplateRuleTable::specialize(r, pp->a, out) != ca.complex ||
        !uopsEqual(out, ca.uops))
        return std::nullopt;
    out.clear();
    if (TemplateRuleTable::specialize(r, pp->b, out) != cb.complex ||
        !uopsEqual(out, cb.uops))
        return std::nullopt;
    return r;
}

} // namespace

bool
TemplateRuleTable::specialize(const TemplateRule &r, const Insn &in,
                              uops::UopVec &out, unsigned *bytes_out)
{
    const size_t base = out.size();
    out.insert(out.end(), r.skeleton.begin(), r.skeleton.end());
    for (const TmplPatch &pt : r.patches)
        setField(out[base + pt.uop], pt.field,
                 paramValue(in, pt.param) + pt.offset);
    for (size_t i = base; i < out.size(); ++i)
        out[i].x86pc = in.pc;
    // Encoded size: baked for the untouched skeleton micro-ops,
    // re-derived only for the patched ones (their immediates pick the
    // extension-word width). One pass serves both the caller's code-
    // byte accounting and the complexity recompute below.
    unsigned bytes = 0;
    if (bytes_out || r.complexity == TemplateRule::Depends) {
        bytes = r.fixedBytes;
        for (u8 ui : r.patchedUops)
            bytes += out[base + ui].encodedSize();
        if (bytes_out)
            *bytes_out = bytes;
    }
    if (r.complexity != TemplateRule::Depends)
        return r.complexity == TemplateRule::Always;
    return r.insnComplex || bytes > 16;
}

TemplateRuleTable::TemplateRuleTable()
{
    std::unordered_map<u32, u32> seen;
    auto add = [&](Op op, unsigned size, const Shape &sh) {
        std::optional<TemplateRule> r = learnRule(op, size, sh);
        if (!r || seen.contains(r->key))
            return;
        seen.emplace(r->key, static_cast<u32>(rules.size()));
        rules.push_back(std::move(*r));
    };

    using K = Operand::Kind;
    // Operand menus. A register operand comes in a low (< 4) and a
    // high (>= 4) class; a memory operand in the four addressing-mode
    // shapes. Aliased forms (dst == src register: zeroing idioms like
    // `xor edx, edx`, `test eax, eax`) carry a distinct form key --
    // their cracked shape can differ -- so each reg x reg group also
    // enumerates an alias variant per register class. They are hot:
    // compilers emit the zeroing idiom constantly.
    struct Opt
    {
        K k;
        bool hi = false, base = false, index = false;
    };
    const Opt regs[] = {{K::Reg, false}, {K::Reg, true}};
    const Opt mems[] = {{K::Mem, false, true, false},
                        {K::Mem, false, true, true},
                        {K::Mem, false, false, true},
                        {K::Mem, false, false, false}};
    const unsigned sizes[] = {4, 2, 1};

    auto shape1 = [](const Opt &d) {
        Shape s;
        s.dst = d.k;
        s.dstHi = d.hi;
        s.memBase = d.base;
        s.memIndex = d.index;
        return s;
    };
    auto shapeSrc = [](const Opt &srco) {
        Shape s;
        s.src = srco.k;
        s.srcHi = srco.hi;
        s.memBase = srco.base;
        s.memIndex = srco.index;
        return s;
    };
    auto shape2 = [&](const Opt &d, const Opt &srco) {
        Shape s = shape1(d);
        s.src = srco.k;
        s.srcHi = srco.hi;
        if (srco.k == K::Mem) {
            s.memBase = srco.base;
            s.memIndex = srco.index;
        }
        return s;
    };
    auto shapeAlias = [&](const Opt &d) {
        Shape s = shape2(d, d);
        s.alias = true;
        return s;
    };

    // Enumeration order is part of the contract: it is the ablation
    // knob's deterministic rule ordering, roughly hottest-form-first.

    // Mov, then the two-operand ALU group.
    const Op alu2_like[] = {Op::Mov, Op::Add, Op::Sub, Op::Cmp,
                            Op::And, Op::Or,  Op::Xor, Op::Test,
                            Op::Adc, Op::Sbb};
    for (Op op : alu2_like) {
        for (unsigned size : sizes) {
            for (const Opt &d : regs) {
                for (const Opt &srco : regs)
                    add(op, size, shape2(d, srco));
                add(op, size, shapeAlias(d));
                add(op, size, shape2(d, Opt{K::Imm}));
                for (const Opt &srco : mems)
                    add(op, size, shape2(d, srco));
            }
            for (const Opt &d : mems) {
                for (const Opt &srco : regs)
                    add(op, size, shape2(d, srco));
                add(op, size, shape2(d, Opt{K::Imm}));
            }
        }
    }

    // Control transfers.
    add(Op::Jcc, 4, Shape{});
    add(Op::Jmp, 4, Shape{});
    add(Op::Call, 4, Shape{});
    add(Op::Ret, 4, Shape{});
    {
        Shape s;
        s.src = K::Imm;
        add(Op::Ret, 4, s);
    }
    for (const Opt &srco : regs) {
        add(Op::JmpInd, 4, shapeSrc(srco));
        add(Op::CallInd, 4, shapeSrc(srco));
    }
    for (const Opt &srco : mems) {
        add(Op::JmpInd, 4, shapeSrc(srco));
        add(Op::CallInd, 4, shapeSrc(srco));
    }

    // Stack ops.
    for (const Opt &srco : regs)
        add(Op::Push, 4, shapeSrc(srco));
    add(Op::Push, 4, shapeSrc(Opt{K::Imm}));
    for (const Opt &srco : mems)
        add(Op::Push, 4, shapeSrc(srco));
    for (const Opt &d : regs)
        add(Op::Pop, 4, shape1(d));
    {
        Shape s;
        s.dst = K::Reg;
        s.dstHi = true;
        s.pinDstEsp = true;
        add(Op::Pop, 4, s); // `pop esp` elides the ESP adjust
    }
    for (const Opt &d : mems)
        add(Op::Pop, 4, shape1(d));

    // Lea.
    for (const Opt &d : regs) {
        for (const Opt &srco : mems)
            add(Op::Lea, 4, shape2(d, srco));
    }

    // Shifts and rotates (count: immediate or CL).
    const Op shifts[] = {Op::Shl, Op::Shr, Op::Sar, Op::Rol, Op::Ror};
    for (Op op : shifts) {
        for (unsigned size : sizes) {
            for (const Opt &d : regs) {
                add(op, size, shape2(d, Opt{K::Imm}));
                add(op, size, shape2(d, regs[0]));
            }
            for (const Opt &d : mems) {
                add(op, size, shape2(d, Opt{K::Imm}));
                add(op, size, shape2(d, regs[0]));
            }
        }
    }

    // One-operand RMW ALU.
    const Op alu1[] = {Op::Inc, Op::Dec, Op::Not, Op::Neg};
    for (Op op : alu1) {
        for (unsigned size : sizes) {
            for (const Opt &d : regs)
                add(op, size, shape1(d));
            for (const Opt &d : mems)
                add(op, size, shape1(d));
        }
    }

    // Widening moves (opSize is the *source* size).
    for (Op op : {Op::Movzx, Op::Movsx}) {
        for (unsigned size : {1u, 2u}) {
            for (const Opt &d : regs) {
                for (const Opt &srco : regs)
                    add(op, size, shape2(d, srco));
                add(op, size, shapeAlias(d));
                for (const Opt &srco : mems)
                    add(op, size, shape2(d, srco));
            }
        }
    }

    // Setcc (always byte-sized).
    for (const Opt &d : regs)
        add(Op::Setcc, 1, shape1(d));
    for (const Opt &d : mems)
        add(Op::Setcc, 1, shape1(d));

    // Xchg.
    for (unsigned size : sizes) {
        for (const Opt &d : regs) {
            for (const Opt &srco : regs)
                add(Op::Xchg, size, shape2(d, srco));
            add(Op::Xchg, size, shapeAlias(d));
        }
        for (const Opt &d : mems) {
            for (const Opt &srco : regs)
                add(Op::Xchg, size, shape2(d, srco));
        }
    }

    // Multiplies / divides.
    for (unsigned size : {4u, 2u}) {
        for (const Opt &d : regs) {
            for (const Opt &srco : regs) {
                add(Op::Imul, size, shape2(d, srco));
                Shape s3 = shape2(d, srco);
                s3.src2 = K::Imm;
                add(Op::Imul, size, s3);
            }
            add(Op::Imul, size, shapeAlias(d));
            {
                // `imul $k, %r` decodes dst == src (the 0x69/0x6b
                // r, r/m, imm form with both fields the same reg).
                Shape s3 = shapeAlias(d);
                s3.src2 = K::Imm;
                add(Op::Imul, size, s3);
            }
            for (const Opt &srco : mems) {
                add(Op::Imul, size, shape2(d, srco));
                Shape s3 = shape2(d, srco);
                s3.src2 = K::Imm;
                add(Op::Imul, size, s3);
            }
        }
    }
    for (Op op : {Op::MulA, Op::ImulA, Op::DivA, Op::IdivA}) {
        for (unsigned size : sizes) {
            for (const Opt &srco : regs)
                add(op, size, shapeSrc(srco));
            for (const Opt &srco : mems)
                add(op, size, shapeSrc(srco));
        }
    }

    // Nullary forms.
    for (Op op : {Op::Cdq, Op::Clc, Op::Stc, Op::Cmc, Op::Nop, Op::Hlt,
                  Op::Int3, Op::Cpuid, Op::Rdtsc})
        add(op, 4, Shape{});

    // Freeze the lookup structure: power-of-two open-addressed table
    // at <= 50% load, Fibonacci-hashed, linear probing.
    size_t cap = 16;
    while (cap < rules.size() * 2)
        cap <<= 1;
    index.assign(cap, Slot{});
    indexMask = static_cast<u32>(cap - 1);
    for (const auto &[key, idx] : seen) {
        u32 h = key * 0x9e3779b9u;
        u32 i = (h ^ (h >> 16)) & indexMask;
        while (index[i].idx != EMPTY_SLOT)
            i = (i + 1) & indexMask;
        index[i] = Slot{key, idx};
    }
}

const TemplateRuleTable &
TemplateRuleTable::instance()
{
    static const TemplateRuleTable table;
    return table;
}

const TemplateRule *
TemplateRuleTable::find(x86::FormKey key, unsigned coverage_pct) const
{
    u32 h = key * 0x9e3779b9u;
    for (u32 i = (h ^ (h >> 16)) & indexMask;; i = (i + 1) & indexMask) {
        const Slot &s = index[i];
        if (s.idx == EMPTY_SLOT)
            return nullptr;
        if (s.key != key)
            continue;
        if (coverage_pct < 100) {
            u32 limit =
                static_cast<u32>(rules.size() * coverage_pct / 100);
            if (s.idx >= limit)
                return nullptr;
        }
        return &rules[s.idx];
    }
}

TemplateTranslator::TemplateTranslator(x86::Memory &m, unsigned max_insns,
                                       unsigned coverage_pct)
    : mem(m), table(TemplateRuleTable::instance()),
      fallback(m, max_insns), maxInsns(max_insns),
      coveragePct(coverage_pct)
{
}

std::unique_ptr<Translation>
TemplateTranslator::translate(Addr pc)
{
    if (!mem.isMapped(pc))
        return nullptr;
    auto t = std::make_unique<Translation>();
    t->kind = TransKind::BasicBlock;
    t->entryPc = pc;
    t->provenance = TransProvenance::TmplBbt;

    scratchUops.clear();
    scratchPcs.clear();
    unsigned block_bytes = 0;
    Addr cur = pc;
    BlockWindow window(mem, pc);
    for (unsigned n = 0; n < maxInsns; ++n) {
        x86::DecodeResult dr = window.decode(cur);
        if (!dr.ok) {
            if (t->numX86Insns == 0)
                return nullptr;
            break;
        }
        const x86::Insn &in = dr.insn;
        const TemplateRule *r = table.find(x86::formKey(in), coveragePct);
        if (!r) {
            // First miss: the whole block takes the software path, so
            // block boundaries stay identical to VM.soft.
            ++nFallbackBlocks;
            std::unique_ptr<Translation> f = fallback.translate(pc);
            if (f)
                nFallbackInsns += f->numX86Insns;
            return f;
        }
        unsigned insn_bytes = 0;
        bool complex =
            TemplateRuleTable::specialize(*r, in, scratchUops,
                                          &insn_bytes);
        block_bytes += insn_bytes;
        t->containsComplex = t->containsComplex || complex;
        scratchPcs.push_back(in.pc);
        ++t->numX86Insns;
        t->x86Bytes += in.length;
        cur = in.nextPc();
        if (in.isCti()) {
            t->endsInCti = true;
            if (in.isCondBranch()) {
                t->endsInCondBranch = true;
                t->condBranchTarget = in.target;
                t->condBranchPc = in.pc;
            }
            break;
        }
    }

    t->fallthroughPc = cur;
    // Copy-assign from the scratch buffers: the persistent vectors
    // get exact-sized allocations, and block_bytes already equals
    // encodedBytes(t->uops) (asserted by the rule-table lint test).
    t->uops = scratchUops;
    t->x86pcs = scratchPcs;
    t->codeBytes = block_bytes;
    ++nTmplBlocks;
    nTmplInsns += t->numX86Insns;
    nRuleHits += t->numX86Insns;
    return t;
}

void
TemplateTranslator::exportStats(StatRegistry &reg,
                                const std::string &prefix) const
{
    fallback.exportStats(reg, prefix);
    u64 total = nTmplInsns + nFallbackInsns;
    reg.set("dbt.tmpl.rules", static_cast<double>(table.numRules()),
            "learned template rules in the shared table");
    reg.set("dbt.tmpl.blocks", static_cast<double>(nTmplBlocks),
            "blocks built entirely from templates");
    reg.set("dbt.tmpl.insns", static_cast<double>(nTmplInsns),
            "instructions translated by template specialization");
    reg.set("dbt.tmpl.rule_hits", static_cast<double>(nRuleHits),
            "successful rule lookups in committed template blocks");
    reg.set("dbt.tmpl.fallback_blocks",
            static_cast<double>(nFallbackBlocks),
            "blocks delegated to the software BBT");
    reg.set("dbt.tmpl.fallback_insns",
            static_cast<double>(nFallbackInsns),
            "instructions translated by the software fallback");
    reg.set("dbt.tmpl.coverage_pct",
            total ? 100.0 * static_cast<double>(nTmplInsns) /
                        static_cast<double>(total)
                  : 0.0,
            "percent of translated instructions handled by templates");
}

} // namespace cdvm::dbt
