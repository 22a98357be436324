/**
 * @file
 * Decoded-instruction model for the x86 subset.
 *
 * A decoded instruction carries a semantic opcode, up to three operands,
 * an operand size, the raw encoded length, and classification bits that
 * the translators (BBT/SBT) and the timing models consume.
 */

#ifndef CDVM_X86_INSN_HH
#define CDVM_X86_INSN_HH

#include <string>

#include "common/types.hh"
#include "x86/regs.hh"

namespace cdvm::x86
{

/** Semantic opcode, independent of encoding form. */
enum class Op : u8
{
    Invalid = 0,
    // ALU, two-operand, write flags.
    Add, Or, Adc, Sbb, And, Sub, Xor, Cmp, Test,
    // One-operand ALU.
    Inc, Dec, Not, Neg,
    // Shifts / rotates (count in operand 1, imm or CL).
    Shl, Shr, Sar, Rol, Ror,
    // Multiply / divide.
    Imul,       //!< two/three-operand forms (r, r/m [, imm])
    MulA,       //!< one-operand widening MUL (EDX:EAX = EAX * r/m)
    ImulA,      //!< one-operand widening IMUL
    DivA,       //!< unsigned divide of EDX:EAX
    IdivA,      //!< signed divide of EDX:EAX
    // Data movement.
    Mov, Movzx, Movsx, Lea, Xchg, Push, Pop,
    Cdq,        //!< sign-extend EAX into EDX
    // Control transfer.
    Jcc,        //!< conditional relative branch
    Jmp,        //!< unconditional relative jump
    JmpInd,     //!< indirect jump through r/m
    Call,       //!< relative call
    CallInd,    //!< indirect call through r/m
    Ret,        //!< near return (optional stack adjust)
    // Flag manipulation and misc.
    Setcc, Clc, Stc, Cmc, Nop,
    Hlt,        //!< used by the harness as the program-exit marker
    Int3,       //!< breakpoint trap
    Cpuid,      //!< modelled as a "complex" serializing instruction
    Rdtsc,      //!< modelled as a "complex" instruction
    NUM_OPS,
};

/** Memory operand: [base + index*scale + disp]. */
struct MemRef
{
    Reg base = REG_NONE;
    Reg index = REG_NONE;
    u8 scale = 1;        //!< 1, 2, 4, or 8
    i32 disp = 0;

    bool hasBase() const { return base != REG_NONE; }
    bool hasIndex() const { return index != REG_NONE; }
};

/** One instruction operand. */
struct Operand
{
    enum class Kind : u8 { None, Reg, Mem, Imm };

    Kind kind = Kind::None;
    Reg reg = REG_NONE;
    MemRef mem{};
    i64 imm = 0;

    static Operand none() { return Operand{}; }
    static Operand
    makeReg(Reg r)
    {
        Operand o;
        o.kind = Kind::Reg;
        o.reg = r;
        return o;
    }
    static Operand
    makeMem(MemRef m)
    {
        Operand o;
        o.kind = Kind::Mem;
        o.mem = m;
        return o;
    }
    static Operand
    makeImm(i64 v)
    {
        Operand o;
        o.kind = Kind::Imm;
        o.imm = v;
        return o;
    }

    bool isReg() const { return kind == Kind::Reg; }
    bool isMem() const { return kind == Kind::Mem; }
    bool isImm() const { return kind == Kind::Imm; }
    bool isNone() const { return kind == Kind::None; }
};

/** A fully decoded instruction. */
struct Insn
{
    Op op = Op::Invalid;
    Cond cond = Cond::O;     //!< for Jcc / Setcc
    Operand dst;             //!< operand 0 (destination for most ops)
    Operand src;             //!< operand 1
    Operand src2;            //!< operand 2 (three-operand IMUL)
    u8 opSize = 4;           //!< operand size in bytes: 1, 2 or 4
    u8 length = 0;           //!< encoded length in bytes
    Addr pc = 0;             //!< address of the first byte
    Addr target = 0;         //!< resolved target for relative CTIs

    bool valid() const { return op != Op::Invalid; }

    /** Address of the sequential successor. */
    Addr nextPc() const { return pc + length; }

    /** True for any control-transfer instruction (HLT and INT3 too). */
    bool
    isCti() const
    {
        switch (op) {
          case Op::Jcc:
          case Op::Jmp:
          case Op::JmpInd:
          case Op::Call:
          case Op::CallInd:
          case Op::Ret:
          case Op::Hlt:
          case Op::Int3:
            return true;
          default:
            return false;
        }
    }
    /** True for conditional relative branches. */
    bool isCondBranch() const { return op == Op::Jcc; }
    /** True for direct CTIs with a statically known target. */
    bool isDirectCti() const;
    bool isCall() const { return op == Op::Call || op == Op::CallInd; }
    bool isRet() const { return op == Op::Ret; }
    /** True if the instruction terminates emulation (HLT). */
    bool isExit() const { return op == Op::Hlt; }
    /** True if this form needs the slow "complex" decode path. */
    bool isComplex() const;
    /** True if execution reads EFLAGS (Jcc, Setcc, ADC, SBB, CMC). */
    bool readsFlags() const;
    /** True if execution writes any EFLAGS bits. */
    bool writesFlags() const;
    /** True if the instruction references memory (load and/or store). */
    bool touchesMemory() const;

    /** Disassemble to a human-readable AT&T-flavoured string. */
    std::string toString() const;
};

/** Mnemonic for a semantic opcode. */
std::string opName(Op op);

} // namespace cdvm::x86

#endif // CDVM_X86_INSN_HH
