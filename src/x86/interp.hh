/**
 * @file
 * Reference functional interpreter for the x86 subset.
 *
 * This is the golden model: the basic block translator, the superblock
 * optimizer and the XLTx86 hardware-assist model are all validated by
 * differential execution against it. It is also the component the
 * "interpretation followed by SBT" staged-emulation strategy of paper
 * Figure 2 models.
 *
 * Flags that real x86 leaves architecturally undefined (e.g. ZF/SF/PF
 * after IMUL) are given fixed, documented values so that differential
 * tests are exact; the micro-op executor implements the same choices.
 */

#ifndef CDVM_X86_INTERP_HH
#define CDVM_X86_INTERP_HH

#include <array>

#include "common/types.hh"
#include "x86/flags.hh"
#include "x86/insn.hh"
#include "x86/memory.hh"

namespace cdvm::x86
{

/** Why execution stopped (or that it has not). */
enum class Exit : u8
{
    None = 0,    //!< still running
    Halted,      //!< HLT reached: normal program completion
    Trap,        //!< INT3 or divide fault
    DecodeFault, //!< bytes did not decode
};

/** Display name of an exit reason. */
inline const char *
exitName(Exit e)
{
    switch (e) {
      case Exit::None:
        return "none";
      case Exit::Halted:
        return "halted";
      case Exit::Trap:
        return "trap";
      case Exit::DecodeFault:
        return "decode-fault";
    }
    return "?";
}

/** Architected x86 machine state. */
struct CpuState
{
    std::array<u32, NUM_REGS> regs{};
    u32 eip = 0;
    u32 eflags = 0x202; //!< IF and the always-one bit, as on real hardware
    InstCount icount = 0;

    u32 reg(Reg r) const { return regs[r]; }
    void setReg(Reg r, u32 v) { regs[r] = v; }

    /** Read a register at operand size (handles AH/CH/DH/BH). */
    u32
    readReg(Reg r, unsigned size) const
    {
        if (size == 1) {
            if (r >= 4) // AH/CH/DH/BH
                return (regs[r - 4] >> 8) & 0xff;
            return regs[r] & 0xff;
        }
        if (size == 2)
            return regs[r] & 0xffff;
        return regs[r];
    }

    /** Write a register at operand size, preserving upper bits. */
    void
    writeReg(Reg r, unsigned size, u32 v)
    {
        if (size == 1) {
            if (r >= 4) { // AH/CH/DH/BH
                const Reg base = static_cast<Reg>(r - 4);
                regs[base] = (regs[base] & 0xffff00ff) | ((v & 0xff) << 8);
            } else {
                regs[r] = (regs[r] & 0xffffff00) | (v & 0xff);
            }
            return;
        }
        if (size == 2) {
            regs[r] = (regs[r] & 0xffff0000) | (v & 0xffff);
            return;
        }
        regs[r] = v;
    }

    bool flag(u32 bit) const { return eflags & bit; }
    void
    setFlag(u32 bit, bool v)
    {
        eflags = v ? (eflags | bit) : (eflags & ~bit);
    }

    /** True if the two states have identical architected contents. */
    bool sameArchState(const CpuState &o) const;
};

/**
 * Result of executing one instruction: the bits the cold loop reads,
 * not a copy of the instruction.
 */
struct StepResult
{
    Addr pc = 0;             //!< address of the instruction
    Exit exit = Exit::None;
    bool taken = false;      //!< a taken Jcc, or any jump, call or ret
    bool cti = false;        //!< a control transfer: ends a dynamic block
    bool condBranch = false; //!< a conditional branch (profiled)

    bool operator==(const StepResult &) const = default;
};

class DecodeCache;

/**
 * Interpreter over a CpuState and a Memory. Also exposes the
 * instruction-execution core so the micro-op layer can reuse the exact
 * flag semantics.
 *
 * An optional DecodeCache memoizes the fetch+decode half of step();
 * execution semantics are identical with or without it (the cache is
 * invalidated by guest code writes, see decode_cache.hh).
 */
class Interpreter
{
  public:
    Interpreter(CpuState &state, Memory &memory,
                DecodeCache *decode_cache = nullptr)
        : cpu(state), mem(memory), dcache(decode_cache)
    {
    }

    /**
     * Fetch, decode and execute one instruction at cpu.eip. With a
     * DecodeCache the instruction runs straight from its cache line.
     */
    StepResult step();

    /**
     * Execute an already decoded instruction (the common core shared
     * with translated-code validation). Updates eip.
     */
    StepResult execute(const Insn &in);

    /** Run until an exit condition or max_insns retired instructions. */
    Exit run(InstCount max_insns);

  private:
    /**
     * The one instruction switch. Always inlined: stepInline() expands
     * it after the fetch and execute() wraps it, so step(), run() and
     * execute() all run the same body.
     */
    [[gnu::always_inline]] inline StepResult body(const Insn &in);
    /** Fetch at cpu.eip, then body(); step() and run() expand it. */
    [[gnu::always_inline]] inline StepResult stepInline();

    [[gnu::always_inline]] inline u32 readOperand(const Operand &o,
                                                  unsigned size);
    [[gnu::always_inline]] inline void writeOperand(const Operand &o,
                                                    unsigned size, u32 v);
    [[gnu::always_inline]] inline Addr effAddr(const MemRef &m) const;

    CpuState &cpu;
    Memory &mem;
    DecodeCache *dcache; //!< optional decoded-instruction cache
};

} // namespace cdvm::x86

#endif // CDVM_X86_INTERP_HH
