/**
 * @file
 * Architected (x86-subset) register file definitions and EFLAGS bits.
 *
 * The subset models 32-bit protected-mode integer state: the eight GPRs
 * with their 8/16-bit subregisters, EIP, and the six status flags that
 * the integer instructions of the subset read and write.
 */

#ifndef CDVM_X86_REGS_HH
#define CDVM_X86_REGS_HH

#include <array>
#include <cassert>
#include <string>

#include "common/types.hh"

namespace cdvm::x86
{

/** GPR indices in hardware encoding order. */
enum Reg : u8
{
    EAX = 0,
    ECX = 1,
    EDX = 2,
    EBX = 3,
    ESP = 4,
    EBP = 5,
    ESI = 6,
    EDI = 7,
    NUM_REGS = 8,
    REG_NONE = 0xff,
};

/** EFLAGS bit positions used by the subset. */
enum FlagBit : u32
{
    FLAG_CF = 1u << 0,
    FLAG_PF = 1u << 2,
    FLAG_AF = 1u << 4,
    FLAG_ZF = 1u << 6,
    FLAG_SF = 1u << 7,
    FLAG_OF = 1u << 11,
    FLAG_ALL = FLAG_CF | FLAG_PF | FLAG_AF | FLAG_ZF | FLAG_SF | FLAG_OF,
};

/** Condition codes in x86 encoding order (Jcc 0x70+cc / 0F 80+cc). */
enum class Cond : u8
{
    O = 0x0,   //!< overflow
    NO = 0x1,  //!< not overflow
    B = 0x2,   //!< below (CF)
    AE = 0x3,  //!< above or equal (!CF)
    E = 0x4,   //!< equal (ZF)
    NE = 0x5,  //!< not equal (!ZF)
    BE = 0x6,  //!< below or equal (CF|ZF)
    A = 0x7,   //!< above (!CF & !ZF)
    S = 0x8,   //!< sign (SF)
    NS = 0x9,  //!< not sign
    P = 0xa,   //!< parity (PF)
    NP = 0xb,  //!< not parity
    L = 0xc,   //!< less (SF != OF)
    GE = 0xd,  //!< greater or equal (SF == OF)
    LE = 0xe,  //!< less or equal (ZF | SF != OF)
    G = 0xf,   //!< greater (!ZF & SF == OF)
};

/**
 * Evaluate a condition code against an EFLAGS value. Inline: the
 * interpreter's Jcc/SETcc and the micro-op executor's Br/Setcc share
 * this one definition.
 */
inline bool
condTrue(Cond cc, u32 f)
{
    const bool cf = f & FLAG_CF;
    const bool pf = f & FLAG_PF;
    const bool zf = f & FLAG_ZF;
    const bool sf = f & FLAG_SF;
    const bool of = f & FLAG_OF;
    switch (cc) {
      case Cond::O: return of;
      case Cond::NO: return !of;
      case Cond::B: return cf;
      case Cond::AE: return !cf;
      case Cond::E: return zf;
      case Cond::NE: return !zf;
      case Cond::BE: return cf || zf;
      case Cond::A: return !cf && !zf;
      case Cond::S: return sf;
      case Cond::NS: return !sf;
      case Cond::P: return pf;
      case Cond::NP: return !pf;
      case Cond::L: return sf != of;
      case Cond::GE: return sf == of;
      case Cond::LE: return zf || (sf != of);
      case Cond::G: return !zf && (sf == of);
    }
    assert(false && "bad condition code");
    return false;
}

/** Register name for disassembly, by operand size in bytes (1, 2, 4). */
std::string regName(Reg r, unsigned size = 4);

/** Condition-code mnemonic suffix ("e", "ne", "l", ...). */
std::string condName(Cond cc);

} // namespace cdvm::x86

#endif // CDVM_X86_REGS_HH
