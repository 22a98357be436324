/**
 * @file
 * Flag-computation helpers shared verbatim by the interpreter and the
 * micro-op executor so that translated code matches the golden model
 * bit-for-bit.
 *
 * The helpers every ALU instruction or micro-op calls (trunc, signBit,
 * zsp, add, sub, logic) are defined inline here: there is one
 * definition, and both executors compile it into their own loops
 * instead of calling across translation units. The rarer shift,
 * multiply and divide helpers stay out of line in interp.cc.
 */

#ifndef CDVM_X86_FLAGS_HH
#define CDVM_X86_FLAGS_HH

#include "common/types.hh"
#include "x86/insn.hh"
#include "x86/regs.hh"

namespace cdvm::x86::flags
{

/** Truncate v to size bytes. */
inline u32
trunc(u32 v, unsigned size)
{
    switch (size) {
      case 1: return v & 0xff;
      case 2: return v & 0xffff;
      default: return v;
    }
}

/** Sign bit of v at size bytes. */
inline bool
signBit(u32 v, unsigned size)
{
    return v & (1u << (size * 8 - 1));
}

/** PF: true when the low byte of v has an even number of set bits. */
inline bool
parityEven(u32 v)
{
    return !__builtin_parity(v & 0xff);
}

/** ZF/SF/PF for a result (used by INC/DEC merge and shifts). */
inline u32
zsp(u32 result, unsigned size)
{
    u32 f = 0;
    u32 r = trunc(result, size);
    if (r == 0)
        f |= FLAG_ZF;
    if (signBit(r, size))
        f |= FLAG_SF;
    if (parityEven(r))
        f |= FLAG_PF;
    return f;
}

/** Flags after an addition (with optional carry-in), at size bytes. */
inline u32
add(u32 a, u32 b, u32 carry_in, unsigned size, u32 &result)
{
    a = trunc(a, size);
    b = trunc(b, size);
    u64 wide = static_cast<u64>(a) + b + carry_in;
    result = trunc(static_cast<u32>(wide), size);
    u32 f = zsp(result, size);
    if (wide >> (size * 8))
        f |= FLAG_CF;
    const bool sa = signBit(a, size), sb = signBit(b, size),
               sr = signBit(result, size);
    if (sa == sb && sr != sa)
        f |= FLAG_OF;
    if (((a & 0xf) + (b & 0xf) + carry_in) & 0x10)
        f |= FLAG_AF;
    return f;
}

/** Flags after a subtraction a - b - borrow_in, at size bytes. */
inline u32
sub(u32 a, u32 b, u32 borrow_in, unsigned size, u32 &result)
{
    a = trunc(a, size);
    b = trunc(b, size);
    u64 wide = static_cast<u64>(a) - b - borrow_in;
    result = trunc(static_cast<u32>(wide), size);
    u32 f = zsp(result, size);
    if (static_cast<u64>(a) < static_cast<u64>(b) + borrow_in)
        f |= FLAG_CF;
    const bool sa = signBit(a, size), sb = signBit(b, size),
               sr = signBit(result, size);
    if (sa != sb && sr != sa)
        f |= FLAG_OF;
    if (((a & 0xf) - (b & 0xf) - borrow_in) & 0x10)
        f |= FLAG_AF;
    return f;
}

/** Flags after a bitwise logical op whose result is given. */
inline u32
logic(u32 result, unsigned size)
{
    return zsp(result, size); // CF = OF = AF = 0
}

/** Result of a shift/rotate: value plus the complete new EFLAGS. */
struct ShiftResult
{
    u32 result;
    u32 eflags; //!< full replacement arithmetic-flag set
};

/**
 * Execute a shift or rotate (Op::Shl/Shr/Sar/Rol/Ror) with exact x86
 * flag semantics. count is already masked to 5 bits; count == 0
 * returns the inputs unchanged.
 */
ShiftResult shift(Op op, u32 a, u32 count, unsigned size, u32 old_eflags);

/** Widening multiply outcome. */
struct WideMul
{
    u32 lo;
    u32 hi;
    u32 flags; //!< arithmetic flags (CF/OF on overflow + deterministic ZSP)
};

/** EDX:EAX-style widening multiply at size bytes. */
WideMul mulWide(bool is_signed, u32 a, u32 b, unsigned size);

/** Widening divide outcome. */
struct WideDiv
{
    u32 quot;
    u32 rem;
    bool fault; //!< divide by zero or quotient overflow
};

/** EDX:EAX-style divide at size bytes; hi:lo / b. */
WideDiv divWide(bool is_signed, u32 hi, u32 lo, u32 b, unsigned size);

/** Truncating signed multiply (IMUL r, r/m) with flag computation. */
u32 imulTrunc(u32 a, u32 b, unsigned size, u32 &flags_out);

} // namespace cdvm::x86::flags

#endif // CDVM_X86_FLAGS_HH
