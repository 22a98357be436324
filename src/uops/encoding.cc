#include "uops/encoding.hh"

#include <cassert>

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace cdvm::uops
{

namespace
{

// 16-bit compact opcode space.
enum Op16 : u8
{
    C_NOP = 0,
    C_ADD = 1,
    C_SUB = 2,
    C_AND = 3,
    C_OR = 4,
    C_XOR = 5,
    C_CMP = 6,
    C_TST = 7,
    C_MOV = 8,
};

/** Map a micro-opcode to its compact code, or -1 if not mappable. */
int
compactCode(UOp op)
{
    switch (op) {
      case UOp::Nop: return C_NOP;
      case UOp::Add: return C_ADD;
      case UOp::Sub: return C_SUB;
      case UOp::And: return C_AND;
      case UOp::Or: return C_OR;
      case UOp::Xor: return C_XOR;
      case UOp::Cmp: return C_CMP;
      case UOp::Tst: return C_TST;
      case UOp::Mov: return C_MOV;
      default: return -1;
    }
}

UOp
fromCompact(u8 code)
{
    switch (code) {
      case C_NOP: return UOp::Nop;
      case C_ADD: return UOp::Add;
      case C_SUB: return UOp::Sub;
      case C_AND: return UOp::And;
      case C_OR: return UOp::Or;
      case C_XOR: return UOp::Xor;
      case C_CMP: return UOp::Cmp;
      case C_TST: return UOp::Tst;
      case C_MOV: return UOp::Mov;
      default: return UOp::NUM_UOPS;
    }
}

/** True if the micro-op is eligible for the 16-bit compact format. */
bool
compact16(const Uop &u)
{
    if (compactCode(u.op) < 0 || u.hasImm || u.size != 4)
        return false;
    switch (u.op) {
      case UOp::Add:
      case UOp::Sub:
      case UOp::And:
      case UOp::Or:
      case UOp::Xor:
        return u.writeFlags && u.dst == u.src1 && u.dst < 16 &&
               u.src2 < 16;
      case UOp::Cmp:
      case UOp::Tst:
        return u.writeFlags && u.src1 < 16 && u.src2 < 16 &&
               u.dst == UREG_NONE;
      case UOp::Mov:
        return !u.writeFlags && u.dst < 16 && u.src1 < 16;
      case UOp::Nop:
        return true;
      default:
        return false;
    }
}

/** Ops whose [26:25] field encodes a memory scale, not a size. */
bool
isMemClass(UOp op)
{
    switch (op) {
      case UOp::Ld:
      case UOp::Ldz8:
      case UOp::Ldz16:
      case UOp::Lds8:
      case UOp::Lds16:
      case UOp::St:
      case UOp::St8:
      case UOp::St16:
      case UOp::Lea:
      case UOp::LdF:
      case UOp::StF:
        return true;
      default:
        return false;
    }
}

u8
sizeCode(u8 size)
{
    switch (size) {
      case 1: return 0;
      case 2: return 1;
      default: return 2;
    }
}

u8
sizeFromCode(u8 code)
{
    switch (code) {
      case 0: return 1;
      case 1: return 2;
      default: return 4;
    }
}

u8
scaleCode(u8 scale)
{
    switch (scale) {
      case 1: return 0;
      case 2: return 1;
      case 4: return 2;
      default: return 3;
    }
}

u8
scaleFromCode(u8 code)
{
    return static_cast<u8>(1u << code);
}

/** Extension-word need: 0 = none, 2 = 16-bit ext, 4 = 32-bit ext. */
unsigned
extBytes(const Uop &u)
{
    if (u.op == UOp::Br || u.op == UOp::Jmp)
        return 4; // full 32-bit x86 target
    if (!u.hasImm)
        return 0;
    // The two-specifier-plus-immediate 32-bit format carries a 6-bit
    // inline immediate in the src2 field plus bit 31; it is usable only
    // when src2 is free (i.e. not an indexed memory access).
    const bool indexed = u.src2 != UREG_NONE;
    if (!indexed && fitsSigned(u.imm, 6))
        return 0;
    if (indexed && u.imm == 0)
        return 0; // three-specifier format, no immediate needed
    return fitsSigned(u.imm, 16) ? 2 : 4;
}

} // namespace

unsigned
encodeOne(const Uop &u, u8 *out)
{
    if (compact16(u)) {
        // [0]=0 | [1]=fuse | [6:2]=op | [10:7]=a | [14:11]=b | [15]=0
        u8 a, b;
        if (u.op == UOp::Mov) {
            a = u.dst;
            b = u.src1;
        } else if (u.op == UOp::Cmp || u.op == UOp::Tst) {
            a = u.src1;
            b = u.src2;
        } else if (u.op == UOp::Nop) {
            a = b = 0;
        } else {
            a = u.dst;
            b = u.src2;
        }
        u16 w = 0;
        w = static_cast<u16>(
            insertBits(w, 1, 1, u.fusedHead ? 1 : 0));
        w = static_cast<u16>(
            insertBits(w, 6, 2, static_cast<u64>(compactCode(u.op))));
        w = static_cast<u16>(insertBits(w, 10, 7, a));
        w = static_cast<u16>(insertBits(w, 14, 11, b));
        out[0] = static_cast<u8>(w);
        out[1] = static_cast<u8>(w >> 8);
        return 2;
    }

    const unsigned ext = extBytes(u);
    // Base 32-bit word.
    // [0]=1 [1]=ext32 [2]=fuse [9:3]=op [14:10]=dst [19:15]=src1
    // [24:20]=src2 [26:25]=size/scale [27]=wf [28]=hasImm [30:29]=extsz
    // [31]=cond-high-bits-overflow (see below)
    //
    // cond overlays: Br -> dst field; Setcc -> src1 field.
    u32 w = 1;
    w = static_cast<u32>(insertBits(w, 2, 2, u.fusedHead ? 1 : 0));
    w = static_cast<u32>(
        insertBits(w, 9, 3, static_cast<u64>(u.op)));
    u8 dst_f = u.dst, src1_f = u.src1;
    if (u.op == UOp::Br)
        dst_f = u.cond;
    if (u.op == UOp::Setcc)
        src1_f = u.cond;
    w = static_cast<u32>(insertBits(w, 14, 10, dst_f));
    w = static_cast<u32>(insertBits(w, 19, 15, src1_f));
    w = static_cast<u32>(insertBits(w, 24, 20, u.src2));
    w = static_cast<u32>(
        insertBits(w, 26, 25,
                   isMemClass(u.op) ? scaleCode(u.scale)
                                    : sizeCode(u.size)));
    w = static_cast<u32>(insertBits(w, 27, 27, u.writeFlags ? 1 : 0));
    // The three-specifier memory form (indexed, zero displacement)
    // keeps src2 as the index register and omits the immediate bit;
    // the decoder restores hasImm for all memory-class ops.
    const bool imm_bit =
        u.hasImm && !(isMemClass(u.op) && u.src2 != UREG_NONE &&
                      u.imm == 0 && ext == 0);
    w = static_cast<u32>(insertBits(w, 28, 28, imm_bit ? 1 : 0));
    // [30:29]: extension kind: 0 none, 1 imm16, 2 imm32/target.
    u8 ext_kind = ext == 0 ? 0 : (ext == 2 ? 1 : 2);
    w = static_cast<u32>(insertBits(w, 30, 29, ext_kind));

    if (imm_bit && ext == 0) {
        // Inline 6-bit signed immediate: imm[4:0] in the (free) src2
        // field [24:20], imm[5] in bit [31].
        w = static_cast<u32>(
            insertBits(w, 24, 20, static_cast<u64>(u.imm) & 0x1f));
        w = static_cast<u32>(
            insertBits(w, 31, 31, (static_cast<u64>(u.imm) >> 5) & 1));
    }
    out[0] = static_cast<u8>(w);
    out[1] = static_cast<u8>(w >> 8);
    out[2] = static_cast<u8>(w >> 16);
    out[3] = static_cast<u8>(w >> 24);
    unsigned n = 4;
    if (ext == 2) {
        i16 v = static_cast<i16>(u.imm);
        out[4] = static_cast<u8>(v);
        out[5] = static_cast<u8>(v >> 8);
        n = 6;
    } else if (ext == 4) {
        u32 v = (u.op == UOp::Br || u.op == UOp::Jmp)
                    ? static_cast<u32>(u.target)
                    : static_cast<u32>(u.imm);
        out[4] = static_cast<u8>(v);
        out[5] = static_cast<u8>(v >> 8);
        out[6] = static_cast<u8>(v >> 16);
        out[7] = static_cast<u8>(v >> 24);
        n = 8;
    }
    return n;
}

unsigned
decodeOne(std::span<const u8> win, Uop &u)
{
    u = Uop{};
    if (win.size() < 2)
        return 0;
    u16 h0 = static_cast<u16>(win[0] | (win[1] << 8));
    if (!(h0 & 1)) {
        // 16-bit compact format.
        u.fusedHead = bits(h0, 1);
        u8 code = static_cast<u8>(bits(h0, 6, 2));
        u8 a = static_cast<u8>(bits(h0, 10, 7));
        u8 b = static_cast<u8>(bits(h0, 14, 11));
        UOp op = fromCompact(code);
        if (op == UOp::NUM_UOPS)
            return 0;
        u.op = op;
        u.size = 4;
        switch (op) {
          case UOp::Mov:
            u.dst = a;
            u.src1 = b;
            break;
          case UOp::Cmp:
          case UOp::Tst:
            u.src1 = a;
            u.src2 = b;
            u.writeFlags = true;
            break;
          case UOp::Nop:
            break;
          default:
            u.dst = a;
            u.src1 = a;
            u.src2 = b;
            u.writeFlags = true;
            break;
        }
        return 2;
    }

    if (win.size() < 4)
        return 0;
    u32 w = static_cast<u32>(win[0]) | (static_cast<u32>(win[1]) << 8) |
            (static_cast<u32>(win[2]) << 16) |
            (static_cast<u32>(win[3]) << 24);
    u.fusedHead = bits(w, 2);
    unsigned opc = static_cast<unsigned>(bits(w, 9, 3));
    if (opc >= static_cast<unsigned>(UOp::NUM_UOPS))
        return 0;
    u.op = static_cast<UOp>(opc);
    u8 dst_f = static_cast<u8>(bits(w, 14, 10));
    u8 src1_f = static_cast<u8>(bits(w, 19, 15));
    u8 src2_f = static_cast<u8>(bits(w, 24, 20));
    u.writeFlags = bits(w, 27);
    u.hasImm = bits(w, 28);
    u8 szf = static_cast<u8>(bits(w, 26, 25));
    u8 ext_kind = static_cast<u8>(bits(w, 30, 29));

    if (isMemClass(u.op)) {
        u.scale = scaleFromCode(szf);
        u.size = 4;
    } else {
        u.size = sizeFromCode(szf);
    }

    u.dst = dst_f;
    u.src1 = src1_f;
    u.src2 = src2_f;
    if (u.op == UOp::Br) {
        u.cond = dst_f;
        u.dst = UREG_NONE;
    }
    if (u.op == UOp::Setcc) {
        u.cond = src1_f;
        u.src1 = UREG_NONE;
    }

    unsigned n = 4;
    if (ext_kind == 0) {
        if (u.hasImm) {
            // Inline 6-bit immediate: [24:20] low bits, [31] bit 5.
            u64 raw = bits(w, 24, 20) | (bits(w, 31) << 5);
            u.imm = static_cast<i32>(sext(raw, 6));
            u.src2 = UREG_NONE;
        } else if (isMemClass(u.op)) {
            // Three-specifier memory form: zero displacement.
            u.hasImm = true;
            u.imm = 0;
        }
    } else if (ext_kind == 1) {
        if (win.size() < 6)
            return 0;
        i16 v = static_cast<i16>(win[4] | (win[5] << 8));
        u.imm = v;
        n = 6;
    } else {
        if (win.size() < 8)
            return 0;
        u32 v = static_cast<u32>(win[4]) |
                (static_cast<u32>(win[5]) << 8) |
                (static_cast<u32>(win[6]) << 16) |
                (static_cast<u32>(win[7]) << 24);
        if (u.op == UOp::Br || u.op == UOp::Jmp)
            u.target = v;
        else
            u.imm = static_cast<i32>(v);
        n = 8;
    }
    return n;
}

unsigned
Uop::encodedSize() const
{
    u8 scratch[MAX_UOP_BYTES];
    return encodeOne(*this, scratch);
}

std::vector<u8>
encode(std::span<const Uop> v)
{
    std::vector<u8> out;
    encode(v, out);
    return out;
}

void
encode(std::span<const Uop> v, std::vector<u8> &out)
{
    out.resize(v.size() * MAX_UOP_BYTES);
    std::size_t n = 0;
    for (const Uop &u : v)
        n += encodeOne(u, out.data() + n);
    out.resize(n);
}

bool
decodeAll(std::span<const u8> bytes, UopVec &out)
{
    std::size_t pos = 0;
    while (pos < bytes.size()) {
        Uop u;
        unsigned n = decodeOne(bytes.subspan(pos), u);
        if (n == 0)
            return false;
        out.push_back(u);
        pos += n;
    }
    return true;
}

} // namespace cdvm::uops
