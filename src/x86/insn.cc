#include "x86/insn.hh"

#include <cassert>
#include <sstream>

namespace cdvm::x86
{

bool
Insn::isDirectCti() const
{
    return op == Op::Jcc || op == Op::Jmp || op == Op::Call;
}

bool
Insn::isComplex() const
{
    switch (op) {
      case Op::Cpuid:
      case Op::Rdtsc:
      case Op::Int3:
      case Op::DivA:
      case Op::IdivA:
        return true;
      default:
        return false;
    }
}

bool
Insn::readsFlags() const
{
    switch (op) {
      case Op::Jcc:
      case Op::Setcc:
      case Op::Adc:
      case Op::Sbb:
      case Op::Cmc:
        return true;
      default:
        return false;
    }
}

bool
Insn::writesFlags() const
{
    switch (op) {
      case Op::Add:
      case Op::Or:
      case Op::Adc:
      case Op::Sbb:
      case Op::And:
      case Op::Sub:
      case Op::Xor:
      case Op::Cmp:
      case Op::Test:
      case Op::Inc:
      case Op::Dec:
      case Op::Neg:
      case Op::Shl:
      case Op::Shr:
      case Op::Sar:
      case Op::Rol:
      case Op::Ror:
      case Op::Imul:
      case Op::MulA:
      case Op::ImulA:
      case Op::Clc:
      case Op::Stc:
      case Op::Cmc:
        return true;
      default:
        return false;
    }
}

bool
Insn::touchesMemory() const
{
    if (op == Op::Lea)
        return false;
    if (op == Op::Push || op == Op::Pop || op == Op::Call ||
        op == Op::CallInd || op == Op::Ret) {
        return true;
    }
    return dst.isMem() || src.isMem() || src2.isMem();
}

std::string
opName(Op op)
{
    switch (op) {
      case Op::Invalid: return "invalid";
      case Op::Add: return "add";
      case Op::Or: return "or";
      case Op::Adc: return "adc";
      case Op::Sbb: return "sbb";
      case Op::And: return "and";
      case Op::Sub: return "sub";
      case Op::Xor: return "xor";
      case Op::Cmp: return "cmp";
      case Op::Test: return "test";
      case Op::Inc: return "inc";
      case Op::Dec: return "dec";
      case Op::Not: return "not";
      case Op::Neg: return "neg";
      case Op::Shl: return "shl";
      case Op::Shr: return "shr";
      case Op::Sar: return "sar";
      case Op::Rol: return "rol";
      case Op::Ror: return "ror";
      case Op::Imul: return "imul";
      case Op::MulA: return "mul";
      case Op::ImulA: return "imul";
      case Op::DivA: return "div";
      case Op::IdivA: return "idiv";
      case Op::Mov: return "mov";
      case Op::Movzx: return "movzx";
      case Op::Movsx: return "movsx";
      case Op::Lea: return "lea";
      case Op::Xchg: return "xchg";
      case Op::Push: return "push";
      case Op::Pop: return "pop";
      case Op::Cdq: return "cdq";
      case Op::Jcc: return "j";
      case Op::Jmp: return "jmp";
      case Op::JmpInd: return "jmp*";
      case Op::Call: return "call";
      case Op::CallInd: return "call*";
      case Op::Ret: return "ret";
      case Op::Setcc: return "set";
      case Op::Clc: return "clc";
      case Op::Stc: return "stc";
      case Op::Cmc: return "cmc";
      case Op::Nop: return "nop";
      case Op::Hlt: return "hlt";
      case Op::Int3: return "int3";
      case Op::Cpuid: return "cpuid";
      case Op::Rdtsc: return "rdtsc";
      default: return "?";
    }
}

namespace
{

std::string
operandStr(const Operand &o, unsigned size)
{
    std::ostringstream os;
    switch (o.kind) {
      case Operand::Kind::None:
        return "";
      case Operand::Kind::Reg:
        return "%" + regName(o.reg, size);
      case Operand::Kind::Imm:
        os << "$0x" << std::hex << (o.imm & 0xffffffff);
        return os.str();
      case Operand::Kind::Mem:
        if (o.mem.disp != 0)
            os << (o.mem.disp < 0 ? "-0x" : "0x") << std::hex
               << std::abs(static_cast<i64>(o.mem.disp));
        os << "(";
        if (o.mem.hasBase())
            os << "%" << regName(o.mem.base, 4);
        if (o.mem.hasIndex())
            os << ",%" << regName(o.mem.index, 4) << ","
               << static_cast<int>(o.mem.scale);
        os << ")";
        return os.str();
    }
    return "";
}

} // namespace

std::string
Insn::toString() const
{
    std::ostringstream os;
    std::string mn = opName(op);
    if (op == Op::Jcc || op == Op::Setcc)
        mn += condName(cond);
    os << mn;
    if (op == Op::Jcc || op == Op::Jmp || op == Op::Call) {
        os << " 0x" << std::hex << target;
        return os.str();
    }
    // AT&T order: src, dst.
    std::string s1 = operandStr(src, opSize);
    std::string s2 = operandStr(src2, opSize);
    std::string d = operandStr(dst, op == Op::Movzx || op == Op::Movsx
                                        ? 4 : opSize);
    std::string parts;
    if (!s2.empty())
        parts = s2 + ", ";
    if (!s1.empty())
        parts += s1;
    if (!d.empty())
        parts += (parts.empty() ? "" : ", ") + d;
    if (!parts.empty())
        os << " " << parts;
    return os.str();
}

} // namespace cdvm::x86
