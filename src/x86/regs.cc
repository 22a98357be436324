#include "x86/regs.hh"

namespace cdvm::x86
{

std::string
regName(Reg r, unsigned size)
{
    static const char *r32[] = {"eax", "ecx", "edx", "ebx",
                                "esp", "ebp", "esi", "edi"};
    static const char *r16[] = {"ax", "cx", "dx", "bx",
                                "sp", "bp", "si", "di"};
    static const char *r8[] = {"al", "cl", "dl", "bl",
                               "ah", "ch", "dh", "bh"};
    if (r >= NUM_REGS)
        return "r?";
    switch (size) {
      case 1: return r8[r];
      case 2: return r16[r];
      default: return r32[r];
    }
}

std::string
condName(Cond cc)
{
    static const char *names[] = {"o", "no", "b", "ae", "e", "ne",
                                  "be", "a", "s", "ns", "p", "np",
                                  "l", "ge", "le", "g"};
    return names[static_cast<unsigned>(cc) & 0xf];
}

} // namespace cdvm::x86
