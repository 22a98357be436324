#include "x86/decode_cache.hh"

#include "common/statreg.hh"

namespace cdvm::x86
{

DecodeCache::DecodeCache(std::size_t entries)
{
    std::size_t cap = 16;
    while (cap < entries)
        cap <<= 1;
    lines.resize(cap);
}

const Insn *
DecodeCache::fill(const Memory &mem, Addr pc, Line &l)
{
    ++nMisses;
    u8 window[MAX_INSN_LEN + 1];
    const bool cacheable = mem.fetchCode(pc, window, sizeof(window));
    const DecodeResult dr =
        decode(std::span<const u8>(window, sizeof(window)), pc);
    if (!cacheable) {
        // The window read through an unallocated page: decode, but do
        // not cache (see Memory::fetchCode).
        if (!dr.ok)
            return nullptr;
        scratch = dr.insn;
        return &scratch;
    }
    l.pc = pc;
    l.gen = mem.codeVersion() + 1;
    l.insn = dr.insn;
    l.ok = dr.ok;
    return l.ok ? &l.insn : nullptr;
}

void
DecodeCache::invalidateAll()
{
    for (Line &l : lines)
        l.gen = 0;
}

void
DecodeCache::exportStats(StatRegistry &reg,
                         const std::string &prefix) const
{
    reg.set(prefix + ".hits", static_cast<double>(nHits),
            "interpreted steps served from the decode cache");
    reg.set(prefix + ".misses", static_cast<double>(nMisses),
            "interpreted steps that ran the byte decoder");
    reg.set(prefix + ".hit_rate", hitRate(),
            "decode-cache hit fraction");
    reg.set(prefix + ".capacity", static_cast<double>(lines.size()),
            "decode-cache lines");
}

} // namespace cdvm::x86
