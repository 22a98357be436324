/**
 * @file
 * Decoded-instruction cache for the interpreter cold path.
 *
 * Interpretation is the paper's startup worst case, and in this host
 * reproduction each interpreted step used to re-fetch and re-decode
 * the raw variable-length x86 bytes. This cache memoizes the decoder:
 * a direct-mapped pc -> Insn array (power-of-two capacity,
 * fibonacci-hashed index) validated by a generation tag. Lines also
 * remember bytes that do not decode, so a miss is the only decode.
 *
 * Coherence: fills go through Memory::fetchCode, which marks the
 * touched pages as code pages; any subsequent guest write to a code
 * page (self-modifying code, or a program image reload between runs)
 * bumps Memory::codeVersion, which invalidates every cached decode at
 * once. Writes to pure data pages (stack/heap stores, the common
 * case) leave the cache intact. This is strictly stronger than the
 * translation caches' contract, which never observes guest code
 * writes at all.
 */

#ifndef CDVM_X86_DECODE_CACHE_HH
#define CDVM_X86_DECODE_CACHE_HH

#include <string>
#include <vector>

#include "x86/decoder.hh"
#include "x86/memory.hh"

namespace cdvm
{
class StatRegistry;
}

namespace cdvm::x86
{

/** Direct-mapped pc -> decoded-instruction cache. */
class DecodeCache
{
  public:
    /** entries is rounded up to a power of two (minimum 16). */
    explicit DecodeCache(std::size_t entries = 8192);

    /**
     * The decoded instruction at pc, or nullptr when the bytes there
     * do not decode. Served from the cache when the line is valid for
     * Memory's current code version; the hit path is inline so the
     * interpreter's step runs straight from the cache line. The
     * pointer stays valid until the next fetch call.
     */
    const Insn *
    fetch(const Memory &mem, Addr pc)
    {
        Line &l = lines[mix(pc) >> 32 & (lines.size() - 1)];
        // gen is the memory's code version at fill time, offset by one
        // so that 0 always means "empty line".
        if (l.pc == pc && l.gen == mem.codeVersion() + 1) [[likely]] {
            ++nHits;
            return l.ok ? &l.insn : nullptr;
        }
        return fill(mem, pc, l);
    }

    /** Drop every cached decode (e.g., on program reload). */
    void invalidateAll();

    std::size_t capacity() const { return lines.size(); }
    u64 hits() const { return nHits; }
    u64 misses() const { return nMisses; }
    double
    hitRate() const
    {
        const u64 total = nHits + nMisses;
        return total ? static_cast<double>(nHits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Publish hit/miss/occupancy counters under prefix. */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    /** 128 bytes: the tags, the Insn and whether it decoded. */
    struct Line
    {
        Addr pc = 0;
        u64 gen = 0; //!< Memory::codeVersion()+1 at fill; 0: empty
        Insn insn;   //!< valid iff ok
        bool ok = false;
    };

    /** Same multiplicative scramble the dispatch structures use. */
    static u64 mix(u64 pc) { return pc * 0x9E3779B97F4A7C15ull; }

    /** Miss: decode pc into l, or into scratch if uncacheable. */
    const Insn *fill(const Memory &mem, Addr pc, Line &l);

    std::vector<Line> lines; //!< pow2 capacity
    Insn scratch;            //!< result slot for uncacheable fetches
    u64 nHits = 0;
    u64 nMisses = 0;
};

} // namespace cdvm::x86

#endif // CDVM_X86_DECODE_CACHE_HH
