/**
 * @file
 * BBT -- the light-weight basic block translator.
 *
 * When cold code is first executed, the BBT decodes one basic block
 * (up to and including its terminating control transfer), cracks it
 * into micro-ops, and produces a translation for the basic block code
 * cache. No optimization is applied (paper Section 2); profiling
 * instrumentation is accounted separately by the VMM.
 */

#ifndef CDVM_DBT_BBT_HH
#define CDVM_DBT_BBT_HH

#include <memory>
#include <vector>

#include "dbt/translation.hh"
#include "x86/decoder.hh"
#include "x86/memory.hh"

namespace cdvm
{
class StatRegistry;
}

namespace cdvm::dbt
{

/**
 * The instruction bytes of one block as a translator forms it. One
 * fetchWindow of WINDOW_INSNS decode spans serves many decodes, since
 * fetchWindow's cost is the page walk, not the copy. The window is
 * refilled from the cursor whenever fewer than a span
 * (MAX_INSN_LEN + 1 bytes) remain, so every decode sees exactly the
 * bytes a per-instruction fetch would have seen: holes read as zero.
 */
class BlockWindow
{
  public:
    static constexpr std::size_t SPAN = x86::MAX_INSN_LEN + 1;
    static constexpr std::size_t WINDOW_INSNS = 12;

    BlockWindow(const x86::Memory &memory, Addr entry_pc)
        : mem(memory), base(entry_pc)
    {
        mem.fetchWindow(base, bytes, sizeof(bytes));
    }

    /** Decode the instruction at pc. Successive pcs must not go
     *  below the entry pc or the previous pc. */
    x86::DecodeResult
    decode(Addr pc)
    {
        std::size_t off = static_cast<std::size_t>(pc - base);
        if (off + SPAN > sizeof(bytes)) {
            base = pc;
            mem.fetchWindow(base, bytes, sizeof(bytes));
            off = 0;
        }
        return x86::decode(std::span<const u8>(bytes + off, SPAN), pc);
    }

  private:
    const x86::Memory &mem;
    Addr base;
    u8 bytes[WINDOW_INSNS * SPAN];
};

/** Basic block translator. */
class BasicBlockTranslator
{
  public:
    /**
     * @param memory    Guest memory holding architected code.
     * @param max_insns Basic blocks are cut after this many x86
     *                  instructions even without a CTI.
     */
    explicit BasicBlockTranslator(x86::Memory &memory,
                                  unsigned max_insns = 64)
        : mem(memory), maxInsns(max_insns)
    {
    }

    /**
     * Translate the basic block starting at pc.
     * @return the translation, or nullptr if pc lies on an unmapped
     *         page or the first instruction does not decode.
     */
    std::unique_ptr<Translation> translate(Addr pc);

    u64 blocksTranslated() const { return nBlocks; }
    u64 insnsTranslated() const { return nInsns; }

    /** Publish translation counters under prefix. */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    x86::Memory &mem;
    unsigned maxInsns;
    /** Reusable build buffers: a block is formed here and copied
     *  into its Translation, so the persistent vectors are
     *  exact-sized and forming allocates nothing per instruction. */
    uops::UopVec scratchUops;
    std::vector<Addr> scratchPcs;
    u64 nBlocks = 0;
    u64 nInsns = 0;
};

} // namespace cdvm::dbt

#endif // CDVM_DBT_BBT_HH
