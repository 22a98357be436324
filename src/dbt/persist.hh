/**
 * @file
 * In-memory capture form of the warm-start translations, plus the
 * helpers the image format (dbt/image) and its loaders share.
 *
 * The handle refactor makes capture possible: a Translation is a
 * relocatable value (chains are {targetPc, TransId}, never pointers;
 * codeAddr is recomputed at install time), so a captured entry is the
 * translation's value fields plus its micro-op body encoded through
 * uops/encoding. Chains are captured as indices into the entry table.
 *
 * A Repository never goes to disk as such: ImageBuilder turns one or
 * more captures into the CDVMIMG2 image, which is the only on-disk
 * translation format.
 *
 * Staleness is content-addressed: capture records the content hash
 * (guestPageHash) of every guest code page an entry touches, the builder folds them into
 * each image record's pageKey, and the installer recomputes that key
 * against current guest memory (the VM silently falls back to cold
 * translation for records whose code changed).
 */

#ifndef CDVM_DBT_PERSIST_HH
#define CDVM_DBT_PERSIST_HH

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dbt/lookup.hh"
#include "dbt/translation.hh"
#include "x86/memory.hh"

namespace cdvm::dbt
{

/** Why an image failed to load. */
enum class LoadError
{
    None,
    Io,         //!< file missing / unreadable
    BadMagic,   //!< not an image file
    BadVersion, //!< format version mismatch
    Truncated,  //!< file ends mid-record
    Corrupt,    //!< checksum mismatch (bit flip) or malformed record
};

const char *loadErrorName(LoadError e);

/**
 * errno captured at this thread's most recent failing I/O operation on
 * an image load or save path (0 = no failure recorded).
 * LoadError::Io says *that* an OS call failed; this says *why*.
 */
int lastIoErrno();
/** Record errno detail for lastIoErrno() (load/save internals). */
void setLastIoErrno(int err);
/** loadErrorName() plus, for Io, the captured strerror detail. */
std::string loadErrorDetail(LoadError e);

/** Chain record: target PC plus the successor's record index. */
struct SavedChain
{
    Addr targetPc = 0;
    /** Index into Repository::entries; NO_RECORD when unchained or
     *  the successor was not captured. */
    u32 record = 0xFFFFFFFFu;
};

constexpr u32 NO_RECORD = 0xFFFFFFFFu;

/** One branch-profile entry (engine::BranchProfile contents). */
struct SavedBranchStat
{
    Addr pc = 0;
    u64 taken = 0;
    u64 notTaken = 0;
};

/**
 * One captured translation: every value field of dbt::Translation
 * except codeAddr (recomputed when the body is re-installed into a
 * fresh code cache) and id (assigned by the map at re-insert).
 */
struct SavedTranslation
{
    TransKind kind = TransKind::BasicBlock;
    Addr entryPc = 0;
    u32 numX86Insns = 0;
    u32 x86Bytes = 0;
    Addr fallthroughPc = 0;
    bool containsComplex = false;
    bool endsInCti = false;
    bool endsInCondBranch = false;
    /** Producing tier. */
    TransProvenance provenance = TransProvenance::SwBbt;
    Addr condBranchTarget = 0;
    Addr condBranchPc = 0;
    u64 execCount = 0;
    u64 takenCount = 0;
    u64 notTakenCount = 0;
    SavedChain chains[2];
    std::vector<Addr> x86pcs;
    std::vector<u8> body; //!< encoded micro-op sequence
    /**
     * Per-micro-op precise-state tags (Uop::x86pc). The binary uop
     * encoding round-trips every semantic field but deliberately not
     * this provenance tag, so the capture carries it as a side table
     * and materialize() re-attaches it.
     */
    std::vector<Addr> uopPcs;

    /**
     * Rebuild an installable Translation (body decoded back to uops;
     * chains NOT applied — the installer re-binds them to the fresh
     * TransIds). Returns null if the body does not decode.
     */
    std::unique_ptr<Translation> materialize() const;

    /** The 4K guest pages this translation's x86 code touches. */
    std::vector<Addr> coveredPages() const;
};

/**
 * The 4K guest pages a translated region touches (conservative: each
 * covered instruction may straddle into the next page). Shared by
 * capture and the image's content-address revalidation.
 */
std::vector<Addr> coveredPages(Addr entry_pc,
                               std::span<const Addr> x86pcs);

/** coveredPages into a caller-owned vector (its contents replaced),
 *  for loops that reuse one buffer. */
void coveredPages(Addr entry_pc, std::span<const Addr> x86pcs,
                  std::vector<Addr> &pages);

/** An in-memory capture: what ImageBuilder turns into an image. */
struct Repository
{
    /** Guest code pages referenced by any entry, with content hash. */
    std::vector<std::pair<Addr, u64>> pageHashes;
    std::vector<SavedTranslation> entries;
    std::vector<SavedBranchStat> branchProfile;
};

/** FNV-1a's offset basis: the state before any byte. */
constexpr u64 FNV1A_BASIS = 0xCBF29CE484222325ull;

/** FNV-1a over a byte span (record pageKeys and dedupe keys). Pass a
 *  previous result as h to hash a sequence of spans as one. */
u64 fnv1a(std::span<const u8> bytes, u64 h = FNV1A_BASIS);

/** wordChecksum's zero_word when every word is read. */
constexpr std::size_t NO_ZERO_WORD = ~std::size_t{0};

/**
 * Word-parallel checksum: the guest page hash and, through
 * imageChecksum, the image seal. Reads bytes as little-endian 8-byte
 * words, with word zero_word (if it is one of the first four) read as
 * zero so a blob can carry its own seal. Words go round-robin to 4
 * independent lanes (acc = rotl(acc + w*P2, 31) * P1, a bijection of
 * acc for fixed w and of w for fixed acc); the lanes, the
 * zero-extended sub-word tail and the byte length are folded through
 * a bijective fmix64 finalizer in sequence. Changing any single word
 * that is read therefore always changes the result. The lanes are
 * independent, so the loop runs at memory speed rather than at one
 * multiply latency per byte.
 */
u64 wordChecksum(std::span<const u8> bytes,
                 std::size_t zero_word = NO_ZERO_WORD);

/** wordChecksum content hash of one 4K guest code page (staleness
 *  unit); every byte of the page is read. */
u64 guestPageHash(const x86::Memory &mem, Addr page);

/**
 * Rank of a translation for hotness-ordered capture; bigger = hotter.
 */
using HotnessFn = std::function<u64(const Translation &)>;

/**
 * Capture every live translation in the map (branch profile is
 * appended by the caller — it lives in the engine layer). Chains are
 * captured as record indices; links into translations that are not
 * themselves live (e.g. overwritten ones) are dropped.
 *
 * With a hotness function, entries are ordered hottest-first (ties by
 * ascending entry PC), so a warm start installs the most valuable
 * translations before the code-cache arenas can fill and flush.
 * Without one, map iteration order is kept.
 */
Repository capture(const TranslationMap &map, const x86::Memory &mem,
                   const HotnessFn &hotness = {});

/**
 * Atomically replace path with bytes: write a temp file in the same
 * directory, flush it to stable storage (fsync where available), then
 * rename() over path. A concurrent reader of path sees either the old
 * complete file or the new complete file, never a torn mix — the
 * contract the image host relies on when compacting under live
 * mappers. On failure the temp file is removed and lastIoErrno() has
 * the detail.
 */
bool atomicWriteFile(const std::string &path, std::span<const u8> bytes);

} // namespace cdvm::dbt

#endif // CDVM_DBT_PERSIST_HH
