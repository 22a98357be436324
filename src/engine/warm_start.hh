/**
 * @file
 * Warm start: populate a fresh engine from a translation image
 * (dbt/image) before the first dispatched instruction, and capture a
 * running engine's translations for the next image.
 *
 * Installing validates every record against current guest memory
 * (its content address), installs the survivors zero-copy through
 * the normal CodeCacheManager path (so codeAddr is recomputed and the
 * arenas are charged), re-binds the saved chains to the freshly
 * assigned TransIds in one relocation pass, and seeds the
 * branch-direction profile plus per-translation hot counts. Anything
 * stale is skipped: the VM silently falls back to the cold path for
 * exactly those regions.
 */

#ifndef CDVM_ENGINE_WARM_START_HH
#define CDVM_ENGINE_WARM_START_HH

#include <memory>
#include <string>

#include "dbt/image.hh"
#include "dbt/persist.hh"
#include "engine/cache_mgr.hh"
#include "engine/events.hh"
#include "engine/profile.hh"

namespace cdvm::engine
{

/** Outcome of a warm-start load. */
struct WarmStartReport
{
    /** The image parsed and verified (individual records may still
     *  have been invalidated). */
    bool ok = false;
    dbt::LoadError error = dbt::LoadError::None;
    u64 loaded = 0;         //!< records read from the image
    u64 installed = 0;      //!< translations installed pre-dispatch
    u64 installedInsns = 0; //!< x86 instructions those cover (the
                            //!< warm-fill work a cycle model prices)
    u64 invalidated = 0;    //!< records rejected (stale guest code)
    u64 profileSeeded = 0;  //!< branch-profile entries seeded
    /** Per-record body copies performed. Image installs borrow views,
     *  so this is 0 by construction; the stat stays as the zero-copy
     *  acceptance check. */
    u64 bodyCopies = 0;
    /** Chain links re-bound (the image path does these in a single
     *  flat relocation pass). */
    u64 relocations = 0;
    /** Bytes of the shared image this context installed from. */
    u64 mappedBytes = 0;
    /** The image warmStartLoad parsed, when it loaded one: the caller
     *  must keep it alive as long as the engine runs, because mapped
     *  translations are views into it. */
    std::shared_ptr<const dbt::TransImage> image;
};

/**
 * Load an image file and install it (see warmStartInstall) into ccm,
 * seeding prof. Never throws; a missing, corrupt or foreign file, or
 * stale records, just leave the engine (partially) cold. With an
 * event stream, each install is emitted as a WarmInstall StageEvent
 * (insns = translated x86 instructions), so attached profiling sinks
 * see the warm fill as work.
 */
WarmStartReport warmStartLoad(const std::string &path,
                              const x86::Memory &mem,
                              CodeCacheManager &ccm,
                              BranchProfile &prof,
                              EventStream *events = nullptr);

/**
 * Zero-copy install from a verified translation image: every accepted
 * record's Translation borrows its body and pc table straight from
 * the image (no decode, no copy — bodyCopies stays 0) and the saved
 * chains are re-bound in one pass over the flat relocation table.
 * Validation is per record against *this* context's guest memory: the
 * record's content address (pageKey) is recomputed from the current
 * page hashes and any mismatch silently falls back cold. The image
 * must outlive the engine (the Vmm holds the generation it acquired).
 */
WarmStartReport warmStartInstall(const dbt::TransImage &img,
                                 const x86::Memory &mem,
                                 CodeCacheManager &ccm,
                                 BranchProfile &prof,
                                 EventStream *events = nullptr);

/**
 * Capture the live translations and branch profile into an in-memory
 * repository. With a hotness function, entries are ordered
 * hottest-first (see dbt::capture) so a warm start installs the most
 * valuable translations before the arenas can fill. ImageBuilder::add
 * turns one or more captures into an image.
 */
dbt::Repository warmStartCapture(const dbt::TranslationMap &map,
                                 const x86::Memory &mem,
                                 const BranchProfile &prof,
                                 const dbt::HotnessFn &hotness = {});

} // namespace cdvm::engine

#endif // CDVM_ENGINE_WARM_START_HH
