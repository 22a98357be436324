/**
 * @file
 * The engine's code-cache manager: translation registration,
 * flush-on-full eviction, and lookup.
 *
 * Owns the translation lookup table and both bump-allocated arenas
 * (BBT blocks and SBT superblocks, paper Fig. 1). Installing a
 * translation allocates arena space, writes the encoded micro-op body
 * into concealed guest memory, and publishes the translation in the
 * map; when an arena fills, the classic flush-everything policy
 * applies: the arena is reset, every translation of that kind is
 * dropped from the map, and all chains into the doomed set are
 * conservatively cleared.
 */

#ifndef CDVM_ENGINE_CACHE_MGR_HH
#define CDVM_ENGINE_CACHE_MGR_HH

#include <memory>
#include <vector>

#include "dbt/codecache.hh"
#include "dbt/lookup.hh"
#include "engine/engine_config.hh"
#include "engine/events.hh"
#include "x86/memory.hh"

namespace cdvm::engine
{

/** Owns the lookup table and both code-cache arenas. */
class CodeCacheManager
{
  public:
    CodeCacheManager(x86::Memory &memory, const EngineConfig &cfg,
                     EngineStats &stats, EventStream &events);

    /** Outcome of installing a translation. */
    struct InstallResult
    {
        dbt::Translation *trans = nullptr;
        /** True when installation forced an arena flush (chains and
         *  cached dispatch state are stale). */
        bool flushed = false;
    };

    /**
     * Register a new translation: allocate arena space (flushing on
     * full), encode the body into guest memory, publish in the map.
     * Emits a CacheFlush stage event when eviction happened.
     */
    InstallResult install(std::unique_ptr<dbt::Translation> t);

    dbt::Translation *lookup(Addr pc) { return map.lookup(pc); }

    dbt::Translation *
    lookup(Addr pc, dbt::TransKind kind)
    {
        return map.lookup(pc, kind);
    }

    /** Resolve a translation handle (nullptr once flushed). */
    dbt::Translation *resolve(dbt::TransId id) { return map.resolve(id); }

    const dbt::Translation *
    resolve(dbt::TransId id) const
    {
        return map.resolve(id);
    }

    dbt::TranslationMap &translations() { return map; }
    const dbt::TranslationMap &translations() const { return map; }
    const dbt::CodeCache &bbtCache() const { return bbtCc; }
    const dbt::CodeCache &sbtCache() const { return sbtCc; }

    /** Publish dbt.codecache.* and dbt.lookup.* counters. */
    void exportStats(StatRegistry &reg) const;

  private:
    x86::Memory &mem;
    EngineStats &st;
    EventStream &events;

    dbt::TranslationMap map;
    dbt::CodeCache bbtCc;
    dbt::CodeCache sbtCc;
    /** Encoded body staged for the arena write (reused per install). */
    std::vector<u8> encodeBuf;
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_CACHE_MGR_HH
