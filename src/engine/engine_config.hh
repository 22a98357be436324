/**
 * @file
 * Engine configuration and statistics.
 *
 * An EngineConfig is one point of the staged-emulation design space,
 * composed from three axes: the ColdExecutor that runs untranslated
 * code (ColdKind), the HotspotDetector (DetectorKind) and the number
 * of background SBT contexts (asyncTranslators). EngineConfig::parse()
 * builds a point from a spec
 *
 *   <cold|alias>[+bbb][+async<N>]   cold: interp | x86 | soft | xlt | tmpl
 *
 * where +bbb swaps software counters for the branch behavior buffer.
 * The paper's machines are aliases and may take modifiers
 * ("vm.be+async2"):
 *
 *   vm.soft   = soft     software BBT        + software exec counters
 *   vm.fe     = x86+bbb  hardware x86 mode   + branch behavior buffer
 *   vm.be     = xlt      XLTx86-assisted BBT + software exec counters
 *   vm.dual   = xlt+bbb  XLTx86-assisted BBT + branch behavior buffer
 *   vm.interp = interp   interpretation      + software entry counters
 *
 * Warm start is a deployment setting, not a spec token
 * (warmStartLoadPath, SharedServices::imageEndpoint). Each cold tier's
 * row in coldTiers() also prices it for the timing model
 * (timing::MachineConfig::of) and the fleet (fleet::WorkWeights).
 */

#ifndef CDVM_ENGINE_ENGINE_CONFIG_HH
#define CDVM_ENGINE_ENGINE_CONFIG_HH

#include <span>
#include <string>
#include <string_view>

#include "dbt/superblock.hh"
#include "engine/params.hh"
#include "hwassist/bbb.hh"
#include "uops/fusion.hh"

namespace cdvm::engine
{

/** The cold-code execution strategies (paper Sections 3-4). */
enum class ColdKind : u8
{
    Interpret,       //!< one instruction at a time (Fig. 2)
    HardwareX86Mode, //!< dual-mode decoders execute x86 directly (VM.fe)
    SoftwareBbt,     //!< software basic-block translation (VM.soft)
    XltAssistedBbt,  //!< HAloop + XLTx86 functional unit (VM.be)
    TemplateBbt,     //!< IR-less template BBT, a software XLTx86
};

/** How cold (untranslated) code is emulated, as the timing model
 *  prices it. */
enum class ColdMode : u8
{
    Native,     //!< Ref: x86 executes directly, always
    Interpret,  //!< software interpretation
    BbtCode,    //!< execute BBT-translated code
    X86Direct,  //!< VM.fe dual-mode execution of x86 code
};

/**
 * One row of the cold-tier table: the spec token of a ColdKind and
 * everything the timing model and the fleet's cycle pricing need from
 * that tier. Every value comes from engine/params.hh.
 */
struct ColdTier
{
    ColdKind kind;
    const char *token;       //!< spec token ("soft", "xlt", ...)
    ColdMode mode;
    double bbtNativePerInsn; //!< Delta_BBT, native insns (0: no BBT)
    double bbtCyclesPerInsn; //!< Delta_BBT, cycles per x86 insn
    double coldCpiFactor;    //!< CPI multiplier of cold code
    bool frontendX86Decoders; //!< x86 decoders on in cold code (Fig. 11)
    u64 hotThreshold;        //!< what the tier's profile is compared to
    double xltBusyFraction;  //!< BBT time the XLTx86 logic is on
};

/** Every cold tier, in ColdKind order. */
std::span<const ColdTier> coldTiers();

/** The row of one cold tier. */
const ColdTier &coldTier(ColdKind kind);

/** Hotspot detection strategies. */
enum class DetectorKind : u8
{
    SoftwareCounters, //!< per-translation / per-entry exec counters
    Bbb,              //!< hardware branch behavior buffer (Section 4.1)
};

/** Why EngineConfig::parse() rejected a spec. */
enum class SpecError
{
    None,
    Empty,         //!< empty spec, or an empty '+'-separated token
    UnknownToken,  //!< a token no axis knows ("vm.bogus")
    NoCold,        //!< no cold tier or alias ("bbb+async2")
    ColdTwice,     //!< two cold tiers or aliases ("soft+tmpl")
    DetectorTwice, //!< bbb twice, or on an alias that has it
    AsyncTwice,    //!< two async tokens
    BadAsyncCount, //!< async, async0, async02, asyncX, or N > 64
};

const char *specErrorName(SpecError e);

/** The spec grammar, its cold tokens and its aliases, for help text. */
std::string specGrammar();

/** One composed staged-emulation configuration. */
struct EngineConfig
{
    /** Display name: the alias or canonical spec, or "custom". */
    std::string name = "custom";

    ColdKind cold = ColdKind::SoftwareBbt;
    DetectorKind detector = DetectorKind::SoftwareCounters;

    /** Hot threshold for BBT- or BBB-profiled code (Eq. 2: 8000). */
    u64 hotThreshold = params::HOT_THRESHOLD;
    /** Hot threshold under interpretation (Section 3.1: 25). */
    u64 interpHotThreshold = params::INTERP_HOT_THRESHOLD;
    bool enableSbt = true;
    bool enableChaining = true;

    Addr bbtCacheBase = 0xe0000000;
    u64 bbtCacheBytes = u64{4} << 20;
    Addr sbtCacheBase = 0xe8000000;
    u64 sbtCacheBytes = u64{4} << 20;

    unsigned maxBlockInsns = 64;
    /**
     * Template cold tier only: percentage of the learned rule table
     * enabled, in deterministic enumeration order. 100 = full table;
     * lower values force more per-block software fallbacks (the
     * `bench_host_mips --ablate-tmpl` coverage knob).
     */
    unsigned tmplCoveragePct = 100;
    dbt::SuperblockPolicy sbPolicy{};
    uops::FusionConfig fusion{};
    hwassist::BbbParams bbbParams{};

    // Bounds for the runtime profiling maps (0 = minimum of 1).
    std::size_t branchProfCap = 65536;
    std::size_t coldCounterCap = 65536;
    std::size_t sbtFailedCap = 16384;

    // --- host-side dispatch fast path -------------------------------
    /**
     * Use the flat open-addressing translation table, the dispatch
     * lookaside cache, and the interpreter decode cache. False
     * restores the pre-existing map-based dispatch (the
     * --legacy-lookup A/B baseline of bench_host_mips); retire
     * streams and StageEvent sequences are bit-identical either way.
     */
    bool fastDispatch = true;
    /** Flat-table capacity preset (entries; rounded to a power of
     *  two). Sized for the BBT-dominated startup transient so the
     *  table does not rehash while cold code floods in. */
    std::size_t lookupReserve = 4096;
    /** Dispatch lookaside cache entries (pow2; 0 disables). */
    std::size_t lookasideEntries = 256;
    /** Interpreter decoded-instruction cache lines (pow2; 0
     *  disables). Only execute-style cold paths consult it. */
    std::size_t decodeCacheEntries = 8192;
    /** Bucket preset for the branch-direction profile (rehash
     *  avoidance during the startup transient; capped at
     *  branchProfCap). */
    std::size_t branchProfReserve = 4096;

    // --- asynchronous SBT pipeline ----------------------------------
    /**
     * Background translator contexts for the SBT (0 = synchronous:
     * hot seeds are optimized on the emulation thread, as the paper
     * models). With N >= 1, hot seeds are formed on the dispatch
     * thread, optimized on a worker, and installed at a later
     * dispatch point while cold/BBT execution continues.
     */
    unsigned asyncTranslators = 0;
    /** Bound on queued optimization requests (back-pressure). */
    std::size_t asyncQueueCap = 64;
    /**
     * Deterministic async mode: barrier-on-install. Every request is
     * awaited and installed immediately, so the StageEvent stream is
     * identical retire-for-retire to the synchronous pipeline while
     * still crossing the worker threads (differential/TSan testing).
     */
    bool asyncDeterministic = false;

    // --- persistent warm start --------------------------------------
    /**
     * Map a translation image (dbt/image format) before the first
     * dispatched instruction: validated BBT+SBT translations are
     * installed zero-copy into the fresh code caches and the branch
     * profile and hot counts are seeded. Stale records silently fall
     * back to the cold path, and an unreadable or foreign file leaves
     * the whole VM cold. SharedServices::imageEndpoint takes
     * precedence when it yields an image. Empty: cold start.
     */
    std::string warmStartLoadPath;
    /** Where Vmm::saveWarmStart() writes the image (empty: never). */
    std::string warmStartSavePath;
    /**
     * Size budget for a saved warm-start image in bytes (0 =
     * unlimited). When the captured image would exceed it, the
     * coldest tail of the hotness ranking is evicted at save time.
     */
    u64 warmImageBudgetBytes = 0;

    // --- continuous profiling / observability -----------------------
    /**
     * Sampling period of the guest-hotness profiler, in executed x86
     * instructions (0 disables sampling). Every period-th instruction
     * the dispatch loop attributes one sample to {guest page,
     * translation, stage}; the aggregate heatmap feeds the warm-start
     * image's hotness ranking and the --profile-out export.
     */
    u64 profileSamplePeriod = 4096;
    /**
     * Capacity of the always-on flight recorder, in stage events
     * (rounded up to a power of two; 0 disables). The ring holds the
     * most recent events for on-demand, flush-storm, and abnormal-exit
     * dumps.
     */
    std::size_t flightRecorderEvents = 4096;
    /**
     * Where flush-storm and abnormal-exit flight dumps are written
     * (empty: storm dumps are skipped and crash dumps go to stderr).
     */
    std::string flightDumpPath;
    /**
     * CacheFlush events within flushStormWindowInsns executed
     * instructions that constitute a storm and trigger an automatic
     * flight dump (0 disables storm detection).
     */
    unsigned flushStormThreshold = 8;
    /** Storm detection window, in executed x86 instructions. */
    u64 flushStormWindowInsns = 1u << 20;
    /**
     * Take a SnapshotSeries row of the vmm.* counters every N executed
     * instructions (0 disables). Rows accumulate in Vmm::snapshots().
     */
    u64 snapshotEveryInsns = 0;

    // --- composition ----------------------------------------------
    /**
     * Parse a spec (see the file comment) into `out`: cold tier,
     * detector and asyncTranslators set, every other field default.
     * `out.name` is the spec when it is an alias, otherwise the
     * canonical <cold>[+bbb][+async<N>] spelling. On error `out` is
     * untouched.
     */
    static SpecError parse(std::string_view spec, EngineConfig &out);
    /** parse() for a spec known to be valid; panics otherwise. */
    static EngineConfig fromSpec(std::string_view spec);

    // The paper's machines (fromSpec of their alias).
    static EngineConfig vmSoft();
    static EngineConfig vmFe();
    static EngineConfig vmBe();
    static EngineConfig vmDual();
    static EngineConfig vmInterp();
};

/** Aggregate engine statistics. */
struct EngineStats
{
    // x86 instructions retired, by emulation mode.
    u64 insnsInterp = 0;
    u64 insnsX86Mode = 0;
    u64 insnsBbtCode = 0;
    u64 insnsSbtCode = 0;
    // Micro-ops retired in translated code.
    u64 uopsBbtCode = 0;
    u64 uopsSbtCode = 0;
    // Translation activity.
    u64 bbtTranslations = 0;
    u64 bbtInsnsTranslated = 0;
    u64 sbtTranslations = 0;
    u64 sbtInsnsTranslated = 0;
    u64 sbtFormationFailures = 0;
    // Hardware-assisted BBT activity (VM.be / VM.dual).
    u64 xltInsnsTranslated = 0;  //!< instructions through the HAloop
    u64 xltComplexFallbacks = 0; //!< JCPX exits cracked in software
    u64 xltCtiFallbacks = 0;     //!< JCTI exits cracked in software
    // Dispatch machinery.
    u64 dispatches = 0;
    u64 chainFollows = 0;
    u64 chainsInstalled = 0;
    // Events.
    u64 hotspotDetections = 0;
    u64 preciseStateRecoveries = 0;
    u64 bbtCacheFlushes = 0;
    u64 sbtCacheFlushes = 0;
    // Asynchronous SBT pipeline activity.
    u64 asyncSbtRequests = 0;     //!< traces handed to the workers
    u64 asyncSbtInstalls = 0;     //!< background results installed
    u64 asyncSbtStaleDropped = 0; //!< results dropped as stale
    u64 asyncSbtQueueRejects = 0; //!< requests dropped (queue full)
    // Persistent warm start.
    u64 warmLoaded = 0;         //!< records read from the image
    u64 warmInstalled = 0;      //!< translations installed pre-dispatch
    u64 warmInsnsInstalled = 0; //!< x86 instructions those cover
    u64 warmInvalidated = 0;   //!< records rejected (stale code)
    u64 warmProfileSeeded = 0; //!< branch-profile entries seeded
    u64 warmBodyCopies = 0;    //!< per-record body copies (0: image
                               //!< installs are zero-copy)
    u64 warmRelocations = 0;   //!< chain links re-bound at warm start
    u64 warmMappedBytes = 0;   //!< shared-image bytes installed from

    u64
    totalRetired() const
    {
        return insnsInterp + insnsX86Mode + insnsBbtCode + insnsSbtCode;
    }
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_ENGINE_CONFIG_HH
