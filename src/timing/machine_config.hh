/**
 * @file
 * Machine configurations (paper Table 2).
 *
 * A VM machine is MachineConfig::of() an engine configuration: its
 * cold tier's row (engine::coldTiers()) sets the cold mode, Delta_BBT,
 * cold CPI, decoder activity, hot threshold and XLTx86 busy share,
 * and the config adds its SBT contexts. Table 2's VM.soft, VM.be and
 * VM.fe, and Fig. 2's interpreter VM, are of(vm.soft), of(vm.be),
 * of(vm.fe) and of(vm.interp). The reference superscalar (hardware
 * x86 decoders, no dynamic optimization) is not a VM point and has
 * its own preset.
 *
 * All machines share the Table 2 pipeline resources and memory
 * hierarchy; they differ in how cold and hot x86 code is emulated and
 * in translation costs.
 */

#ifndef CDVM_TIMING_MACHINE_CONFIG_HH
#define CDVM_TIMING_MACHINE_CONFIG_HH

#include <string>
#include <vector>

#include "dbt/costs.hh"
#include "engine/engine_config.hh"
#include "memsys/hierarchy.hh"

namespace cdvm::timing
{

using engine::ColdMode;

/** Table 2 pipeline resources (shared by all machines). */
struct PipelineParams
{
    unsigned fetchBytes = 16;
    unsigned width = 3;       //!< decode/rename/issue/retire width
    unsigned issueSlots = 36;
    unsigned robEntries = 128;
    unsigned ldqSlots = 32;
    unsigned stqSlots = 20;
    unsigned prfEntries = 128;
    unsigned branchMissPenalty = 12;
};

/** A complete machine configuration for the startup simulator. */
struct MachineConfig
{
    std::string name;
    ColdMode cold = ColdMode::Native;
    bool hasSbt = false;           //!< hotspot optimization stage
    dbt::TranslationCosts costs;   //!< translation cycle costs
    /** Eq. 2 threshold. */
    u64 hotThreshold = engine::params::HOT_THRESHOLD;
    PipelineParams pipeline;
    memsys::HierarchyParams memory;

    /**
     * CPI multiplier of the emulation mode for cold code, relative to
     * the workload's reference CPI:
     *   Ref / VM.fe x86-mode: 1.0 (same pipeline behaviour);
     *   BBT code: 1/0.84 (runs at 82-85% of SBT-code IPC, paper 5.3);
     *   interpretation: 10x-100x (paper 1.1; calibrated to Fig. 2).
     */
    double coldCpiFactor = 1.0;

    /** SBT-code CPI factor; the per-app steady-state gain divides it. */
    double sbtCpiFactor = 1.0;

    /**
     * Hotspot coverage at which the published steady-state gain is
     * quoted: the per-instruction gain of optimized code is
     * steadyGain / steadyCoverage (full-run coverage approaches but
     * does not reach 100%, paper Section 5.3).
     */
    double steadyCoverage = 0.85;

    /**
     * Translated-code expansion: code-cache bytes per x86 byte
     * (measured from the real translators in calibration tests).
     */
    double codeExpansion = 1.6;

    /** VMM dispatch overhead when a chain is missing (cycles). */
    double dispatchCycles = 30.0;

    /**
     * Fraction of an L2-hit instruction-fetch miss that fetch-ahead
     * hides (sequential prefetch overlaps the 12-cycle L2 latency;
     * full-memory misses stall for real).
     */
    double l2FetchOverlap = 0.7;

    /**
     * Fraction of a translator store miss that actually stalls
     * (write buffers absorb most code-cache write misses).
     */
    double storeStallFraction = 0.3;

    /**
     * Instruction-fetch penalty multiplier for translated code.
     * Code-cache layout is execution-ordered and superblocks fetch
     * straight-line, giving "better temporal locality and more
     * efficient instruction fetching" than the original x86 image
     * (paper Section 3.1). 1.0 = no advantage.
     */
    double vmFetchLocality = 0.7;

    /**
     * x86 decode activity accounting for Fig. 11: true when the
     * machine's frontend x86 decoders are on while executing x86 or
     * cold code.
     */
    bool frontendX86Decoders = false;

    /** Share of BBT translation time the XLTx86 decode logic is on
     *  (Fig. 11 decoder activity; VM.be only). */
    double xltBusyFraction = 0.0;

    /**
     * Background SBT translation contexts. 0 = the paper's synchronous
     * model (Delta_SBT charged on the emulation thread the instant a
     * region goes hot). N >= 1 moves hotspot optimization onto N
     * concurrent contexts: the emulation thread keeps running the
     * region in its pre-hot mode while the optimization is in flight,
     * and Delta_SBT becomes context occupancy instead of critical-path
     * cycles.
     */
    unsigned asyncTranslators = 0;

    /**
     * Warm start from a translation image (dbt/image format saved by
     * a previous run). Instead of paying Delta_BBT lazily on every
     * first touch, the machine pays an up-front load cost --
     * validating the image against guest memory and binding the
     * pre-translated bodies into the code cache -- and then runs
     * every block as BBT code from the first instruction.
     */
    bool warmStart = false;

    /**
     * Per-instruction cost of a warm install. A decode-and-copy
     * install would pay ~3 cycles/insn (WARM_LOAD_DECODE_CPI); the
     * zero-copy image binds views into the mapped image, so only the
     * content-address check plus one relocation pass remain and the
     * default is ~1 cycle/insn. Measured justification:
     * bench_warmstart's host-side ratio
     * (image.load_ratio_vs_translate) shows installing the image's
     * records >= 2x cheaper per instruction than software-BBT
     * translating the same blocks, median gated in CI.
     */
    double warmLoadCyclesPerInsn =
        engine::params::WARM_LOAD_MAPPED_CPI;

    /**
     * Fraction of warm-load memory stall hidden by streaming: the
     * loader walks the image and both guest memory images strictly
     * sequentially, so hardware prefetch covers most read-miss
     * latency and write buffers drain code-cache stores off the
     * critical path. Demand misses during execution get no such
     * treatment (they are priced by the normal fetch/data paths).
     */
    double warmStreamOverlap = 0.85;

    // --- construction ---------------------------------------------
    /**
     * The machine an engine configuration runs on: its cold tier's
     * row, SBT on when the config enables it, and its async SBT
     * contexts. `warm` boots it from a translation image. The name is
     * the config's, with a "vm." prefix spelled "VM." and ".warm"
     * appended for a warm boot ("VM.soft", "tmpl+bbb.warm").
     */
    static MachineConfig of(const engine::EngineConfig &cfg, bool warm);
    /** The conventional superscalar every VM is compared against. */
    static MachineConfig refSuperscalar();

    /** All four Table 2 machines in paper order. */
    static std::vector<MachineConfig> table2();
};

} // namespace cdvm::timing

#endif // CDVM_TIMING_MACHINE_CONFIG_HH
