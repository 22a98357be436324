/**
 * @file
 * Translation cost models.
 *
 * The paper's measured constants (Section 3.2 and 5.3):
 *   Delta_BBT = 105 native instructions per x86 instruction,
 *               83 cycles/instruction for the software-only BBT;
 *   VM.be     = 20 cycles per x86 instruction for the XLTx86-assisted
 *               HAloop (Fig. 6a);
 *   Delta_SBT = 1152 x86 instructions = 1674 native instructions per
 *               translated hotspot instruction.
 *
 * The numeric constants themselves live in engine/params.hh (with
 * their paper citations). TranslationCosts defaults to the
 * software-only translators; the Delta_BBT of every other cold tier
 * comes from that tier's row in the engine's cold-tier table
 * (engine::coldTier), which timing::MachineConfig::of copies in. The
 * HAloop micro-benchmark cross-checks the 20-cycle VM.be figure
 * against an actual micro-op-level execution of the loop.
 */

#ifndef CDVM_DBT_COSTS_HH
#define CDVM_DBT_COSTS_HH

#include "engine/params.hh"

namespace cdvm::dbt
{

/** Per-x86-instruction translation costs for one VM configuration;
 *  the defaults are the software-only translators (VM.soft). */
struct TranslationCosts
{
    /** BBT: native instructions executed per x86 instruction. */
    double bbtNativePerInsn = engine::params::BBT_NATIVE_PER_INSN;
    /** BBT: cycles per x86 instruction (incl. chaining + lookup). */
    double bbtCyclesPerInsn = engine::params::BBT_CYCLES_PER_INSN;
    /** SBT: native instructions per translated x86 instruction. */
    double sbtNativePerInsn = engine::params::SBT_NATIVE_PER_INSN;
    /** SBT: cycles per translated x86 instruction. */
    double sbtCyclesPerInsn = engine::params::SBT_CYCLES_PER_INSN;
};

} // namespace cdvm::dbt

#endif // CDVM_DBT_COSTS_HH
