/**
 * @file
 * Cracking: decompose decoded x86 instructions into fusible micro-ops.
 *
 * This is the semantic core shared by all three translation paths of
 * the paper: the software BBT uses it directly, the XLTx86 backend
 * functional unit implements it in "hardware" (same rules, different
 * cost), and the dual-mode frontend decoder applies it at the pipeline
 * decode stage. One implementation keeps the three paths semantically
 * identical by construction.
 */

#ifndef CDVM_UOPS_CRACK_HH
#define CDVM_UOPS_CRACK_HH

#include "uops/uop.hh"
#include "x86/insn.hh"

namespace cdvm::uops
{

/** Result of cracking one x86 instruction. */
struct CrackResult
{
    UopVec uops;
    /**
     * True if the instruction must take the slow software path when a
     * hardware assist decodes it (XLTx86 Flag_cmplx): serializing or
     * faulting instructions, and instructions whose micro-ops exceed
     * the 16-byte Fdst register (paper Section 4.2).
     */
    bool complex = false;
};

/**
 * Crack one decoded instruction, appending its micro-ops to out.
 * Micro-ops already in out are left untouched: no rewrite (such as
 * immediate folding) reaches across the instruction boundary.
 * @return the instruction's complex flag (see CrackResult::complex).
 */
bool crack(const x86::Insn &in, UopVec &out);

/** Crack one decoded instruction into a fresh vector. */
CrackResult crack(const x86::Insn &in);

/** Crack a straight-line sequence, concatenating the micro-ops. */
CrackResult crackAll(const std::vector<x86::Insn> &insns);

} // namespace cdvm::uops

#endif // CDVM_UOPS_CRACK_HH
