/**
 * @file
 * Cold-code executors: the ColdExecutor strategy implementations.
 *
 *  - InterpretColdExecutor: one instruction at a time through the
 *    interpreter (the paper's startup-worst-case, Fig. 2);
 *  - X86ModeColdExecutor: direct execution through the dual-mode
 *    decoders (VM.fe) -- functionally the interpreter, but the decode
 *    traffic is accounted to the hardware first-level decoder;
 *  - BbtColdExecutor: translate-style; wraps a TranslationBackend
 *    (software BBT or the XLTx86-assisted HAloop) and lets the
 *    dispatch core install + run the produced translation.
 */

#ifndef CDVM_ENGINE_COLD_EXEC_HH
#define CDVM_ENGINE_COLD_EXEC_HH

#include <memory>

#include "engine/engine_config.hh"
#include "engine/profile.hh"
#include "engine/strategy.hh"
#include "hwassist/dualmode.hh"
#include "x86/decode_cache.hh"
#include "x86/memory.hh"

namespace cdvm::engine
{

/** Shared body of the execute-style cold executors. */
class DirectColdExecutor : public ColdExecutor
{
  public:
    /**
     * decode_cache_lines sizes the decoded-instruction cache shared
     * by every block this executor runs (0 disables: each step
     * re-fetches and re-decodes raw bytes, the pre-fast-path cost).
     */
    DirectColdExecutor(x86::Memory &memory, EngineStats &stats,
                       BranchProfile &branch_prof,
                       std::size_t decode_cache_lines = 0)
        : mem(memory),
          st(stats),
          prof(branch_prof),
          dcache(decode_cache_lines
                     ? std::make_unique<x86::DecodeCache>(
                           decode_cache_lines)
                     : nullptr)
    {
    }

    bool translatesColdCode() const override { return false; }

    x86::Exit execute(x86::CpuState &cpu, InstCount budget,
                      InstCount &retired) override;

    void exportStats(StatRegistry &reg) const override;

    /** The decoded-instruction cache (null when disabled). */
    const x86::DecodeCache *
    decodeCache() const override
    {
        return dcache.get();
    }

  protected:
    /**
     * Block-completion hook: retire accounting for the n instructions
     * the block retired (the exiting instruction of a trap or halt is
     * not among them).
     */
    virtual void onBlockDone(u64 n) = 0;

    x86::Memory &mem;
    EngineStats &st;
    BranchProfile &prof;
    std::unique_ptr<x86::DecodeCache> dcache;
};

/** Interpretation of cold code (vm.interp). */
class InterpretColdExecutor final : public DirectColdExecutor
{
  public:
    using DirectColdExecutor::DirectColdExecutor;

    TracePhase phase() const override { return TracePhase::Interp; }

  protected:
    void onBlockDone(u64 n) override { st.insnsInterp += n; }
};

/** Hardware x86-mode execution of cold code (vm.fe). */
class X86ModeColdExecutor final : public DirectColdExecutor
{
  public:
    X86ModeColdExecutor(x86::Memory &memory, EngineStats &stats,
                        BranchProfile &branch_prof,
                        std::size_t decode_cache_lines = 0)
        : DirectColdExecutor(memory, stats, branch_prof,
                             decode_cache_lines),
          dual(memory)
    {
        // The machine boots fetching architected code: the first-level
        // decoder starts (and stays) powered until translated native
        // code exists to run.
        dual.setMode(hwassist::DecodeMode::X86);
    }

    TracePhase phase() const override { return TracePhase::X86Mode; }

    x86::Exit
    execute(x86::CpuState &cpu, InstCount budget,
            InstCount &retired) override
    {
        dual.setMode(hwassist::DecodeMode::X86);
        x86::Exit e = DirectColdExecutor::execute(cpu, budget, retired);
        dual.setMode(hwassist::DecodeMode::Native);
        return e;
    }

    void exportStats(StatRegistry &reg) const override;

    const hwassist::DualModeDecoder &decoder() const { return dual; }

  protected:
    void
    onBlockDone(u64 n) override
    {
        // The retired instructions were first-level decoded by the
        // hardware; account the decode traffic and the powered-on
        // x86-mode cycles (one work unit per instruction).
        st.insnsX86Mode += n;
        dual.noteDecoded(n);
        dual.tick(n);
    }

  private:
    hwassist::DualModeDecoder dual;
};

/** Translate-style cold execution: BBT via a pluggable backend. */
class BbtColdExecutor final : public ColdExecutor
{
  public:
    explicit BbtColdExecutor(std::unique_ptr<TranslationBackend> be)
        : backend(std::move(be))
    {
    }

    bool translatesColdCode() const override { return true; }

    std::unique_ptr<dbt::Translation>
    translate(Addr pc) override
    {
        return backend->translate(pc);
    }

    void exportStats(StatRegistry &reg) const override;

    TranslationBackend &bbtBackend() { return *backend; }
    const TranslationBackend &bbtBackend() const { return *backend; }

  private:
    std::unique_ptr<TranslationBackend> backend;
};

} // namespace cdvm::engine

#endif // CDVM_ENGINE_COLD_EXEC_HH
