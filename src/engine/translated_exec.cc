#include "engine/translated_exec.hh"

#include "common/logging.hh"

namespace cdvm::engine
{

using dbt::TransKind;
using dbt::Translation;

x86::Exit
TranslatedExecutor::run(x86::CpuState &cpu, Translation *t,
                        InstCount &retired)
{
    // The uops run on ustate; cpu keeps the region-entry state until
    // the registers are written back below, so it is the checkpoint
    // that precise-state recovery replays from.
    ustate.loadArch(cpu);
    // Only INT3, DIV and IDIV fault, and each marks its block
    // complex, so blocks without one skip the store log.
    stores.clear();
    uops::UopExecutor exe(ustate, mem);
    exe.setStoreLog(t->containsComplex ? &stores : nullptr);
    uops::BlockResult br = exe.run(t->code(), t->fallthroughPc);

    const bool is_sbt = t->kind == TransKind::Superblock;

    if (br.exit == uops::BlockExit::Fault) {
        // Precise state mapping -- undo the region's stores, then
        // re-execute with the interpreter from the region entry until
        // the fault re-occurs (Fig. 1).
        if (!t->containsComplex)
            cdvm_panic("fault at pc 0x%llx in a block not marked complex",
                       static_cast<unsigned long long>(br.faultX86Pc));
        ++st.preciseStateRecoveries;
        stores.undo(mem);
        x86::Interpreter interp(cpu, mem);
        for (unsigned n = 0; n <= t->numX86Insns + 1; ++n) {
            x86::StepResult sr = interp.step();
            if (sr.exit != x86::Exit::None)
                return sr.exit;
            ++retired;
            if (is_sbt)
                ++st.insnsSbtCode;
            else
                ++st.insnsBbtCode;
        }
        cdvm_panic("translated fault at pc 0x%llx did not reproduce "
                   "under interpretation",
                   static_cast<unsigned long long>(br.faultX86Pc));
    }

    ustate.storeArch(cpu);

    // Count retired x86 instructions: position of the last completed
    // instruction within the region.
    u64 insns = t->numX86Insns;
    if (br.exit == uops::BlockExit::Branch && is_sbt) {
        // A side exit may leave the superblock early.
        int last = br.uopsRun > 0
                       ? static_cast<int>(br.uopsRun) - 1
                       : 0;
        const std::span<const uops::Uop> body = t->code();
        const std::span<const Addr> pcs = t->pcSpan();
        Addr last_pc = body[static_cast<std::size_t>(last)].x86pc;
        for (std::size_t i = 0; i < pcs.size(); ++i) {
            if (pcs[i] == last_pc) {
                insns = i + 1;
                break;
            }
        }
    }
    retired += insns;
    cpu.icount += insns;
    if (is_sbt) {
        st.insnsSbtCode += insns;
        st.uopsSbtCode += br.uopsRun;
    } else {
        st.insnsBbtCode += insns;
        st.uopsBbtCode += br.uopsRun;
    }

    if (br.exit == uops::BlockExit::VmExit) {
        cpu.eip = static_cast<u32>(br.nextPc);
        return x86::Exit::Halted;
    }

    cpu.eip = static_cast<u32>(br.nextPc);

    // Branch-direction profiling on the region's terminating branch.
    if (t->endsInCondBranch) {
        if (cpu.eip == t->condBranchTarget) {
            ++t->takenCount;
            prof.record(t->condBranchPc, true);
        } else if (cpu.eip == t->fallthroughPc) {
            ++t->notTakenCount;
            prof.record(t->condBranchPc, false);
        }
    }
    return x86::Exit::None;
}

} // namespace cdvm::engine
