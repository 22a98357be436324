#include "engine/cold_exec.hh"

#include "common/statreg.hh"
#include "x86/interp.hh"

namespace cdvm::engine
{

x86::Exit
DirectColdExecutor::execute(x86::CpuState &cpu, InstCount budget,
                            InstCount &retired)
{
    // Execute one dynamic basic block's worth of instructions
    // directly. Functionally identical across strategies; profiled
    // and accounted differently by the block hook, which is charged
    // once per block.
    u64 block_insns = 0;
    x86::Exit exit = x86::Exit::None;
    x86::Interpreter interp(cpu, mem, dcache.get());
    while (block_insns < budget) {
        const x86::StepResult sr = interp.step();
        if (sr.exit != x86::Exit::None) {
            exit = sr.exit;
            break;
        }
        ++block_insns;
        if (sr.condBranch)
            prof.record(sr.pc, sr.taken);
        if (sr.cti)
            break; // end of dynamic basic block
    }
    retired += block_insns;
    onBlockDone(block_insns);
    return exit;
}

void
DirectColdExecutor::exportStats(StatRegistry &reg) const
{
    if (dcache)
        dcache->exportStats(reg, "x86.decode_cache");
}

void
X86ModeColdExecutor::exportStats(StatRegistry &reg) const
{
    DirectColdExecutor::exportStats(reg);
    dual.exportStats(reg, "hwassist.dualmode");
}

void
BbtColdExecutor::exportStats(StatRegistry &reg) const
{
    backend->exportStats(reg, "dbt.bbt");
}

} // namespace cdvm::engine
