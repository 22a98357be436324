#include "dbt/sbt.hh"

#include <cassert>

#include "common/logging.hh"
#include "common/statreg.hh"
#include "uops/crack.hh"
#include "uops/encoding.hh"

namespace cdvm::dbt
{

x86::Cond
invertCond(x86::Cond cc)
{
    // x86 encodes inversion in the low bit of the condition code.
    return static_cast<x86::Cond>(static_cast<u8>(cc) ^ 1);
}

std::unique_ptr<Translation>
SuperblockTranslator::translate(const SuperblockTrace &trace)
{
    auto t = std::make_unique<Translation>();
    t->kind = TransKind::Superblock;
    t->provenance = TransProvenance::Sbt;
    t->entryPc = trace.entryPc;
    t->fallthroughPc = trace.fallthroughPc;
    t->endsInCti = trace.endsInCti;

    for (std::size_t i = 0; i < trace.insns.size(); ++i) {
        const TraceInsn &ti = trace.insns[i];
        const x86::Insn &in = ti.insn;
        t->x86pcs.push_back(in.pc);
        ++t->numX86Insns;
        t->x86Bytes += in.length;

        if (in.op == x86::Op::Jmp && ti.takenOnTrace) {
            // Linearized away: the trace continues at the target.
            continue;
        }
        if (in.op == x86::Op::Call && ti.takenOnTrace) {
            // Followed call: keep the return-address push, elide the
            // jump (the callee body follows on the trace).
            t->containsComplex =
                uops::crack(in, t->uops) || t->containsComplex;
            assert(t->uops.back().op == uops::UOp::Jmp);
            t->uops.pop_back();
            continue;
        }
        if (in.op == x86::Op::Jcc && ti.takenOnTrace) {
            // Invert so the hot path falls through; the side exit
            // goes to the original fall-through.
            uops::Uop br;
            br.op = uops::UOp::Br;
            br.cond = static_cast<u8>(invertCond(in.cond));
            br.target = in.nextPc();
            br.x86pc = in.pc;
            t->uops.push_back(br);
            continue;
        }

        t->containsComplex =
            uops::crack(in, t->uops) || t->containsComplex;
    }

    lastOpt = optimize(t->uops, fusionCfg);
    nUops += t->uops.size();
    nPairs += lastOpt.fusion.pairs;

    t->codeBytes = uops::encodedBytes(t->uops);
    ++nSuperblocks;
    nInsns += t->numX86Insns;
    return t;
}

void
SuperblockTranslator::exportStats(StatRegistry &reg,
                                  const std::string &prefix) const
{
    reg.set(prefix + ".superblocks", static_cast<double>(nSuperblocks),
            "hot superblocks optimized");
    reg.set(prefix + ".insns", static_cast<double>(nInsns),
            "x86 instructions optimized");
    reg.set(prefix + ".uops_emitted", static_cast<double>(nUops),
            "micro-ops emitted after optimization");
    reg.set(prefix + ".pairs_fused", static_cast<double>(nPairs),
            "macro-op pairs fused");
    reg.set(prefix + ".fusion_rate",
            nUops ? 2.0 * static_cast<double>(nPairs) /
                        static_cast<double>(nUops)
                  : 0.0,
            "fraction of uops inside fused pairs");
}

} // namespace cdvm::dbt
