#include "dbt/bbt.hh"

#include "common/statreg.hh"
#include "uops/crack.hh"
#include "uops/encoding.hh"

namespace cdvm::dbt
{

std::unique_ptr<Translation>
BasicBlockTranslator::translate(Addr pc)
{
    if (!mem.isMapped(pc))
        return nullptr;
    auto t = std::make_unique<Translation>();
    t->kind = TransKind::BasicBlock;
    t->entryPc = pc;

    scratchUops.clear();
    scratchPcs.clear();
    Addr cur = pc;
    BlockWindow window(mem, pc);
    for (unsigned n = 0; n < maxInsns; ++n) {
        x86::DecodeResult dr = window.decode(cur);
        if (!dr.ok) {
            // Cut the block before the undecodable bytes; an empty
            // block means the entry itself is bad.
            if (t->numX86Insns == 0)
                return nullptr;
            break;
        }
        const x86::Insn &in = dr.insn;
        t->containsComplex =
            uops::crack(in, scratchUops) || t->containsComplex;
        scratchPcs.push_back(in.pc);
        ++t->numX86Insns;
        t->x86Bytes += in.length;
        cur = in.nextPc();
        if (in.isCti()) {
            t->endsInCti = true;
            if (in.isCondBranch()) {
                t->endsInCondBranch = true;
                t->condBranchTarget = in.target;
                t->condBranchPc = in.pc;
            }
            break;
        }
    }

    t->fallthroughPc = cur;
    t->uops = scratchUops;
    t->x86pcs = scratchPcs;
    t->codeBytes = uops::encodedBytes(t->uops);
    ++nBlocks;
    nInsns += t->numX86Insns;
    return t;
}

void
BasicBlockTranslator::exportStats(StatRegistry &reg,
                                  const std::string &prefix) const
{
    reg.set(prefix + ".blocks", static_cast<double>(nBlocks),
            "basic blocks translated");
    reg.set(prefix + ".insns", static_cast<double>(nInsns),
            "x86 instructions translated");
    reg.set(prefix + ".insns_per_block",
            nBlocks ? static_cast<double>(nInsns) /
                          static_cast<double>(nBlocks)
                    : 0.0,
            "mean block length");
}

} // namespace cdvm::dbt
