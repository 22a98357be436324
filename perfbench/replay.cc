#include "replay.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <unistd.h>

#include "dbt/bbt.hh"
#include "dbt/image.hh"
#include "dbt/lookup.hh"
#include "dbt/sbt.hh"
#include "dbt/superblock.hh"
#include "dbt/templates.hh"
#include "engine/cache_mgr.hh"
#include "engine/warm_start.hh"
#include "serve/image_client.hh"
#include "serve/image_host.hh"
#include "uops/crack.hh"
#include "uops/encoding.hh"
#include "x86/decoder.hh"

namespace cdvm::perfbench
{

namespace
{

/** Timed rounds per replay; the median round is reported. */
constexpr unsigned ROUNDS = 5;

/** One replay round: the work it did, and (if the round timed only
 *  part of itself) the ns that part took; 0 ns times the whole round. */
struct Round
{
    u64 units = 0;
    u64 ns = 0;
};

/**
 * Run ROUNDS rounds of pass(), one span each; @return the median ns
 * per unit of work (0 if no round did any).
 */
template <typename Pass>
double
nsPerUnit(SpanLog &spans, const char *name, Pass &&pass)
{
    std::vector<double> per;
    for (unsigned r = 0; r < ROUNDS; ++r) {
        SpanLog::Scope span(&spans, name);
        const u64 t0 = nowNs();
        Round w = pass();
        if (w.ns == 0)
            w.ns = nowNs() - t0;
        span.setWork(w.units);
        if (w.units)
            per.push_back(static_cast<double>(w.ns) /
                          static_cast<double>(w.units));
    }
    return quantile(std::move(per), 0.5);
}

/** What a vm.soft VM left behind on one program. */
struct Primed
{
    std::unique_ptr<x86::Memory> mem; //!< the program, untouched
    std::vector<x86::Insn> insns;     //!< linear sweep of the image
    std::vector<Addr> blockEntries;
    std::vector<Addr> seeds; //!< superblock entries (hot seeds)
    std::map<Addr, double> bias;
    dbt::Repository repo;
};

/** The image bytes at an instruction (at most MAX_INSN_LEN of them). */
std::span<const u8>
insnWindow(const workload::Program &p, Addr pc)
{
    const std::size_t off = pc - p.codeBase;
    return {p.image.data() + off,
            std::min<std::size_t>(x86::MAX_INSN_LEN, p.image.size() - off)};
}

/** Prime one program under cfg and collect the replay inputs. */
bool
prime(const Case &c, const engine::EngineConfig &cfg, Primed &p,
      ReplayResult &out)
{
    {
        x86::Memory mem;
        c.prog.loadInto(mem);
        x86::CpuState cpu = c.prog.initialState();
        vmm::Vmm vm(mem, cfg);
        if (runToHalt(vm, cpu, 2 * c.ref.retired + 1) !=
            x86::Exit::Halted)
            return false;
        p.repo = vm.captureWarmStart();
        out.primeBbtInsns.push_back(vm.stats().bbtInsnsTranslated);
    }
    for (const dbt::SavedTranslation &t : p.repo.entries)
        (t.kind == dbt::TransKind::BasicBlock ? p.blockEntries : p.seeds)
            .push_back(t.entryPc);
    for (const dbt::SavedBranchStat &b : p.repo.branchProfile)
        if (b.taken + b.notTaken)
            p.bias[b.pc] = static_cast<double>(b.taken) /
                           static_cast<double>(b.taken + b.notTaken);

    p.mem = std::make_unique<x86::Memory>();
    c.prog.loadInto(*p.mem);
    for (Addr pc = c.prog.codeBase;
         pc < c.prog.codeBase + c.prog.image.size();) {
        const x86::DecodeResult d =
            x86::decode(insnWindow(c.prog, pc), pc);
        if (!d) {
            ++out.decodeFailures;
            ++pc;
            continue;
        }
        pc += d.insn.length;
        p.insns.push_back(d.insn);
    }
    return true;
}

} // namespace

bool
replayLayers(const Setup &s, SpanLog &spans, const std::string &scratch,
             ReplayResult &out)
{
    // vm.soft translates cold code, so it also yields the block entries
    // and hot seeds of interp_heavy's programs.
    const engine::EngineConfig cfg = engine::EngineConfig::vmSoft();
    std::vector<Primed> pool(s.cases.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
        SpanLog::Scope span(&spans, "replay.prime", -1,
                            static_cast<int>(i));
        if (!prime(s.cases[i], cfg, pool[i], out)) {
            std::fprintf(stderr, "perfbench: priming program %zu did "
                                 "not halt\n",
                         i);
            return false;
        }
    }

    // --- x86: decode every instruction of every program.
    out.decodeNsPerInsn = nsPerUnit(spans, "replay.x86.decode", [&] {
        Round w;
        for (std::size_t i = 0; i < pool.size(); ++i)
            for (const x86::Insn &in : pool[i].insns)
                w.units += x86::decode(insnWindow(s.cases[i].prog, in.pc),
                                       in.pc)
                               .ok;
        return w;
    });

    // --- uops: crack every instruction.
    out.crackNsPerInsn = nsPerUnit(spans, "replay.uops.crack", [&] {
        Round w;
        for (const Primed &p : pool)
            for (const x86::Insn &in : p.insns)
                w.units += !uops::crack(in).uops.empty();
        return w;
    });

    // --- dbt: BBT over every block entry (the last round's blocks
    // feed the encode replay).
    std::vector<std::unique_ptr<dbt::Translation>> blocks;
    out.bbtReplayInsns.assign(pool.size(), 0);
    out.bbtNsPerInsn = nsPerUnit(spans, "replay.dbt.bbt", [&] {
        Round w;
        blocks.clear();
        for (std::size_t i = 0; i < pool.size(); ++i) {
            dbt::BasicBlockTranslator tx(*pool[i].mem, cfg.maxBlockInsns);
            u64 insns = 0;
            for (Addr pc : pool[i].blockEntries)
                if (auto t = tx.translate(pc)) {
                    insns += t->numX86Insns;
                    blocks.push_back(std::move(t));
                }
            out.bbtReplayInsns[i] = insns;
            w.units += insns;
        }
        return w;
    });

    // --- uops: encode the BBT blocks' micro-ops.
    out.encodeNsPerUop = nsPerUnit(spans, "replay.uops.encode", [&] {
        Round w;
        u8 buf[uops::MAX_UOP_BYTES];
        u64 bytes = 0;
        for (const auto &t : blocks)
            for (const uops::Uop &u : t->code()) {
                bytes += uops::encodeOne(u, buf);
                ++w.units;
            }
        if (bytes == 0)
            w.units = 0;
        return w;
    });
    blocks.clear();

    // --- dbt: the template tier over the same entries.
    u64 templated = 0, fallback = 0;
    out.tmplNsPerInsn = nsPerUnit(spans, "replay.dbt.tmpl", [&] {
        Round w;
        templated = fallback = 0;
        for (Primed &p : pool) {
            dbt::TemplateTranslator tx(*p.mem, cfg.maxBlockInsns,
                                       cfg.tmplCoveragePct);
            for (Addr pc : p.blockEntries)
                if (auto t = tx.translate(pc))
                    w.units += t->numX86Insns;
            templated += tx.templatedInsns();
            fallback += tx.fallbackInsns();
        }
        return w;
    });
    if (templated + fallback)
        out.tmplCoverage = static_cast<double>(templated) /
                           static_cast<double>(templated + fallback);

    // --- dbt: superblock formation + optimization over the hot seeds.
    out.sbtNsPerInsn = nsPerUnit(spans, "replay.dbt.sbt", [&] {
        Round w;
        for (Primed &p : pool) {
            dbt::SuperblockFormer former(
                *p.mem,
                [&p](Addr pc) -> std::optional<double> {
                    auto it = p.bias.find(pc);
                    if (it == p.bias.end())
                        return std::nullopt;
                    return it->second;
                },
                cfg.sbPolicy);
            dbt::SuperblockTranslator sbt(cfg.fusion);
            for (Addr pc : p.seeds)
                if (auto trace = former.form(pc))
                    if (auto t = sbt.translate(*trace))
                        w.units += t->numX86Insns;
        }
        return w;
    });

    // --- dbt: lookups over a hit set (the block entries) and a miss
    // set (the same pcs moved outside the code), one table per program
    // sized like a VM's.
    const dbt::TranslationMap::Config map_cfg{
        cfg.fastDispatch, cfg.lookupReserve, cfg.lookasideEntries};
    std::vector<std::unique_ptr<dbt::TranslationMap>> maps;
    u64 entries = 0;
    for (const Primed &p : pool) {
        auto m = std::make_unique<dbt::TranslationMap>(map_cfg);
        for (Addr pc : p.blockEntries) {
            auto t = std::make_unique<dbt::Translation>();
            t->entryPc = pc;
            m->insert(std::move(t));
        }
        entries += p.blockEntries.size();
        maps.push_back(std::move(m));
    }
    u64 found = 0;
    out.lookupNsPerLookup = nsPerUnit(spans, "replay.dbt.lookup", [&] {
        Round w;
        found = 0;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            for (Addr pc : pool[i].blockEntries)
                found += maps[i]->lookup(pc) != nullptr;
            for (Addr pc : pool[i].blockEntries)
                found += maps[i]->lookup(pc + 0x40000000) != nullptr;
            w.units += 2 * pool[i].blockEntries.size();
        }
        return w;
    });
    if (found != entries) {
        std::fprintf(stderr, "perfbench: lookup replay found %llu of "
                             "%llu entries\n",
                     static_cast<unsigned long long>(found),
                     static_cast<unsigned long long>(entries));
        return false;
    }

    // --- dbt image: merge the captures, save, load.
    std::vector<u8> blob;
    out.imageBuildMs =
        nsPerUnit(spans, "replay.dbt.image.build", [&] {
            dbt::ImageBuilder builder(dbt::ImageBuilder::Options{0, 1});
            for (const Primed &p : pool)
                builder.add(p.repo);
            blob = builder.build();
            return Round{1};
        }) /
        1e6;
    out.imageBytes = blob.size();
    const std::string base =
        scratch + "/replay-" + std::to_string(::getpid());
    if (!dbt::TransImage::save(base + ".img", blob)) {
        std::fprintf(stderr, "perfbench: cannot write %s.img\n",
                     base.c_str());
        return false;
    }
    dbt::TransImage image;
    bool ok = true;
    out.imageLoadMs =
        nsPerUnit(spans, "replay.dbt.image.load", [&] {
            // Only the load is timed; dropping the previous round's
            // mapping happens after the clock.
            dbt::TransImage fresh;
            const u64 t0 = nowNs();
            ok = ok && dbt::TransImage::load(base + ".img", fresh) ==
                           dbt::LoadError::None;
            const Round w{1, nowNs() - t0};
            image = std::move(fresh);
            return w;
        }) /
        1e6;
    ::unlink((base + ".img").c_str());
    if (!ok) {
        std::fprintf(stderr, "perfbench: image load failed\n");
        return false;
    }

    // --- serve: publish the image and time client connects.
    {
        serve::ImageHost host;
        if (!host.publish(blob) || !host.start(base + ".sock")) {
            std::fprintf(stderr, "perfbench: replay host: %s\n",
                         host.lastError().c_str());
            return false;
        }
        out.connectMs =
            nsPerUnit(spans, "replay.serve.connect", [&] {
                serve::ImageClient client;
                ok = ok && client.connect(base + ".sock") &&
                     client.acquire() != nullptr;
                return Round{1};
            }) /
            1e6;
        host.stop();
        if (!ok) {
            std::fprintf(stderr, "perfbench: replay connect failed\n");
            return false;
        }
    }

    // --- engine: zero-copy warm install into a fresh code cache. Only
    // the install call is timed, not the cache it fills.
    out.warmInstalled.assign(pool.size(), 0);
    u64 loaded = 0, installed = 0, relocs = 0;
    out.warmInstallNsPerInsn =
        nsPerUnit(spans, "replay.engine.warm_install", [&] {
            Round w;
            loaded = installed = relocs = 0;
            for (std::size_t i = 0; i < pool.size(); ++i) {
                x86::Memory mem;
                s.cases[i].prog.loadInto(mem);
                engine::EngineStats st;
                engine::EventStream events;
                engine::CodeCacheManager ccm(mem, cfg, st, events);
                engine::BranchProfile prof(cfg.branchProfCap,
                                           cfg.branchProfReserve);
                const u64 t0 = nowNs();
                const engine::WarmStartReport rep =
                    engine::warmStartInstall(image, mem, ccm, prof);
                w.ns += nowNs() - t0;
                w.units += rep.installedInsns;
                loaded += rep.loaded;
                installed += rep.installed;
                relocs += rep.relocations;
                out.warmInstalled[i] = rep.installed;
            }
            return w;
        });
    if (loaded)
        out.warmAcceptRatio = static_cast<double>(installed) /
                              static_cast<double>(loaded);
    if (!pool.empty())
        out.warmRelocations = static_cast<double>(relocs) /
                              static_cast<double>(pool.size());
    return true;
}

} // namespace cdvm::perfbench
