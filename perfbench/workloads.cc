#include "workloads.hh"

#include <cmath>
#include <cstdio>

#include "dbt/image.hh"
#include "fleet/fleet.hh"
#include "x86/decode_cache.hh"

namespace cdvm::perfbench
{

namespace
{

/** Programs per pool; VMs cycle through the pool in whole rounds. */
constexpr unsigned COLD_POOL = 8;
/** Image classes, matching the FleetConfig::workloads default. */
constexpr unsigned WARM_CLASSES = 4;
/** steady's programs differ in host speed by +-15%, so its pool is the
 *  largest; interp_heavy runs the first INTERP_POOL of them (its VMs
 *  are slower and differ only in length). */
constexpr unsigned STEADY_POOL = 16;
constexpr unsigned INTERP_POOL = 8;
/** Retired instructions a steady / interp_heavy VM runs to HLT. */
constexpr u64 STEADY_TARGET_INSNS = 8'000'000;
/** A steady program's one main iteration may retire at most this
 *  share of the target, so whole iterations land within ~3% of it. */
constexpr u64 STEADY_MAX_ITER_INSNS = STEADY_TARGET_INSNS / 16;
/** cold_boot and warm_boot runs hold at least this many VMs, so at
 *  least ten samples lie beyond the p90. */
constexpr unsigned BOOT_MIN_VMS = 100;
/** Interpreter budget for a flat boot program (it halts far sooner). */
constexpr u64 BOOT_CAP_INSNS = 20'000'000;

/** ~512 functions x 6 blocks of flat code (~160 KB): every block runs
 *  a handful of times, so nothing gets hot. */
workload::ProgramParams
bootShape()
{
    workload::ProgramParams p;
    p.numFuncs = 512;
    p.blocksPerFunc = 6;
    p.withCalls = false;
    p.loopTripMin = 2;
    p.loopTripMax = 3;
    p.mainIterations = 2;
    return p;
}

/** The bench_host_mips mix: small, call-heavy, indirect calls. */
workload::ProgramParams
steadyShape()
{
    workload::ProgramParams p;
    p.numFuncs = 8;
    p.blocksPerFunc = 5;
    p.insnsPerBlock = 8;
    return p;
}

/** Run p under the interpreter (with its decode cache) from its
 *  entry state. */
bool
interpret(const workload::Program &p, u64 cap, Reference &out)
{
    x86::Memory mem;
    p.loadInto(mem);
    out.cpu = p.initialState();
    x86::DecodeCache dcache;
    x86::Interpreter interp(out.cpu, mem, &dcache);
    if (interp.run(cap) != x86::Exit::Halted)
        return false;
    out.retired = out.cpu.icount;
    out.dataHash = hashRange(mem, p.dataBase, p.dataBytes);
    out.stackHash = hashRange(mem, p.stackTop - 4096, 4096);
    return true;
}

/** Wall seconds since t0_ns. */
double
since(u64 t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) / 1e9;
}

/**
 * Generate a program and its reference. Steady programs are first
 * probed at one main iteration, then regenerated with the iteration
 * count that brings a run to ~STEADY_TARGET_INSNS (the iteration count
 * is an immediate operand, so the code is otherwise identical); seeds
 * whose single iteration exceeds STEADY_MAX_ITER_INSNS are skipped.
 * Returns false for a skipped seed.
 */
bool
makeCase(Setup &s, workload::ProgramParams pp, SpanLog *spans,
         int index)
{
    const bool steady = s.workload == Workload::Steady ||
                        s.workload == Workload::InterpHeavy;
    Case c;
    u64 cap = BOOT_CAP_INSNS;
    if (steady) {
        pp.mainIterations = 1;
        workload::Program probe;
        {
            SpanLog::Scope span(spans, "workload.gen", -1, index);
            const u64 t0 = nowNs();
            probe = workload::generateProgram(pp);
            s.genS += since(t0);
        }
        Reference r;
        {
            SpanLog::Scope span(spans, "setup.ref_interp", -1, index);
            const u64 t0 = nowNs();
            const bool ok =
                interpret(probe, STEADY_MAX_ITER_INSNS, r);
            s.refInterpS += since(t0);
            s.refInsns += r.cpu.icount;
            span.setWork(r.cpu.icount);
            if (!ok)
                return false;
        }
        pp.mainIterations = static_cast<unsigned>(std::llround(
            static_cast<double>(STEADY_TARGET_INSNS) /
            static_cast<double>(r.retired)));
        cap = 4 * STEADY_TARGET_INSNS;
    }
    {
        SpanLog::Scope span(spans, "workload.gen", -1, index);
        const u64 t0 = nowNs();
        c.prog = workload::generateProgram(pp);
        s.genS += since(t0);
    }
    {
        SpanLog::Scope span(spans, "setup.ref_interp", -1, index);
        const u64 t0 = nowNs();
        const bool ok = interpret(c.prog, cap, c.ref);
        s.refInterpS += since(t0);
        s.refInsns += c.ref.cpu.icount;
        span.setWork(c.ref.cpu.icount);
        if (!ok) {
            std::fprintf(stderr,
                         "perfbench: program seed %llu does not halt "
                         "under the interpreter\n",
                         static_cast<unsigned long long>(pp.seed));
            return false;
        }
    }
    s.cases.push_back(std::move(c));
    return true;
}

/** Prime each class to HLT, merge the captures, publish the image. */
bool
buildAndServe(Setup &s, SpanLog *spans)
{
    dbt::ImageBuilder builder(dbt::ImageBuilder::Options{0, 1});
    {
        SpanLog::Scope span(spans, "setup.prime");
        const u64 t0 = nowNs();
        for (std::size_t i = 0; i < s.cases.size(); ++i) {
            const Case &c = s.cases[i];
            x86::Memory mem;
            c.prog.loadInto(mem);
            x86::CpuState cpu = c.prog.initialState();
            vmm::Vmm vm(mem, s.cfg);
            if (runToHalt(vm, cpu, 2 * c.ref.retired + 1) !=
                x86::Exit::Halted) {
                std::fprintf(stderr, "perfbench: priming class %zu "
                                     "did not halt\n",
                             i);
                return false;
            }
            builder.add(vm.captureWarmStart());
        }
        s.primeS = since(t0);
    }
    {
        SpanLog::Scope span(spans, "dbt.image.build");
        s.image = builder.build();
        span.setWork(s.image.size());
    }
    SpanLog::Scope span(spans, "serve.publish");
    s.host = std::make_unique<serve::ImageHost>();
    if (!s.host->publish(s.image) || !s.host->start(s.socketPath)) {
        std::fprintf(stderr, "perfbench: image host: %s\n",
                     s.host->lastError().c_str());
        return false;
    }
    return true;
}

} // namespace

std::optional<Workload>
parseWorkload(const std::string &name)
{
    for (Workload w : {Workload::ColdBoot, Workload::WarmBoot,
                       Workload::Steady, Workload::InterpHeavy})
        if (name == workloadName(w))
            return w;
    return std::nullopt;
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::ColdBoot:
        return "cold_boot";
      case Workload::WarmBoot:
        return "warm_boot";
      case Workload::Steady:
        return "steady";
      case Workload::InterpHeavy:
        return "interp_heavy";
    }
    return "?";
}

u64
hashRange(const x86::Memory &mem, Addr base, u64 bytes)
{
    u64 h = 0xcbf29ce484222325ull;
    for (u8 b : mem.readBlock(base, bytes)) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

x86::Exit
runToHalt(vmm::Vmm &vm, x86::CpuState &cpu, u64 cap)
{
    for (;;) {
        const u64 done = vm.stats().totalRetired();
        if (done >= cap)
            return x86::Exit::None;
        const x86::Exit e = vm.run(cpu, cap - done);
        if (e != x86::Exit::None)
            return e;
    }
}

std::string
checkOutcome(const Case &c, x86::Exit exit, const x86::CpuState &cpu,
             const x86::Memory &mem)
{
    if (exit != x86::Exit::Halted)
        return std::string("exit ") + x86::exitName(exit);
    if (!cpu.sameArchState(c.ref.cpu))
        return "architected state differs";
    if (hashRange(mem, c.prog.dataBase, c.prog.dataBytes) !=
        c.ref.dataHash)
        return "data segment differs";
    if (hashRange(mem, c.prog.stackTop - 4096, 4096) != c.ref.stackHash)
        return "stack window differs";
    return "";
}

std::unique_ptr<Setup>
makeSetup(Workload w, u64 seed, const std::string &socket_path,
          SpanLog *spans)
{
    SpanLog::Scope span(spans, "setup");
    auto s = std::make_unique<Setup>();
    s->workload = w;
    s->socketPath = socket_path;

    workload::ProgramParams shape;
    unsigned pool = 0;
    switch (w) {
      case Workload::ColdBoot:
      case Workload::WarmBoot:
        s->cfg = engine::EngineConfig::vmSoft();
        shape = bootShape();
        pool = w == Workload::ColdBoot ? COLD_POOL : WARM_CLASSES;
        s->minVms = BOOT_MIN_VMS;
        break;
      case Workload::Steady:
        s->cfg = engine::EngineConfig::vmSoft();
        shape = steadyShape();
        pool = STEADY_POOL;
        break;
      case Workload::InterpHeavy:
        s->cfg = engine::EngineConfig::vmInterp();
        s->cfg.name = "vm.interp.coldheavy";
        s->cfg.interpHotThreshold = u64{1} << 40;
        shape = steadyShape();
        pool = INTERP_POOL;
        break;
    }

    // Program k of the pool comes from sub-seed deriveSeed(seed, k),
    // as a fleet derives its class seeds; skipped steady seeds move
    // on to the next k.
    for (u64 k = 0; s->cases.size() < pool; ++k) {
        if (k > 16 * pool) {
            std::fprintf(stderr, "perfbench: no usable programs for "
                                 "seed %llu\n",
                         static_cast<unsigned long long>(seed));
            return nullptr;
        }
        workload::ProgramParams pp = shape;
        pp.seed = fleet::deriveSeed(seed, k);
        const bool kept = makeCase(*s, pp, spans,
                                   static_cast<int>(s->cases.size()));
        if (!kept && w != Workload::Steady &&
            w != Workload::InterpHeavy)
            return nullptr;
    }

    if (w == Workload::WarmBoot && !buildAndServe(*s, spans))
        return nullptr;
    return s;
}

} // namespace cdvm::perfbench
