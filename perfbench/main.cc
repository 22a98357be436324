/**
 * @file
 * Boot-latency and guest-MIPS benchmark for the functional VMM.
 *
 * A closed loop on the main thread: one vmm::Vmm at a time, each on a
 * program of the workload's pool, booted with a stock EngineConfig
 * preset and run to its first HLT (warm_boot adds the ImageHost accept
 * thread). VMs run in whole rounds over the pool until --seconds have
 * passed, so every count the run reports is the same for the same
 * seed. Each VM's final state is checked against the interpreter
 * reference computed in set-up.
 *
 *   perfbench --workload cold_boot --seed 1 --seconds 10 --trace 0
 *
 * The last line of stdout is one JSON object: {"correct", "attempted"
 * (VMs booted), "failed", "metrics"}. --trace 0 reports the end-to-end
 * metrics; --trace 1 reports the per-layer metrics instead, records
 * spans around every layer call and writes them to --spans-out.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include "calibrate.hh"
#include "fleet/fleet.hh"
#include "replay.hh"
#include "serve/image_client.hh"
#include "spans.hh"
#include "workloads.hh"
#include "x86/decode_cache.hh"

using namespace cdvm;
using namespace cdvm::perfbench;

namespace
{

/** Set-ups per untraced run; setup_s is their median. */
constexpr unsigned SETUP_REPS = 3;

struct Options
{
    Workload workload = Workload::ColdBoot;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut; //!< default: <scratch>/spans-<workload>.json
    std::string scratch = ".bench_build/perfbench";
};

/** One booted VM. */
struct VmSample
{
    int program = 0;
    bool traced = false;
    std::string failure; //!< empty when the VM matched the reference
    /** The VM's retired count differs from the interpreter's although
     *  its final state matches (an accounting disagreement). */
    bool retireMismatch = false;
    u64 refRetired = 0;
    double connectMs = 0.0;
    double ctorMs = 0.0;
    double runMs = 0.0;
    double dtorMs = 0.0;
    double totalMs = 0.0;
    /** The calibration kernel's time, measured just before the VM. */
    double kernelMs = 0.0;
    engine::EngineStats st;
    u64 lookups = 0, lookupMisses = 0;
    u64 lookasideHits = 0, lookasideMisses = 0;
    u64 decodeHits = 0, decodeMisses = 0;
};

double
msBetween(u64 a, u64 b)
{
    return static_cast<double>(b - a) / 1e6;
}

/**
 * Boot one VM on program i: the clock runs from Vmm construction (or
 * ImageClient::connect in warm_boot) to after the first HLT and the
 * VM's destruction. The reference check happens after the clock.
 */
VmSample
bootOne(const Setup &s, int i, int vm_id, SpanLog *spans)
{
    const Case &c = s.cases[static_cast<std::size_t>(i)];
    VmSample out;
    out.program = i;
    out.traced = spans != nullptr;
    x86::Memory mem;
    c.prog.loadInto(mem);
    x86::CpuState cpu = c.prog.initialState();
    x86::Exit exit = x86::Exit::None;
    bool connected = true;

    const u64 t0 = nowNs();
    u64 t1 = t0, t2 = t0, t3 = t0, t4 = t0;
    {
        SpanLog::Scope vm_span(spans, "vm", vm_id, i);
        engine::SharedServices svc;
        std::shared_ptr<serve::ImageClient> client;
        if (s.workload == Workload::WarmBoot) {
            SpanLog::Scope span(spans, "serve.connect");
            client = std::make_shared<serve::ImageClient>();
            connected = client->connect(s.socketPath);
            svc.imageEndpoint = client;
        }
        t1 = nowNs();
        std::optional<vmm::Vmm> vm;
        {
            SpanLog::Scope span(spans, "vmm.ctor");
            vm.emplace(mem, s.cfg, svc);
        }
        t2 = nowNs();
        {
            SpanLog::Scope span(spans, "vmm.run");
            exit = runToHalt(*vm, cpu, 2 * c.ref.retired + 1);
            span.setWork(vm->stats().totalRetired());
        }
        t3 = nowNs();
        // Counters are read between the run and the destruction; a
        // copy of a few dozen words, inside the VM's window.
        out.st = vm->stats();
        const dbt::TranslationMap &map = vm->translations();
        out.lookups = map.lookups();
        out.lookupMisses = map.lookupMisses();
        out.lookasideHits = map.lookasideHits();
        out.lookasideMisses = map.lookasideMisses();
        if (const x86::DecodeCache *dc = vm->coldExecutor().decodeCache()) {
            out.decodeHits = dc->hits();
            out.decodeMisses = dc->misses();
        }
        {
            SpanLog::Scope span(spans, "vmm.dtor");
            vm.reset();
            svc = {};
            client.reset();
        }
        t4 = nowNs();
    }
    out.connectMs = msBetween(t0, t1);
    out.ctorMs = msBetween(t1, t2);
    out.runMs = msBetween(t2, t3);
    out.dtorMs = msBetween(t3, t4);
    out.totalMs = msBetween(t0, t4);

    out.failure = checkOutcome(c, exit, cpu, mem);
    out.refRetired = c.ref.retired;
    out.retireMismatch = cpu.icount != c.ref.retired;
    if (out.failure.empty() && s.workload == Workload::WarmBoot) {
        if (!connected)
            out.failure = "could not connect to the image host";
        else if (out.st.bbtInsnsTranslated + out.st.sbtInsnsTranslated +
                     out.st.xltInsnsTranslated != 0)
            out.failure = "warm boot translated instructions";
        else if (out.st.warmBodyCopies != 0)
            out.failure = "warm boot copied record bodies";
        else if (out.st.warmInstalled == 0)
            out.failure = "warm boot installed nothing";
    }
    return out;
}

/** The paper's modelled cost of one VM, in cycles. */
double
modelCycles(const engine::EngineStats &s, const fleet::WorkWeights &w)
{
    const double warm = s.warmMappedBytes ? w.warmInstallMapped
                                          : w.warmInstall;
    auto d = [](u64 v) { return static_cast<double>(v); };
    return w.interp * d(s.insnsInterp) + w.x86Mode * d(s.insnsX86Mode) +
           w.bbtExec * d(s.insnsBbtCode) + w.sbtExec * d(s.insnsSbtCode) +
           w.bbtTranslate * d(s.bbtInsnsTranslated) +
           w.sbtOptimize * d(s.sbtInsnsTranslated) +
           warm * d(s.warmInsnsInstalled);
}

/** The EngineStats counts a same-program VM must repeat exactly. */
std::array<u64, 12>
countsOf(const engine::EngineStats &s)
{
    return {s.insnsInterp,        s.insnsBbtCode,
            s.insnsSbtCode,       s.uopsBbtCode,
            s.uopsSbtCode,        s.bbtInsnsTranslated,
            s.sbtInsnsTranslated, s.dispatches,
            s.chainFollows,       s.bbtCacheFlushes + s.sbtCacheFlushes,
            s.warmInstalled,      s.warmRelocations};
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/**
 * Print the human-readable lines (metrics, then the raw figures in
 * notes) and the JSON result line, which carries only metrics.
 */
void
printResult(const Options &o, bool correct, std::size_t attempted,
            std::size_t failed, const std::vector<Metric> &metrics,
            const std::vector<Metric> &notes = {})
{
    std::printf("perfbench %s seed=%llu trace=%d: %zu VMs, %zu failed "
                "(fail_frac %.6g)\n",
                workloadName(o.workload),
                static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
                attempted, failed,
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)));
    for (const Metric &m : metrics)
        std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit);
    for (const Metric &m : notes)
        std::printf("  (raw) %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") {
            auto w = parseWorkload(v);
            if (!w)
                return false;
            o.workload = *w;
        } else if (k == "--seed") {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (k == "--seconds") {
            o.seconds = std::strtod(v.c_str(), nullptr);
        } else if (k == "--trace") {
            o.trace = v == "1";
        } else if (k == "--spans-out") {
            o.spansOut = v;
        } else if (k == "--scratch") {
            o.scratch = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload "
                     "cold_boot|warm_boot|steady|interp_heavy --seed N "
                     "--seconds S --trace 0|1 [--spans-out FILE] "
                     "[--scratch DIR]\n");
        return 2;
    }
    ::mkdir(o.scratch.c_str(), 0755);
    if (o.spansOut.empty())
        o.spansOut = o.scratch + "/spans-" +
                     workloadName(o.workload) + ".json";
    const std::string sock =
        o.scratch + "/perfbench-" + std::to_string(::getpid()) + ".sock";

    SpanLog log;
    SpanLog *spans = o.trace ? &log : nullptr;

    // --- set-up, several times; the last one is kept. Each is timed
    // raw and rescaled by the calibration kernel run around it.
    std::vector<double> setup_s, setup_norm_s;
    std::unique_ptr<Setup> setup;
    for (unsigned r = 0; r < (o.trace ? 1 : SETUP_REPS); ++r) {
        setup.reset();
        std::vector<double> kernel_ms;
        for (int i = 0; i < 3; ++i)
            kernel_ms.push_back(calibrationKernelMs());
        const u64 t0 = nowNs();
        setup = makeSetup(o.workload, o.seed, sock, spans);
        const double secs = static_cast<double>(nowNs() - t0) / 1e9;
        if (!setup)
            return 1;
        for (int i = 0; i < 3; ++i)
            kernel_ms.push_back(calibrationKernelMs());
        setup_s.push_back(secs);
        setup_norm_s.push_back(secs * CAL_REF_MS /
                               quantile(kernel_ms, 0.5));
    }
    const Setup &s = *setup;
    const int pool = static_cast<int>(s.cases.size());

    // --- the closed loop. One untimed boot first (allocator and page
    // warm-up a long-lived host has already paid); then whole rounds
    // over the pool until the time is up. A traced run alternates
    // traced and untraced rounds and ends on an untraced one.
    (void)bootOne(s, 0, -1, nullptr);
    std::vector<VmSample> samples;
    const u64 deadline =
        nowNs() + static_cast<u64>(std::max(0.0, o.seconds) * 1e9);
    unsigned rounds = 0;
    for (;;) {
        const bool traced = o.trace && rounds % 2 == 0;
        for (int i = 0; i < pool; ++i) {
            const double kernel_ms = calibrationKernelMs();
            samples.push_back(
                bootOne(s, i, static_cast<int>(samples.size()),
                        traced ? spans : nullptr));
            samples.back().kernelMs = kernel_ms;
        }
        ++rounds;
        if (nowNs() >= deadline && samples.size() >= s.minVms &&
            (!o.trace || rounds % 2 == 0))
            break;
    }
    if (s.host)
        s.host->stop();

    // --- aggregate.
    const fleet::WorkWeights weights = fleet::WorkWeights::forConfig(s.cfg);
    std::vector<double> kernel_ms;
    for (const VmSample &v : samples)
        kernel_ms.push_back(v.kernelMs);
    const std::vector<double> speed = speedFactors(kernel_ms);
    std::vector<double> vm_ms, norm_ms, traced_ms, untraced_ms, ctor_ms,
        run_ms, dtor_ms, connect_ms;
    std::size_t failed = 0, retire_mismatch = 0;
    double cycles = 0.0, retired = 0.0, ref_retired = 0.0, total_s = 0.0,
           norm_s = 0.0;
    double traced_run_ms = 0.0, traced_uops = 0.0;
    engine::EngineStats sum;
    double lookups = 0, misses = 0, ls_hits = 0, ls_all = 0, dc_hits = 0,
           dc_all = 0, flushes = 0;
    std::vector<engine::EngineStats> first(static_cast<std::size_t>(pool));
    bool counts_repeat = true;
    for (std::size_t k = 0; k < samples.size(); ++k) {
        const VmSample &v = samples[k];
        retire_mismatch += v.retireMismatch;
        if (!v.failure.empty()) {
            if (failed == 0)
                std::fprintf(stderr, "perfbench: VM %zu (program %d) "
                                     "failed: %s\n",
                             k, v.program, v.failure.c_str());
            ++failed;
        }
        vm_ms.push_back(v.totalMs);
        norm_ms.push_back(v.totalMs * speed[k]);
        (v.traced ? traced_ms : untraced_ms).push_back(v.totalMs);
        if (v.traced) {
            ctor_ms.push_back(v.ctorMs);
            run_ms.push_back(v.runMs);
            dtor_ms.push_back(v.dtorMs);
            connect_ms.push_back(v.connectMs);
            traced_run_ms += v.runMs;
            traced_uops += static_cast<double>(v.st.uopsBbtCode +
                                               v.st.uopsSbtCode);
        }
        // Guest MIPS counts the reference's retired instructions: what
        // the guest executed, whatever the engine's own counters say.
        ref_retired += static_cast<double>(v.refRetired);
        total_s += v.totalMs / 1e3;
        norm_s += v.totalMs * speed[k] / 1e3;
        cycles += modelCycles(v.st, weights);
        retired += static_cast<double>(v.st.totalRetired());
        sum.insnsInterp += v.st.insnsInterp;
        sum.insnsBbtCode += v.st.insnsBbtCode;
        sum.insnsSbtCode += v.st.insnsSbtCode;
        sum.bbtInsnsTranslated += v.st.bbtInsnsTranslated;
        sum.sbtInsnsTranslated += v.st.sbtInsnsTranslated;
        sum.dispatches += v.st.dispatches;
        sum.chainFollows += v.st.chainFollows;
        flushes += static_cast<double>(v.st.bbtCacheFlushes +
                                       v.st.sbtCacheFlushes);
        lookups += static_cast<double>(v.lookups);
        misses += static_cast<double>(v.lookupMisses);
        ls_hits += static_cast<double>(v.lookasideHits);
        ls_all += static_cast<double>(v.lookasideHits + v.lookasideMisses);
        dc_hits += static_cast<double>(v.decodeHits);
        dc_all += static_cast<double>(v.decodeHits + v.decodeMisses);
        if (k < static_cast<std::size_t>(pool))
            first[k] = v.st;
        else if (countsOf(v.st) !=
                 countsOf(first[static_cast<std::size_t>(v.program)]))
            counts_repeat = false;
    }
    const std::size_t attempted = samples.size();
    const double n_vms = static_cast<double>(attempted);
    const bool correct = failed == 0 && counts_repeat;
    if (!counts_repeat)
        std::fprintf(stderr, "perfbench: VMs of one program disagree on "
                             "their engine counts\n");
    if (retire_mismatch)
        std::fprintf(stderr, "perfbench: %zu VMs matched the reference "
                             "state but not its retired count\n",
                     retire_mismatch);

    if (!o.trace) {
        printResult(
            o, correct, attempted, failed,
            {{"setup_s", quantile(setup_norm_s, 0.5), "s"},
             {"vm_norm_ms_p50", quantile(norm_ms, 0.5), "ms"},
             {"vm_norm_ms_p90", quantile(norm_ms, 0.9), "ms"},
             {"guest_norm_mips", ref_retired / norm_s / 1e6, "MIPS"},
             {"model_cycles_per_insn", cycles / retired, "cycles/insn"},
             {"peak_rss_mb", peakRssMb(), "MB"}},
            {{"setup_s", quantile(setup_s, 0.5), "s"},
             {"vm_ms_p50", quantile(vm_ms, 0.5), "ms"},
             {"vm_ms_p90", quantile(vm_ms, 0.9), "ms"},
             {"guest_mips", ref_retired / total_s / 1e6, "MIPS"},
             {"calibration_kernel_ms_p50", quantile(kernel_ms, 0.5),
              "ms"}});
        return 0;
    }

    // --- traced run: per-layer replays, then the span file.
    ReplayResult rp;
    {
        SpanLog::Scope span(spans, "replay");
        if (!replayLayers(s, log, o.scratch, rp))
            return 1;
    }
    const double overhead_ms =
        quantile(traced_ms, 0.5) - quantile(untraced_ms, 0.5);
    auto d = [](u64 v) { return static_cast<double>(v); };
    const double all_retired = d(sum.insnsInterp + sum.insnsBbtCode +
                                 sum.insnsSbtCode);
    const std::vector<Metric> layers = {
        {"vmm.ctor_ms", quantile(ctor_ms, 0.5), "ms"},
        {"vmm.run_ms", quantile(run_ms, 0.5), "ms"},
        {"vmm.dtor_ms", quantile(dtor_ms, 0.5), "ms"},
        {"vmm.retire_mismatch_share",
         ratio(static_cast<double>(retire_mismatch), n_vms), "ratio"},
        {"serve.connect_ms",
         s.workload == Workload::WarmBoot ? quantile(connect_ms, 0.5)
                                          : rp.connectMs,
         "ms"},
        {"dbt.image.load_ms", rp.imageLoadMs, "ms"},
        {"dbt.image.bytes", d(rp.imageBytes), "bytes"},
        {"dbt.image.build_ms", rp.imageBuildMs, "ms"},
        {"engine.warm.install_ns_per_insn", rp.warmInstallNsPerInsn,
         "ns/insn"},
        {"engine.warm.accept_ratio", rp.warmAcceptRatio, "ratio"},
        {"engine.warm.relocations", rp.warmRelocations, "count"},
        {"x86.decode.ns_per_insn", rp.decodeNsPerInsn, "ns/insn"},
        {"x86.interp.ns_per_insn", ratio(s.refInterpS * 1e9, d(s.refInsns)),
         "ns/insn"},
        {"x86.decode_cache.hit_rate", ratio(dc_hits, dc_all), "ratio"},
        {"uops.crack.ns_per_insn", rp.crackNsPerInsn, "ns/insn"},
        {"uops.encode.ns_per_uop", rp.encodeNsPerUop, "ns/uop"},
        {"uops.exec.ns_per_uop", ratio(traced_run_ms * 1e6, traced_uops),
         "ns/uop"},
        {"dbt.bbt.translate_ns_per_insn", rp.bbtNsPerInsn, "ns/insn"},
        {"dbt.sbt.translate_ns_per_insn", rp.sbtNsPerInsn, "ns/insn"},
        {"dbt.tmpl.translate_ns_per_insn", rp.tmplNsPerInsn, "ns/insn"},
        {"dbt.tmpl.coverage", rp.tmplCoverage, "ratio"},
        {"dbt.lookup.ns_per_lookup", rp.lookupNsPerLookup, "ns"},
        {"dbt.lookup.miss_rate", ratio(misses, lookups), "ratio"},
        {"dbt.lookup.lookaside_hit_rate", ratio(ls_hits, ls_all), "ratio"},
        {"engine.dispatch_per_kinsn",
         ratio(d(sum.dispatches) * 1e3, retired), "1/kinsn"},
        {"engine.chain_follow_share",
         ratio(d(sum.chainFollows), d(sum.chainFollows + sum.dispatches)),
         "ratio"},
        {"engine.cache_flushes", flushes / n_vms, "count"},
        {"engine.retired.interp_share", ratio(d(sum.insnsInterp), all_retired),
         "ratio"},
        {"engine.retired.bbt_share", ratio(d(sum.insnsBbtCode), all_retired),
         "ratio"},
        {"engine.retired.sbt_share", ratio(d(sum.insnsSbtCode), all_retired),
         "ratio"},
        {"engine.bbt.insns_translated", d(sum.bbtInsnsTranslated) / n_vms,
         "count"},
        {"engine.sbt.insns_translated", d(sum.sbtInsnsTranslated) / n_vms,
         "count"},
        {"workload.gen_ms", s.genS * 1e3, "ms"},
        {"setup.ref_interp_s", s.refInterpS, "s"},
        {"setup.prime_s", s.primeS, "s"},
        {"trace.overhead_ms", overhead_ms, "ms"},
    };

    // The summary carries what the benchmark's own test checks: the
    // replays against the VMs, program by program.
    std::string extra = "\n \"workload\": \"" +
                        std::string(workloadName(o.workload)) +
                        "\", \"seed\": " + std::to_string(o.seed) +
                        ", \"vms\": " + std::to_string(attempted) +
                        ", \"traced_vm_ms_p50\": " +
                        std::to_string(quantile(traced_ms, 0.5)) +
                        ", \"untraced_vm_ms_p50\": " +
                        std::to_string(quantile(untraced_ms, 0.5)) +
                        ", \"overhead_ms\": " + std::to_string(overhead_ms) +
                        ", \"decode_failures\": " +
                        std::to_string(rp.decodeFailures) +
                        ",\n \"programs\": [";
    for (int i = 0; i < pool; ++i) {
        const engine::EngineStats &f = first[static_cast<std::size_t>(i)];
        const std::size_t u = static_cast<std::size_t>(i);
        extra += std::string(i ? "," : "") + "\n  {\"vm_bbt_insns\": " +
                 std::to_string(f.bbtInsnsTranslated) +
                 ", \"replay_bbt_insns\": " +
                 std::to_string(rp.bbtReplayInsns[u]) +
                 ", \"prime_bbt_insns\": " +
                 std::to_string(rp.primeBbtInsns[u]) +
                 ", \"vm_warm_installed\": " +
                 std::to_string(f.warmInstalled) +
                 ", \"replay_warm_installed\": " +
                 std::to_string(rp.warmInstalled[u]) + "}";
    }
    extra += "]";
    if (!log.write(o.spansOut, extra)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     o.spansOut.c_str());
        return 1;
    }
    printResult(o, correct, attempted, failed, layers);
    return 0;
}
