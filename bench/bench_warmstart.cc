/**
 * @file
 * Warm-start benchmark: cold vs warm startup of the software-only VM.
 *
 * The persistent translation image (dbt/image) lets a VM start
 * with every basic-block translation already installed, paying a small
 * up-front load cost instead of Delta_BBT on every first touch. This
 * harness quantifies the win on the startup metric the paper uses --
 * cycles to reach the first N instructions -- by running VM.soft and
 * VM.be cold and warm over the Winstone-like suite.
 *
 * The binary self-gates: it exits non-zero unless a warm start is
 * strictly faster to the 1M-instruction milestone than the matching
 * cold start (CI asserts on this and folds the deltas into
 * BENCH_startup.json).
 *
 * A second, host-side section measures the load path itself against
 * the work it replaces: installing the captured translations from the
 * zero-copy mapped image (borrowed views + one flat relocation pass)
 * versus software-BBT translating the same captured basic blocks from
 * guest code. Over interleaved rounds it gates on the median ratio:
 * the mapped install must cost at most half as much per instruction,
 * with zero per-record body copies. The same rounds time the whole
 * load a warm-booting VM pays -- mapping and verifying the saved image
 * file, then installing it -- and gate that at the same bound. It
 * exports bench.warmstart.image.* (load_ratio_vs_translate and
 * load_verify_ratio_vs_translate are the gated metrics).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "bench_common.hh"
#include "dbt/bbt.hh"
#include "dbt/image.hh"
#include "engine/warm_start.hh"
#include "vmm/vmm.hh"
#include "workload/program_gen.hh"

using namespace cdvm;

namespace
{

/** Suite-mean cycles to reach insn_goal (apps that reached it). */
double
meanCyclesTo(const std::vector<timing::StartupResult> &rs,
             double insn_goal)
{
    double sum = 0.0;
    unsigned n = 0;
    for (const timing::StartupResult &r : rs) {
        double c = analysis::cyclesToInsns(r, insn_goal);
        if (c >= 0.0) {
            sum += c;
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : -1.0;
}

/** Wall-clock nanoseconds of one call. */
template <typename Fn>
double
timeNs(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

/** Median of a sample (by value: sorts its copy). */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One round's zero-copy install of the whole image into fresh
 *  engine structures (built outside the timed region). */
struct MappedRound
{
    double ns = 0.0;
    engine::WarmStartReport report;
};

MappedRound
timeMappedInstall(const workload::Program &prog,
                  const dbt::TransImage &img)
{
    x86::Memory mem;
    prog.loadInto(mem);
    engine::EngineConfig cfg = engine::EngineConfig::vmSoft();
    engine::EngineStats stats;
    engine::EventStream events;
    engine::BranchProfile prof;
    engine::CodeCacheManager ccm(mem, cfg, stats, events);

    MappedRound r;
    r.ns = timeNs([&] {
        r.report = engine::warmStartInstall(img, mem, ccm, prof);
    });
    return r;
}

/** One round's load of the saved image file (map + whole-image
 *  verify) and install of it, into fresh engine structures: what a
 *  VM booting from the file pays. */
struct LoadedRound
{
    double ns = 0.0;       //!< load + install
    double verifyNs = 0.0; //!< TransImage::load alone
    bool loaded = false;
    engine::WarmStartReport report;
};

LoadedRound
timeLoadedInstall(const workload::Program &prog, const std::string &path)
{
    dbt::TransImage img; // outlives the views the install binds
    x86::Memory mem;
    prog.loadInto(mem);
    engine::EngineConfig cfg = engine::EngineConfig::vmSoft();
    engine::EngineStats stats;
    engine::EventStream events;
    engine::BranchProfile prof;
    engine::CodeCacheManager ccm(mem, cfg, stats, events);

    LoadedRound r;
    r.ns = timeNs([&] {
        r.verifyNs = timeNs([&] {
            r.loaded = dbt::TransImage::load(path, img) ==
                       dbt::LoadError::None;
        });
        if (r.loaded)
            r.report = engine::warmStartInstall(img, mem, ccm, prof);
    });
    return r;
}

/** One round's software-BBT translation of every captured basic
 *  block. @return ns; insns receives the x86 instructions translated. */
double
timeTranslate(const workload::Program &prog,
              const std::vector<Addr> &entries, unsigned max_block,
              u64 &insns)
{
    x86::Memory mem;
    prog.loadInto(mem);
    dbt::BasicBlockTranslator bbt(mem, max_block);
    insns = 0;
    return timeNs([&] {
        for (Addr pc : entries) {
            if (std::unique_ptr<dbt::Translation> t = bbt.translate(pc))
                insns += t->numX86Insns;
        }
    });
}

/**
 * Mapped-install vs software-BBT microbenchmark over one primed
 * workload: the host cost per instruction of installing the image's
 * records zero-copy, against translating the same captured basic
 * blocks from guest code with the software BBT -- the Delta_BBT a
 * warm start skips. Rounds are interleaved (the order alternates, so
 * neither side systematically sees a warmer host), and the gate is on
 * the median per-round ratio. The same rounds also time loading the
 * saved image file (map + whole-image verify) plus the install, which
 * is what a VM booting from the file pays, gated at the same ratio.
 * @return true when the gates hold (both median ratios >= min_ratio,
 *         zero body copies, the whole image installed on both paths,
 *         and the BBT re-translating exactly the captured blocks).
 */
bool
imageLoadMicrobench(double min_ratio, int rounds)
{
    // Prime: run one VM long enough that BBT and SBT translations
    // both exist, then capture them -- the production persist path.
    workload::ProgramParams pp;
    pp.seed = 7;
    const workload::Program prog = workload::generateProgram(pp);
    x86::Memory pmem;
    prog.loadInto(pmem);
    vmm::VmmConfig vcfg = engine::EngineConfig::vmSoft();
    vcfg.hotThreshold = 30;
    vmm::Vmm vm(pmem, vcfg);
    x86::CpuState cpu = prog.initialState();
    vm.run(cpu, 10'000'000);
    const dbt::Repository repo = vm.captureWarmStart();

    std::vector<Addr> blocks;
    u64 captured_block_insns = 0;
    for (const dbt::SavedTranslation &e : repo.entries) {
        if (e.kind == dbt::TransKind::BasicBlock) {
            blocks.push_back(e.entryPc);
            captured_block_insns += e.numX86Insns;
        }
    }

    dbt::ImageBuilder builder(dbt::ImageBuilder::Options{0, 1});
    builder.add(repo);
    const std::vector<u8> blob = builder.build();
    dbt::TransImage img;
    if (dbt::TransImage::adopt(blob, img) != dbt::LoadError::None) {
        std::printf("image: built blob failed verification\n");
        return false;
    }
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("cdvm-warmstart-" + std::to_string(::getpid()) + ".cdvmimg"))
            .string();
    if (!dbt::TransImage::save(path, blob)) {
        std::printf("image: cannot save %s\n", path.c_str());
        return false;
    }

    // One untimed warm-up of each side, then interleaved rounds: the
    // mapped install and the translation alternate order, with the
    // file load between them.
    u64 translated = 0;
    MappedRound mapped = timeMappedInstall(prog, img);
    LoadedRound loaded = timeLoadedInstall(prog, path);
    timeTranslate(prog, blocks, vcfg.maxBlockInsns, translated);
    std::vector<double> mapped_ns, translate_ns, ratios;
    std::vector<double> loaded_ns, verify_ns, load_ratios;
    bool all_loaded = true;
    for (int r = 0; r < rounds; ++r) {
        double m = 0.0, t = 0.0;
        if (r % 2 == 0) {
            mapped = timeMappedInstall(prog, img);
            m = mapped.ns;
            loaded = timeLoadedInstall(prog, path);
            t = timeTranslate(prog, blocks, vcfg.maxBlockInsns,
                              translated);
        } else {
            t = timeTranslate(prog, blocks, vcfg.maxBlockInsns,
                              translated);
            loaded = timeLoadedInstall(prog, path);
            mapped = timeMappedInstall(prog, img);
            m = mapped.ns;
        }
        all_loaded = all_loaded && loaded.loaded;
        const double m_per = mapped.report.installedInsns
                                 ? m / static_cast<double>(
                                           mapped.report.installedInsns)
                                 : 0.0;
        const double t_per =
            translated ? t / static_cast<double>(translated) : 0.0;
        mapped_ns.push_back(m_per);
        translate_ns.push_back(t_per);
        ratios.push_back(m_per > 0.0 ? t_per / m_per : 0.0);

        const double l_insns =
            static_cast<double>(loaded.report.installedInsns);
        const double l_per = l_insns ? loaded.ns / l_insns : 0.0;
        loaded_ns.push_back(l_per);
        verify_ns.push_back(l_insns ? loaded.verifyNs / l_insns : 0.0);
        load_ratios.push_back(l_per > 0.0 ? t_per / l_per : 0.0);
    }
    std::remove(path.c_str());
    const double mapped_med = median(mapped_ns);
    const double translate_med = median(translate_ns);
    const double ratio = median(ratios);
    std::vector<double> sorted = ratios;
    std::sort(sorted.begin(), sorted.end());
    const double loaded_med = median(loaded_ns);
    const double verify_med = median(verify_ns);
    const double load_ratio = median(load_ratios);
    std::vector<double> load_sorted = load_ratios;
    std::sort(load_sorted.begin(), load_sorted.end());

    std::printf("\n=== Load path: zero-copy mapped install vs software "
                "BBT of the same blocks ===\n");
    std::printf("%llu records (%zu basic blocks), %zu-byte image, "
                "median of %d interleaved rounds\n",
                static_cast<unsigned long long>(img.recordCount()),
                blocks.size(), blob.size(), rounds);
    std::printf("software BBT translate: %.1f ns/insn (%llu insns)\n",
                translate_med,
                static_cast<unsigned long long>(translated));
    std::printf("mapped   zero-copy:     %.1f ns/insn "
                "(%llu body copies, %llu relocations, %llu bytes "
                "mapped)\n",
                mapped_med,
                static_cast<unsigned long long>(
                    mapped.report.bodyCopies),
                static_cast<unsigned long long>(
                    mapped.report.relocations),
                static_cast<unsigned long long>(
                    mapped.report.mappedBytes));
    std::printf("load ratio vs translate: median %.2fx (min %.2fx, "
                "max %.2fx)\n",
                ratio, sorted.front(), sorted.back());
    std::printf("file load + install:    %.1f ns/insn (map + verify "
                "%.1f ns/insn)\n",
                loaded_med, verify_med);
    std::printf("load+verify ratio vs translate: median %.2fx (min "
                "%.2fx, max %.2fx)\n",
                load_ratio, load_sorted.front(), load_sorted.back());

    bool ok = true;
    if (mapped.report.bodyCopies != 0 || loaded.report.bodyCopies != 0) {
        std::printf("  GATE FAILED: mapped install must perform zero "
                    "per-record body copies\n");
        ok = false;
    }
    if (!all_loaded) {
        std::printf("  GATE FAILED: the saved image file must load\n");
        ok = false;
    }
    if (mapped.report.installed != img.recordCount() ||
        mapped.report.invalidated != 0 ||
        loaded.report.installed != img.recordCount() ||
        loaded.report.invalidated != 0) {
        std::printf("  GATE FAILED: the whole image must install "
                    "against its own guest memory\n");
        ok = false;
    }
    if (translated != captured_block_insns) {
        std::printf("  GATE FAILED: the BBT must re-translate exactly "
                    "the captured blocks (%llu vs %llu insns)\n",
                    static_cast<unsigned long long>(translated),
                    static_cast<unsigned long long>(
                        captured_block_insns));
        ok = false;
    }
    if (!(ratio >= min_ratio)) {
        std::printf("  GATE FAILED: mapped install must be, in the "
                    "median, at least %.1fx cheaper per instruction "
                    "than software-BBT translation\n",
                    min_ratio);
        ok = false;
    }
    if (!(load_ratio >= min_ratio)) {
        std::printf("  GATE FAILED: loading (map + verify) and "
                    "installing the image file must be, in the median, "
                    "at least %.1fx cheaper per instruction than "
                    "software-BBT translation\n",
                    min_ratio);
        ok = false;
    }

    StatRegistry &reg = StatRegistry::global();
    reg.set("bench.warmstart.image.records",
            static_cast<double>(mapped.report.installed),
            "translations installed from the mapped image");
    reg.set("bench.warmstart.image.installed_insns",
            static_cast<double>(mapped.report.installedInsns),
            "x86 instructions covered by the mapped install");
    reg.set("bench.warmstart.image.invalidated",
            static_cast<double>(mapped.report.invalidated),
            "records rejected against current guest memory");
    reg.set("bench.warmstart.image.body_copies",
            static_cast<double>(mapped.report.bodyCopies),
            "per-record body copies on the mapped path (gated == 0)");
    reg.set("bench.warmstart.image.relocations",
            static_cast<double>(mapped.report.relocations),
            "chain links re-bound in the flat relocation pass");
    reg.set("bench.warmstart.image.mapped_bytes",
            static_cast<double>(mapped.report.mappedBytes),
            "bytes of shared image backing the installed views");
    reg.set("bench.warmstart.image.blob_bytes",
            static_cast<double>(blob.size()),
            "size of the built image file");
    reg.set("bench.warmstart.image.dedupe_hits",
            static_cast<double>(builder.dedupeHits()),
            "records merged by content address at build time");
    reg.set("bench.warmstart.image.evicted",
            static_cast<double>(builder.evicted()),
            "records dropped by the hotness-ranked size budget");
    reg.set("bench.warmstart.image.translate_ns_per_insn", translate_med,
            "median software-BBT translate wall time per insn");
    reg.set("bench.warmstart.image.mapped_ns_per_insn", mapped_med,
            "median zero-copy mapped-install wall time per insn");
    reg.set("bench.warmstart.image.load_ratio_vs_translate", ratio,
            "median per-round translate / mapped-install time per "
            "insn (gated >= 2)");
    reg.set("bench.warmstart.image.verify_ns_per_insn", verify_med,
            "median TransImage::load (map + whole-image verify) wall "
            "time per installed insn");
    reg.set("bench.warmstart.image.load_verify_ratio_vs_translate",
            load_ratio,
            "median per-round translate / (file load + install) time "
            "per insn (gated >= 2)");
    reg.set("bench.warmstart.image.rounds", static_cast<double>(rounds),
            "interleaved timing rounds behind the medians");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("Warm-start benchmark: cold vs image-warmed VM startup "
            "(cycles to the first 1M instructions)");
    u64 insns = bench::standardSetup(cli, argc, argv, 20'000'000);

    auto apps = workload::winstone2004(insns);

    auto soft = bench::runMachine(bench::machine("vm.soft"), apps);
    auto soft_warm = bench::runMachine(bench::machine("vm.soft", true), apps);
    auto be = bench::runMachine(bench::machine("vm.be"), apps);
    auto be_warm = bench::runMachine(bench::machine("vm.be", true), apps);

    std::printf("=== Warm start: cold vs persistent-image "
                "startup ===\n");
    std::printf("(10 Winstone2004-like apps, %llu M x86 instructions "
                "each)\n\n",
                static_cast<unsigned long long>(insns / 1'000'000));

    bool ok = true;
    auto report = [&](const char *name,
                      const std::vector<timing::StartupResult> &cold,
                      const std::vector<timing::StartupResult> &warm) {
        const double c1m = meanCyclesTo(cold, 1e6);
        const double w1m = meanCyclesTo(warm, 1e6);
        std::printf("%-8s cycles to 1M insns: cold %s, warm %s "
                    "(%.2fx faster)\n",
                    name,
                    fmtCount(static_cast<unsigned long long>(c1m))
                        .c_str(),
                    fmtCount(static_cast<unsigned long long>(w1m))
                        .c_str(),
                    w1m > 0.0 ? c1m / w1m : 0.0);
        if (!(c1m > 0.0 && w1m > 0.0 && w1m < c1m)) {
            std::printf("  GATE FAILED: warm start must be strictly "
                        "faster to 1M instructions\n");
            ok = false;
        }
    };
    report("VM.soft", soft, soft_warm);
    report("VM.be", be, be_warm);

    double warm_static = 0.0, warm_load_cyc = 0.0;
    for (const timing::StartupResult &r : soft_warm) {
        warm_static += static_cast<double>(r.staticInsnsWarm);
        warm_load_cyc += r.catCycles[static_cast<size_t>(
            timing::CycleCat::WarmLoad)];
    }
    std::printf("\nVM.soft warm install: %.0f static insns/app, "
                "%.0f up-front load cycles/app\n",
                warm_static / static_cast<double>(soft_warm.size()),
                warm_load_cyc / static_cast<double>(soft_warm.size()));

    // Host-side load-path microbenchmark and its own gates: zero-copy
    // mapped installs must cost, in the median, at most half of what
    // software-BBT translation of the same blocks costs.
    if (!imageLoadMicrobench(2.0, 21))
        ok = false;

    // Per-PR perf trajectory: suite aggregates for the CI artifact.
    bench::exportSuiteStartup("bench.warmstart.vm_soft", soft);
    bench::exportSuiteStartup("bench.warmstart.vm_soft_warm", soft_warm,
                              &soft);
    bench::exportSuiteStartup("bench.warmstart.vm_be", be);
    bench::exportSuiteStartup("bench.warmstart.vm_be_warm", be_warm,
                              &be);
    dumpObservability();
    return ok ? 0 : 1;
}
