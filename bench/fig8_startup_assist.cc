/**
 * @file
 * Figure 8: startup performance comparison with hardware assists.
 *
 * Same axes as Fig. 2, adding the hardware-assisted machines:
 * Ref superscalar, VM.soft, VM.be (backend XLTx86), VM.fe (dual-mode
 * frontend decoders), and the VM steady-state line.
 */

#include "bench_common.hh"

using namespace cdvm;

int
main(int argc, char **argv)
{
    Cli cli("Figure 8: startup performance with hardware assists");
    u64 insns = bench::standardSetup(cli, argc, argv, 120'000'000);

    auto apps = workload::winstone2004(insns);

    auto ref = bench::runMachine(timing::MachineConfig::refSuperscalar(),
                                 apps);
    auto soft = bench::runMachine(bench::machine("vm.soft"), apps);
    auto soft_tmpl = bench::runMachine(bench::machine("tmpl"), apps);
    auto be = bench::runMachine(bench::machine("vm.be"), apps);
    auto be_async = bench::runMachine(bench::machine("vm.be+async2"), apps);
    auto be_warm = bench::runMachine(bench::machine("vm.be", true), apps);
    auto fe = bench::runMachine(bench::machine("vm.fe"), apps);

    double ref_final = 0.0;
    for (const auto &r : ref)
        ref_final += static_cast<double>(r.totalInsns) * r.cpiRef /
                     static_cast<double>(r.totalCycles);
    ref_final /= static_cast<double>(ref.size());

    auto scale = [&](Series s) {
        for (double &y : s.y)
            y /= ref_final;
        return s;
    };

    std::vector<Series> series;
    series.push_back(
        scale(analysis::averageNormalizedIpc(ref, "Ref: superscalar")));
    series.push_back(
        scale(analysis::averageNormalizedIpc(soft, "VM.soft")));
    series.push_back(scale(
        analysis::averageNormalizedIpc(soft_tmpl, "VM.soft.tmpl")));
    series.push_back(scale(analysis::averageNormalizedIpc(be, "VM.be")));
    series.push_back(scale(
        analysis::averageNormalizedIpc(be_async, "VM.be.async")));
    series.push_back(scale(
        analysis::averageNormalizedIpc(be_warm, "VM.be.warm")));
    series.push_back(scale(analysis::averageNormalizedIpc(fe, "VM.fe")));

    double gain = 0.0;
    for (const auto &a : apps)
        gain += a.steadyGain;
    gain /= static_cast<double>(apps.size());
    Series steady;
    steady.name = "VM.steady-state";
    steady.x = series[0].x;
    steady.y.assign(steady.x.size(), 1.0 + gain);
    series.push_back(steady);

    std::printf("=== Figure 8: startup performance comparison ===\n");
    std::printf("(10 Winstone2004-like apps, %llu M x86 instructions "
                "each)\n\n",
                static_cast<unsigned long long>(insns / 1'000'000));
    std::printf("%s\n",
                renderSeries(series, "cycles",
                             "normalized aggregate IPC (x86)")
                    .c_str());

    // Suite-average breakeven and half-gain summaries.
    auto summarize = [&](const char *name,
                         const std::vector<timing::StartupResult> &vm) {
        double be_sum = 0, hg_sum = 0;
        int be_n = 0, hg_n = 0, never = 0;
        for (std::size_t i = 0; i < vm.size(); ++i) {
            double b = analysis::breakevenCycle(vm[i], ref[i]);
            if (b >= 0) {
                be_sum += b;
                ++be_n;
            } else {
                ++never;
            }
            double h = analysis::halfGainCycle(vm[i],
                                               vm[i].steadyGain);
            if (h >= 0) {
                hg_sum += h;
                ++hg_n;
            }
        }
        std::printf("%-8s breakeven: %s cycles (%d/%zu apps broke "
                    "even)\n",
                    name,
                    be_n ? fmtCount(static_cast<unsigned long long>(
                                be_sum / be_n))
                               .c_str()
                         : "n/a",
                    be_n, vm.size());
    };
    std::printf("--- suite summaries ---\n");
    summarize("VM.soft", soft);
    summarize("VM.soft.tmpl", soft_tmpl);
    summarize("VM.be", be);
    summarize("VM.be.async", be_async);
    summarize("VM.be.warm", be_warm);
    summarize("VM.fe", fe);
    std::printf("(paper: VM.fe ~zero startup overhead; VM.be breakeven "
                "~10M cycles;\n VM.soft breakeven beyond 200M cycles)\n");

    // Per-PR perf trajectory: suite aggregates for the CI artifact.
    bench::exportSuiteStartup("bench.fig8.ref", ref);
    bench::exportSuiteStartup("bench.fig8.vm_soft", soft, &ref);
    bench::exportSuiteStartup("bench.fig8.vm_soft_tmpl", soft_tmpl,
                              &ref);
    bench::exportSuiteStartup("bench.fig8.vm_be", be, &ref);
    bench::exportSuiteStartup("bench.fig8.vm_be_async", be_async, &ref);
    bench::exportSuiteStartup("bench.fig8.vm_be_warm", be_warm, &ref);
    bench::exportSuiteStartup("bench.fig8.vm_fe", fe, &ref);
    dumpObservability();
    return 0;
}
