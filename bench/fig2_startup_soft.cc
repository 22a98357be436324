/**
 * @file
 * Figure 2: VM startup performance compared with a conventional x86
 * processor -- software-only translation strategies.
 *
 * Reproduces the four curves of paper Fig. 2: the reference
 * superscalar, the co-designed VM with interpretation followed by SBT,
 * the co-designed VM with BBT followed by SBT (VM.soft), and the VM
 * steady-state line. y = aggregate IPC normalized to the reference
 * superscalar's end-of-run aggregate; x = cycles (log scale in the
 * paper; emitted here as log-spaced samples).
 */

#include "bench_common.hh"

using namespace cdvm;

int
main(int argc, char **argv)
{
    Cli cli("Figure 2: startup performance, software-only VM");
    u64 insns = bench::standardSetup(cli, argc, argv, 120'000'000);

    auto apps = workload::winstone2004(insns);

    auto ref = bench::runMachine(timing::MachineConfig::refSuperscalar(),
                                 apps);
    auto interp = bench::runMachine(bench::machine("vm.interp"), apps);
    auto soft = bench::runMachine(bench::machine("vm.soft"), apps);
    auto soft_tmpl = bench::runMachine(bench::machine("tmpl"), apps);
    auto soft_async = bench::runMachine(bench::machine("soft+async2"), apps);
    auto soft_warm = bench::runMachine(bench::machine("vm.soft", true), apps);

    // Normalize so the reference's end-of-run aggregate is 1.0, as in
    // the paper's plots.
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
    series.push_back(scale(
        analysis::averageNormalizedIpc(interp, "VM: Interp & SBT")));
    series.push_back(
        scale(analysis::averageNormalizedIpc(soft, "VM: BBT & SBT")));
    series.push_back(scale(analysis::averageNormalizedIpc(
        soft_tmpl, "VM: template BBT & SBT")));
    series.push_back(scale(analysis::averageNormalizedIpc(
        soft_async, "VM: BBT & async SBT")));
    series.push_back(scale(analysis::averageNormalizedIpc(
        soft_warm, "VM: warm-start BBT & SBT")));

    // The steady-state line (paper: +8% over the reference).
    double gain = 0.0;
    for (const auto &a : apps)
        gain += a.steadyGain;
    gain /= static_cast<double>(apps.size());
    Series steady;
    steady.name = "VM: steady state";
    steady.x = series[0].x;
    steady.y.assign(steady.x.size(), 1.0 + gain);
    series.push_back(steady);

    std::printf("=== Figure 2: VM startup performance vs conventional "
                "superscalar ===\n");
    std::printf("(10 Winstone2004-like apps, %llu M x86 instructions "
                "each, memory-startup scenario)\n\n",
                static_cast<unsigned long long>(insns / 1'000'000));
    std::printf("%s\n",
                renderSeries(series, "cycles",
                             "normalized aggregate IPC (x86)")
                    .c_str());

    // Headline checks against the paper.
    double r1m = 0, v1m = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        r1m += analysis::insnsAtCycle(ref[i], 1e6);
        v1m += analysis::insnsAtCycle(soft[i], 1e6);
    }
    std::printf("VM.soft / Ref instructions at the 1M-cycle point: "
                "%.2f   (paper: ~0.25)\n",
                v1m / r1m);

    double ref_done = 0, itp_at = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        double c = static_cast<double>(ref[i].totalCycles);
        ref_done += static_cast<double>(ref[i].totalInsns);
        itp_at += analysis::insnsAtCycle(interp[i], c);
    }
    std::printf("Interp&SBT aggregate vs Ref at Ref finish:     "
                "%.2f   (paper: ~0.5)\n",
                itp_at / ref_done);

    // Per-PR perf trajectory: suite aggregates for the CI artifact.
    bench::exportSuiteStartup("bench.fig2.ref", ref);
    bench::exportSuiteStartup("bench.fig2.vm_interp", interp, &ref);
    bench::exportSuiteStartup("bench.fig2.vm_soft", soft, &ref);
    bench::exportSuiteStartup("bench.fig2.vm_soft_tmpl", soft_tmpl,
                              &ref);
    bench::exportSuiteStartup("bench.fig2.vm_soft_async", soft_async,
                              &ref);
    bench::exportSuiteStartup("bench.fig2.vm_soft_warm", soft_warm,
                              &ref);
    dumpObservability();
    return 0;
}
