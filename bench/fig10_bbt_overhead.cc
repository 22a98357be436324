/**
 * @file
 * Figure 10: BBT translation overhead and emulation cycle time for
 * the VM.be scheme (first 100 M x86 instructions per application).
 *
 * Per application: the percentage of VM cycles spent performing BBT
 * translation (paper average 2.7%, at worst ~5%) and executing BBT
 * translations (paper average 35%); plus the SBT translation (3.2%)
 * and SBT emulation (59%) shares and the hotspot coverage (63%).
 * Also prints the VM.soft BBT overhead for the Section 5.3 comparison
 * (9.9% -> 2.7%).
 */

#include "bench_common.hh"

using namespace cdvm;
using timing::CycleCat;

int
main(int argc, char **argv)
{
    Cli cli("Figure 10: BBT overhead and emulation time (VM.be)");
    u64 insns = bench::standardSetup(cli, argc, argv, 100'000'000);

    auto apps = workload::winstone2004(insns);
    auto be = bench::runMachine(bench::machine("vm.be"), apps);
    auto soft = bench::runMachine(bench::machine("vm.soft"), apps);

    std::printf("=== Figure 10: BBT translation overhead & emulation "
                "cycle time (VM.be, %llu M insns) ===\n\n",
                static_cast<unsigned long long>(insns / 1'000'000));

    TextTable t({"app", "BBT overhead %", "BBT emu %", "SBT xlate %",
                 "SBT emu %", "hotspot coverage %"});
    double sum[5] = {0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const timing::StartupResult &r = be[i];
        double v[5] = {100 * r.catFraction(CycleCat::BbtXlate),
                       100 * r.catFraction(CycleCat::BbtExec),
                       100 * r.catFraction(CycleCat::SbtXlate),
                       100 * r.catFraction(CycleCat::SbtExec),
                       100 * r.hotspotCoverage()};
        for (int k = 0; k < 5; ++k)
            sum[k] += v[k];
        t.addRow({apps[i].name, fmtDouble(v[0], 1), fmtDouble(v[1], 1),
                  fmtDouble(v[2], 1), fmtDouble(v[3], 1),
                  fmtDouble(v[4], 1)});
    }
    const double n = static_cast<double>(apps.size());
    t.addRow({"Average", fmtDouble(sum[0] / n, 1),
              fmtDouble(sum[1] / n, 1), fmtDouble(sum[2] / n, 1),
              fmtDouble(sum[3] / n, 1), fmtDouble(sum[4] / n, 1)});
    std::printf("%s\n", t.render().c_str());

    double soft_bbt = 0;
    for (const auto &r : soft)
        soft_bbt += 100 * r.catFraction(CycleCat::BbtXlate);
    soft_bbt /= n;

    std::printf("paper targets: BBT overhead avg 2.7%% (<=5%% worst); "
                "BBT emu avg 35%%;\n");
    std::printf("               SBT xlate 3.2%%; SBT emu 59%%; hotspot "
                "coverage 63%%\n\n");
    std::printf("VM.soft BBT translation overhead: %.1f%% of runtime "
                "(paper: 9.9%%)\n",
                soft_bbt);
    std::printf("VM.be reduces it to %.1f%% -- a %.1fx reduction "
                "(paper: 9.9%% -> 2.7%%)\n",
                sum[0] / n, soft_bbt / (sum[0] / n));
    return 0;
}
