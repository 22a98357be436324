/**
 * @file
 * Ablation: the hot-threshold trade-off of Section 3.2.
 *
 * The paper argues for a "balanced" threshold: too low and SBT
 * overhead explodes (everything lukewarm gets optimized); too high and
 * hotspot coverage -- hence steady-state benefit -- is lost. Sweeps
 * the threshold around the Eq. 2 value (8000) for VM.soft and VM.be.
 */

#include "bench_common.hh"

using namespace cdvm;
using timing::CycleCat;

int
main(int argc, char **argv)
{
    Cli cli("Ablation: hot threshold sweep");
    u64 insns = bench::standardSetup(cli, argc, argv, 100'000'000);

    workload::AppProfile avg = workload::winstoneAverage(insns);

    timing::StartupSim ref_sim(timing::MachineConfig::refSuperscalar(),
                               avg);
    timing::StartupResult ref = ref_sim.run();

    std::printf("=== Hot-threshold ablation (Winstone-average, %llu M "
                "insns) ===\n\n",
                static_cast<unsigned long long>(insns / 1'000'000));

    for (bool backend : {false, true}) {
        std::printf("--- %s ---\n", backend ? "VM.be" : "VM.soft");
        TextTable t({"threshold", "total cycles (M)", "SBT xlate %",
                     "coverage %", "M_SBT (K insns)",
                     "breakeven (M cyc)"});
        for (u64 thr : {1000ull, 2000ull, 4000ull, 8000ull, 16000ull,
                        64000ull}) {
            timing::MachineConfig m =
                backend ? bench::machine("vm.be")
                        : bench::machine("vm.soft");
            m.hotThreshold = thr;
            timing::StartupSim sim(m, avg);
            timing::StartupResult r = sim.run();
            double be = analysis::breakevenCycle(r, ref);
            t.addRow({fmtCount(thr),
                      fmtDouble(static_cast<double>(r.totalCycles) / 1e6,
                                1),
                      fmtDouble(100 * r.catFraction(CycleCat::SbtXlate),
                                1),
                      fmtDouble(100 * r.hotspotCoverage(), 1),
                      fmtDouble(r.staticInsnsSbt / 1000.0, 1),
                      be >= 0 ? fmtDouble(be / 1e6, 1) : "never"});
        }
        std::printf("%s\n", t.render().c_str());
    }
    std::printf("Eq. 2 predicts the balanced point at N = 8000 for "
                "Delta_SBT = 1200, p = 1.15.\n");
    return 0;
}
