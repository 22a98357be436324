/**
 * @file
 * Figure 11: activity of the hardware x86 decode logic over time.
 *
 * Cumulative percentage of cycles the x86 decoding hardware must be
 * powered on, for the four machine configurations:
 *   - Ref superscalar: decoders always on (100%);
 *   - VM.soft: no hardware x86 decoders (0%);
 *   - VM.be: one XLTx86 decoder, busy only during the HAloop -- its
 *     activity decays quickly after the first ~10K cycles;
 *   - VM.fe: dual-mode frontend decoders on while not executing
 *     optimized hotspot code -- decays later than VM.be.
 */

#include "bench_common.hh"

using namespace cdvm;

int
main(int argc, char **argv)
{
    Cli cli("Figure 11: hardware-assist decode activity");
    u64 insns = bench::standardSetup(cli, argc, argv, 120'000'000);

    auto apps = workload::winstone2004(insns);

    auto ref = bench::runMachine(timing::MachineConfig::refSuperscalar(),
                                 apps);
    auto soft = bench::runMachine(bench::machine("vm.soft"), apps);
    auto be = bench::runMachine(bench::machine("vm.be"), apps);
    auto fe = bench::runMachine(bench::machine("vm.fe"), apps);

    std::vector<Series> series;
    series.push_back(
        analysis::averageDecodeActivity(ref, "Superscalar"));
    series.push_back(analysis::averageDecodeActivity(soft, "VM.soft"));
    series.push_back(analysis::averageDecodeActivity(be, "VM.be"));
    series.push_back(analysis::averageDecodeActivity(fe, "VM.fe"));

    std::printf("=== Figure 11: activity of HW assists (x86 decode "
                "logic) ===\n");
    std::printf("(cumulative %% of cycles the decode logic is powered "
                "on; %llu M insns/app)\n\n",
                static_cast<unsigned long long>(insns / 1'000'000));
    std::printf("%s\n",
                renderSeries(series, "cycles", "decode activity (%)")
                    .c_str());

    auto final_act = [](const std::vector<timing::StartupResult> &v) {
        double a = 0;
        for (const auto &r : v)
            a += 100.0 * r.decodeActiveCycles /
                 static_cast<double>(r.totalCycles);
        return a / static_cast<double>(v.size());
    };
    std::printf("end-of-run activity: Superscalar %.1f%%  VM.soft "
                "%.1f%%  VM.be %.2f%%  VM.fe %.1f%%\n",
                final_act(ref), final_act(soft), final_act(be),
                final_act(fe));
    std::printf("(paper: superscalar always on; VM.be negligible after "
                "100M cycles;\n VM.fe decays too, but later than "
                "VM.be)\n");
    return 0;
}
