/**
 * @file
 * Figure 9: breakeven points for individual traces.
 *
 * For each of the ten applications: the number of cycles VM.soft,
 * VM.be and VM.fe need to first catch back up with the reference
 * superscalar ("n/a (>window)" when the scheme does not break even
 * within the simulated trace, as the paper's Project bars show).
 */

#include "bench_common.hh"

using namespace cdvm;

int
main(int argc, char **argv)
{
    Cli cli("Figure 9: per-application breakeven points");
    u64 insns = bench::standardSetup(cli, argc, argv, 250'000'000);

    auto apps = workload::winstone2004(insns);

    auto ref = bench::runMachine(timing::MachineConfig::refSuperscalar(),
                                 apps);
    auto soft = bench::runMachine(bench::machine("vm.soft"), apps);
    auto be = bench::runMachine(bench::machine("vm.be"), apps);
    auto fe = bench::runMachine(bench::machine("vm.fe"), apps);

    auto fmt = [](double cycles) -> std::string {
        if (cycles < 0)
            return "n/a (>window)";
        return fmtDouble(cycles / 1e6, 1) + " M";
    };

    std::printf("=== Figure 9: breakeven points for individual traces "
                "===\n");
    std::printf("(%llu M x86 instructions per app; cycles to first "
                "catch up with Ref)\n\n",
                static_cast<unsigned long long>(insns / 1'000'000));

    TextTable t({"app", "VM.soft", "VM.be", "VM.fe", "steady gain"});
    for (std::size_t i = 0; i < apps.size(); ++i) {
        t.addRow({apps[i].name,
                  fmt(analysis::breakevenCycle(soft[i], ref[i])),
                  fmt(analysis::breakevenCycle(be[i], ref[i])),
                  fmt(analysis::breakevenCycle(fe[i], ref[i])),
                  fmtDouble(100.0 * apps[i].steadyGain, 0) + "%"});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("Paper shape: assists cut breakeven by an order of "
                "magnitude; the large-\n"
                "footprint apps (Access, Excel) are the VM.soft "
                "outliers; Project (only 3%%\n"
                "steady gain) takes the longest to break even for "
                "every scheme.\n");
    return 0;
}
