/**
 * @file
 * Shared plumbing for the figure/table benchmark harnesses: flag
 * handling, scaled default trace lengths, and machine x workload run
 * matrices.
 *
 * Every harness accepts --instructions (per-app dynamic length) and
 * honours the CDVM_SCALE environment variable; the defaults keep the
 * full suite within minutes while preserving curve shape. The paper's
 * own lengths are 100 M (accumulated statistics) and 500 M
 * (time-variation studies) -- pass --instructions 500000000 to match.
 */

#ifndef CDVM_BENCH_COMMON_HH
#define CDVM_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/startup_curve.hh"
#include "common/cli.hh"
#include "common/statreg.hh"
#include "common/table.hh"
#include "timing/startup_sim.hh"
#include "workload/winstone.hh"

namespace cdvm::bench
{

/**
 * Stat-name and JSON-key form of an engine spec: the spec grammar's
 * '+' separator becomes '_' ("soft+async2" -> "soft_async2"), since
 * StatRegistry names allow only [a-z0-9_.].
 */
inline std::string
statKey(std::string_view spec)
{
    std::string key(spec);
    for (char &c : key) {
        if (c == '+')
            c = '_';
    }
    return key;
}

/** Parse standard flags; returns the per-app instruction count. */
inline u64
standardSetup(Cli &cli, int argc, char **argv, u64 default_insns)
{
    cli.flag("instructions", std::to_string(default_insns),
             "dynamic x86 instructions per application trace");
    addObservabilityFlags(cli);
    cli.parse(argc, argv);
    applyObservabilityFlags(cli);
    double scaled = static_cast<double>(cli.num("instructions")) *
                    envScale();
    u64 n = static_cast<u64>(scaled);
    return n < 1'000'000 ? 1'000'000 : n;
}

/** The timing machine of an engine spec ("vm.soft", "tmpl", ...),
 *  optionally warm-booted from a translation image. */
inline timing::MachineConfig
machine(std::string_view spec, bool warm = false)
{
    return timing::MachineConfig::of(engine::EngineConfig::fromSpec(spec),
                                     warm);
}

/** Run one machine over every app; returns per-app results. */
inline std::vector<timing::StartupResult>
runMachine(const timing::MachineConfig &m,
           const std::vector<workload::AppProfile> &apps)
{
    std::vector<timing::StartupResult> out;
    out.reserve(apps.size());
    for (const workload::AppProfile &app : apps) {
        timing::StartupSim sim(m, app);
        out.push_back(sim.run());
        std::fprintf(stderr, "  [%s / %s] %.0fM cycles\n",
                     m.name.c_str(), app.name.c_str(),
                     static_cast<double>(out.back().totalCycles) / 1e6);
    }
    return out;
}

/**
 * Publish suite-aggregate startup metrics into the global stat
 * registry under prefix.* so CI can track the perf trajectory per PR
 * (--stats-json + dumpObservability writes them out):
 *
 *   prefix.apps                      applications in the suite
 *   prefix.cycles_to.insns_<N>      suite-mean cycles to the first
 *                                    1k/10k/.../100M instructions
 *   prefix.breakeven_cycles_mean    mean over apps that broke even
 *   prefix.apps_broke_even          how many did (given a reference)
 */
inline void
exportSuiteStartup(const std::string &prefix,
                   const std::vector<timing::StartupResult> &vm,
                   const std::vector<timing::StartupResult> *ref =
                       nullptr)
{
    StatRegistry &reg = StatRegistry::global();
    reg.set(prefix + ".apps", static_cast<double>(vm.size()),
            "applications in the suite");

    for (u64 n = 1000; n <= u64{100'000'000}; n *= 10) {
        double sum = 0.0;
        unsigned reached = 0;
        for (const timing::StartupResult &r : vm) {
            double c =
                analysis::cyclesToInsns(r, static_cast<double>(n));
            if (c >= 0.0) {
                sum += c;
                ++reached;
            }
        }
        if (reached == 0)
            break;
        std::string label = n >= 1'000'000
                                ? std::to_string(n / 1'000'000) + "m"
                                : std::to_string(n / 1000) + "k";
        reg.set(prefix + ".cycles_to.insns_" + label,
                sum / static_cast<double>(reached),
                "suite-mean cycles to reach this many instructions");
    }

    if (ref) {
        double sum = 0.0;
        unsigned broke = 0;
        for (std::size_t i = 0; i < vm.size() && i < ref->size(); ++i) {
            double b = analysis::breakevenCycle(vm[i], (*ref)[i]);
            if (b >= 0.0) {
                sum += b;
                ++broke;
            }
        }
        reg.set(prefix + ".breakeven_cycles_mean",
                broke ? sum / static_cast<double>(broke) : -1.0,
                "mean breakeven cycle over apps that broke even "
                "(negative: none did)");
        reg.set(prefix + ".apps_broke_even",
                static_cast<double>(broke),
                "apps whose cumulative insns caught the reference");
    }
}

} // namespace cdvm::bench

#endif // CDVM_BENCH_COMMON_HH
