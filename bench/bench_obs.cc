/**
 * @file
 * Observability overhead benchmark: what does default-on continuous
 * profiling (the sampling profiler plus stores into the Vmm's event
 * ring) cost in host guest-MIPS, and what latency does the async SBT
 * pipeline actually see?
 *
 * The overhead gate runs the cold-heavy workload (vm.interp with the
 * hot threshold out of reach -- the worst case for per-event sink
 * cost, since every block is a separate small event) with profiling
 * fully off versus the default-on configuration, interleaving N
 * off/on trials so host noise cannot fake a regression. Each off/on
 * pair gives one overhead figure; the report carries their median
 * and interquartile range. The gate metric is the most favorable
 * pair's overhead (a real cost shifts every pair, a noise spike only
 * some). CI asserts the default-on cost stays under
 * GATE_MAX_OVERHEAD.
 *
 * The latency section runs the async pipeline (soft+async2) and
 * reports the p50/p95/p99 of enqueue->install, from the engine's own
 * LogHistograms.
 *
 *   $ ./build/bench/bench_obs --json=BENCH_obs.json \
 *         --profile-out=profile.json --flight-dump=flight.txt
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "vmm/vmm.hh"
#include "workload/program_gen.hh"

using namespace cdvm;

namespace
{

/** Default-on profiling must cost less than this on cold-heavy. */
constexpr double GATE_MAX_OVERHEAD = 0.02;

struct RunStat
{
    double seconds = 0.0;
    u64 retired = 0;
    double mips = 0.0;
};

workload::Program
mixProgram()
{
    // Same standard mix as bench_host_mips: calls, loops, indirect
    // branches, byte/16-bit traffic and guarded divides.
    workload::ProgramParams pp;
    pp.seed = 20260807;
    pp.numFuncs = 8;
    pp.blocksPerFunc = 5;
    pp.insnsPerBlock = 8;
    pp.mainIterations = 1000000; // effectively: run until the budget
    return workload::generateProgram(pp);
}

/** Turn the continuous-profiling layers fully off. */
vmm::VmmConfig
obsOff(vmm::VmmConfig cfg)
{
    cfg.profileSamplePeriod = 0;
    cfg.flightRecorderEvents = 0;
    return cfg;
}

/** Emulate `insns` guest instructions under cfg; time the host. */
RunStat
measure(const vmm::VmmConfig &cfg, const workload::Program &prog,
        u64 insns)
{
    x86::Memory mem;
    prog.loadInto(mem);
    vmm::Vmm vm(mem, cfg);
    x86::CpuState cpu = prog.initialState();

    const auto t0 = std::chrono::steady_clock::now();
    u64 done = 0;
    while (done < insns) {
        x86::Exit e = vm.run(cpu, insns - done);
        done = vm.stats().totalRetired();
        if (e == x86::Exit::Halted) {
            cpu = prog.initialState();
        } else if (e != x86::Exit::None) {
            std::fprintf(stderr, "unexpected exit %d under %s\n",
                         static_cast<int>(e), cfg.name.c_str());
            std::exit(1);
        }
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;

    RunStat r;
    r.seconds = dt.count();
    r.retired = done;
    r.mips = r.seconds > 0.0
                 ? static_cast<double>(done) / r.seconds / 1e6
                 : 0.0;
    return r;
}

/**
 * Interleaved trials: off/on alternate within each trial, so a host
 * frequency drift hits both modes equally instead of biasing
 * whichever mode ran last.
 *
 * @return the overhead of each off/on pair (off MIPS / on MIPS - 1),
 * in trial order; best_off/best_on receive the fastest run of each
 * mode.
 */
std::vector<double>
measureInterleaved(const vmm::VmmConfig &cfg,
                   const workload::Program &prog, u64 insns,
                   unsigned trials, RunStat &best_off, RunStat &best_on)
{
    const vmm::VmmConfig off = obsOff(cfg);
    std::vector<double> overheads;
    for (unsigned t = 0; t < trials; ++t) {
        RunStat ro = measure(off, prog, insns);
        if (ro.mips > best_off.mips)
            best_off = ro;
        RunStat rn = measure(cfg, prog, insns);
        if (rn.mips > best_on.mips)
            best_on = rn;
        overheads.push_back(rn.mips > 0.0 ? ro.mips / rn.mips - 1.0
                                          : 0.0);
    }
    return overheads;
}

/** Linearly interpolated q-quantile (0 <= q <= 1) of a sorted vector. */
double
quantile(const std::vector<double> &sorted, double q)
{
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) *
                            (sorted[hi] - sorted[lo]);
}

void
jsonHist(std::FILE *f, const char *key, const LogHistogram &h)
{
    std::fprintf(f,
                 "    \"%s\": {\"count\": %.0f, \"p50\": %.0f, "
                 "\"p95\": %.0f, \"p99\": %.0f}",
                 key, h.totalWeight(), h.percentile(50),
                 h.percentile(95), h.percentile(99));
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("Continuous-profiling overhead (default-on sampling "
            "profiler and event ring vs fully off) and async-SBT "
            "pipeline latency percentiles; writes a JSON report for "
            "the CI perf-smoke gate.");
    cli.flag("json", "BENCH_obs.json", "output report path");
    cli.flag("trials", "5", "interleaved off/on pairs per point");
    cli.flag("profile-out", "",
             "write the hotness heatmap of the vm.soft run here");
    cli.flag("flight-dump", "",
             "write the flight-recorder dump of the vm.soft run here");
    u64 insns = bench::standardSetup(cli, argc, argv, 3'000'000);
    const unsigned trials =
        static_cast<unsigned>(std::max<i64>(1, cli.num("trials")));

    workload::Program prog = mixProgram();

    // The overhead matrix: cold-heavy is the gate (every block entry
    // is its own event -- maximum sink calls per retired instruction);
    // vm.soft shows the steady-state cost once translations cover the
    // working set.
    struct Point
    {
        std::string key;
        vmm::VmmConfig cfg;
        bool gate;
    };
    std::vector<Point> points;
    {
        vmm::VmmConfig cold = engine::EngineConfig::vmInterp();
        cold.name = "vm.interp.coldheavy";
        cold.interpHotThreshold = u64{1} << 40;
        points.push_back({"coldheavy", cold, true});
        points.push_back(
            {"vm.soft", engine::EngineConfig::vmSoft(), false});
    }

    std::FILE *f = std::fopen(cli.str("json").c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n",
                     cli.str("json").c_str());
        return 1;
    }
    std::fprintf(
        f, "{\n  \"instructions\": %llu,\n  \"trials\": %u,\n"
           "  \"overhead\": {\n",
        static_cast<unsigned long long>(insns), trials);

    StatRegistry &reg = StatRegistry::global();
    double gate_overhead = 0.0;
    bool first = true;
    for (const Point &p : points) {
        const std::string key = bench::statKey(p.key);
        RunStat off, on;
        std::vector<double> pairs =
            measureInterleaved(p.cfg, prog, insns, trials, off, on);
        std::sort(pairs.begin(), pairs.end());
        const double min_overhead = pairs.front();
        const double median = quantile(pairs, 0.5);
        const double iqr = quantile(pairs, 0.75) - quantile(pairs, 0.25);
        std::printf("[%-12s] best off: %8.2f MIPS  best on: %8.2f MIPS  "
                    "overhead: median %+.2f%% (IQR %.2f%%, best pair "
                    "%+.2f%%)\n",
                    p.key.c_str(), off.mips, on.mips, 100.0 * median,
                    100.0 * iqr, 100.0 * min_overhead);
        if (p.gate)
            gate_overhead = min_overhead;

        std::fprintf(f,
                     "%s    \"%s\": {\"mips_off\": %.3f, "
                     "\"mips_on\": %.3f, \"overhead_median\": %.5f, "
                     "\"overhead_iqr\": %.5f, \"overhead_min\": %.5f}",
                     first ? "" : ",\n", key.c_str(), off.mips,
                     on.mips, median, iqr, min_overhead);
        first = false;

        reg.set("bench.obs." + key + ".mips_off", off.mips,
                "host guest-MIPS, profiling layers off (best trial)");
        reg.set("bench.obs." + key + ".mips_on", on.mips,
                "host guest-MIPS, default-on profiling (best trial)");
        reg.set("bench.obs." + key + ".overhead_median", median,
                "median per-pair cost of default-on profiling");
        reg.set("bench.obs." + key + ".overhead_iqr", iqr,
                "interquartile range of the per-pair cost");
        reg.set("bench.obs." + key + ".overhead_min", min_overhead,
                "most favorable interleaved pair (gate metric)");
    }
    std::fprintf(f, "\n  },\n");

    // Async pipeline latency: one profiled soft+async2 run, then
    // read the per-job histograms the drain path populated.
    {
        vmm::VmmConfig acfg = engine::EngineConfig::fromSpec("soft+async2");
        x86::Memory mem;
        prog.loadInto(mem);
        vmm::Vmm vm(mem, acfg);
        x86::CpuState cpu = prog.initialState();
        u64 done = 0;
        while (done < insns) {
            x86::Exit e = vm.run(cpu, insns - done);
            done = vm.stats().totalRetired();
            if (e == x86::Exit::Halted)
                cpu = prog.initialState();
            else if (e != x86::Exit::None)
                break;
        }
        const engine::AsyncSbtEngine *async = vm.asyncSbtEngine();
        std::fprintf(f, "  \"async_latency_ns\": {\n");
        jsonHist(f, "queue", async->queueLatency());
        std::fprintf(f, ",\n");
        jsonHist(f, "optimize", async->optimizeLatency());
        std::fprintf(f, ",\n");
        jsonHist(f, "drain", async->drainLatency());
        std::fprintf(f, ",\n");
        jsonHist(f, "total", async->totalLatency());
        std::fprintf(f, "\n  },\n");
        std::printf("[async       ] %0.f jobs drained, total latency "
                    "p50 %.0f ns, p99 %.0f ns\n",
                    async->totalLatency().totalWeight(),
                    async->totalLatency().percentile(50),
                    async->totalLatency().percentile(99));
        reg.set("bench.obs.async.total_p50_ns",
                async->totalLatency().percentile(50),
                "async SBT enqueue->install p50 (ns)");
        reg.set("bench.obs.async.total_p99_ns",
                async->totalLatency().percentile(99),
                "async SBT enqueue->install p99 (ns)");
    }

    // Artifact run: one vm.soft run with everything on, exporting the
    // heatmap and the flight dump for CI to archive.
    if (!cli.str("profile-out").empty() ||
        !cli.str("flight-dump").empty()) {
        vmm::VmmConfig scfg = engine::EngineConfig::vmSoft();
        x86::Memory mem;
        prog.loadInto(mem);
        vmm::Vmm vm(mem, scfg);
        x86::CpuState cpu = prog.initialState();
        u64 done = 0;
        while (done < insns) {
            x86::Exit e = vm.run(cpu, insns - done);
            done = vm.stats().totalRetired();
            if (e == x86::Exit::Halted)
                cpu = prog.initialState();
            else if (e != x86::Exit::None)
                break;
        }
        if (!cli.str("profile-out").empty()) {
            vm.profiler().writeJson(cli.str("profile-out"));
            std::printf("wrote %s (%llu samples over %zu pages)\n",
                        cli.str("profile-out").c_str(),
                        static_cast<unsigned long long>(
                            vm.profiler().samples()),
                        vm.profiler().distinctPages());
        }
        if (!cli.str("flight-dump").empty()) {
            vm.dumpFlight(cli.str("flight-dump"));
            std::printf("wrote %s (%zu events)\n",
                        cli.str("flight-dump").c_str(),
                        vm.timeline().ring().size());
        }
    }

    std::fprintf(f,
                 "  \"gate\": {\"workload\": \"coldheavy\", "
                 "\"overhead\": %.5f, \"threshold\": %.2f}\n}\n",
                 gate_overhead, GATE_MAX_OVERHEAD);
    std::fclose(f);
    dumpObservability();

    if (gate_overhead >= GATE_MAX_OVERHEAD) {
        std::fprintf(stderr,
                     "FAIL: default-on profiling costs %.2f%% >= "
                     "%.2f%% on the cold-heavy workload\n",
                     100.0 * gate_overhead, 100.0 * GATE_MAX_OVERHEAD);
        return 1;
    }
    std::printf("\noverhead gate: %.2f%% < %.2f%%  OK\n",
                100.0 * gate_overhead, 100.0 * GATE_MAX_OVERHEAD);
    return 0;
}
