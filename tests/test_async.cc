/**
 * @file
 * The asynchronous SBT pipeline's test layer.
 *
 * Three concerns, layered:
 *
 *  - ThreadPool unit behaviour: task execution, bounded-queue
 *    back-pressure, drain semantics, destructor draining;
 *  - VMM-level concurrency protocol: code-cache flushes racing
 *    in-flight installs, stale-result dropping, deterministic-mode
 *    replay producing StageEvent streams identical to the synchronous
 *    pipeline, stats alignment;
 *  - differential stress: a seed sweep running every async
 *    configuration against the reference interpreter. The tier-1 run
 *    uses a small sweep; setting CDVM_STRESS widens it to ~100 seeds
 *    (the `stress`-labelled ctest entry does this).
 */

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "common/threadpool.hh"
#include "engine/events.hh"
#include "helpers.hh"

namespace cdvm
{
namespace
{

using test::RunResult;
using test::runInterp;
using test::runVmm;
using test::sameOutcome;

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, ExecutesAllTasks)
{
    ThreadPool pool(4, 128);
    std::atomic<int> sum{0};
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(pool.trySubmit([&sum](unsigned) { ++sum; }));
    pool.drain();
    EXPECT_EQ(sum.load(), 100);
    EXPECT_EQ(pool.executed(), 100u);
    EXPECT_EQ(pool.rejectedFull(), 0u);
}

TEST(ThreadPool, ContextIdsArePrivatePerWorker)
{
    ThreadPool pool(3);
    std::array<std::atomic<int>, 3> perCtx{};
    for (int i = 0; i < 60; ++i)
        ASSERT_TRUE(pool.trySubmit([&perCtx](unsigned ctx) {
            ASSERT_LT(ctx, 3u);
            ++perCtx[ctx];
        }));
    pool.drain();
    int total = 0;
    for (auto &c : perCtx)
        total += c.load();
    EXPECT_EQ(total, 60);
}

TEST(ThreadPool, BoundedQueueBackPressure)
{
    ThreadPool pool(1, 2);

    // Gate the single worker so the queue genuinely fills up.
    std::mutex mu;
    std::condition_variable cv;
    bool gateOpen = false;
    std::atomic<bool> blockerRunning{false};

    ASSERT_TRUE(pool.trySubmit([&](unsigned) {
        blockerRunning = true;
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return gateOpen; });
    }));
    while (!blockerRunning)
        std::this_thread::yield();

    // Worker busy: capacity-2 queue takes exactly two more tasks.
    std::atomic<int> done{0};
    EXPECT_TRUE(pool.trySubmit([&done](unsigned) { ++done; }));
    EXPECT_TRUE(pool.trySubmit([&done](unsigned) { ++done; }));
    EXPECT_FALSE(pool.trySubmit([&done](unsigned) { ++done; }));
    EXPECT_EQ(pool.rejectedFull(), 1u);

    {
        std::lock_guard<std::mutex> lk(mu);
        gateOpen = true;
    }
    cv.notify_all();
    pool.drain();
    EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPool, DestructorDrainsPendingWork)
{
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i)
            ASSERT_TRUE(
                pool.trySubmit([&done](unsigned) { ++done; }));
    }
    EXPECT_EQ(done.load(), 32);
}

// ---------------------------------------------------------------------
// VMM-level async protocol
// ---------------------------------------------------------------------

vmm::VmmConfig
asyncCfg(bool deterministic, unsigned contexts = 2)
{
    vmm::VmmConfig c = engine::EngineConfig::fromSpec(
        "soft+async" + std::to_string(contexts));
    c.hotThreshold = 30;
    c.asyncDeterministic = deterministic;
    return c;
}

vmm::VmmConfig
syncCfg()
{
    vmm::VmmConfig c = engine::EngineConfig::vmSoft();
    c.hotThreshold = 30;
    return c;
}

/** Records the full StageEvent stream for replay comparison. */
class RecordingSink : public engine::StageSink
{
  public:
    void onEvent(const engine::StageEvent &e) override
    {
        events.push_back(e);
    }
    std::vector<engine::StageEvent> events;
};

bool
sameEvent(const engine::StageEvent &a, const engine::StageEvent &b)
{
    return a.stage == b.stage && a.insns == b.insns &&
           a.x86Addr == b.x86Addr && a.x86Bytes == b.x86Bytes &&
           a.codeAddr == b.codeAddr && a.codeBytes == b.codeBytes &&
           a.instant == b.instant && a.background == b.background &&
           a.arg == b.arg;
}

/** runVmm with a StageEvent recorder attached. */
RunResult
runVmmRecorded(const workload::Program &prog, x86::Memory &mem,
               const vmm::VmmConfig &cfg, RecordingSink &sink,
               vmm::VmmStats *stats_out = nullptr)
{
    prog.loadInto(mem);
    RunResult r;
    r.cpu = prog.initialState();
    vmm::Vmm monitor(mem, cfg);
    monitor.attachSink(&sink);
    r.exit = monitor.run(r.cpu, 10'000'000);
    r.retired = r.cpu.icount;
    if (stats_out)
        *stats_out = monitor.stats();
    return r;
}

workload::Program
stressProgram(u64 seed)
{
    workload::ProgramParams pp;
    pp.seed = seed;
    pp.numFuncs = 3 + static_cast<unsigned>(seed % 3);
    pp.mainIterations = 40;
    return workload::generateProgram(pp);
}

TEST(AsyncSbt, DeterministicModeReplaysIdentically)
{
    workload::Program prog = stressProgram(7);

    RecordingSink a, b;
    x86::Memory mem_a, mem_b;
    RunResult ra = runVmmRecorded(prog, mem_a, asyncCfg(true), a);
    RunResult rb = runVmmRecorded(prog, mem_b, asyncCfg(true), b);

    EXPECT_TRUE(sameOutcome(prog, ra, mem_a, rb, mem_b));
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i)
        ASSERT_TRUE(sameEvent(a.events[i], b.events[i]))
            << "event " << i << " differs between identical runs";
}

TEST(AsyncSbt, DeterministicModeMatchesSyncEventForEvent)
{
    workload::Program prog = stressProgram(11);

    RecordingSink sync_sink, async_sink;
    x86::Memory mem_s, mem_a;
    vmm::VmmStats st_s, st_a;
    RunResult rs =
        runVmmRecorded(prog, mem_s, syncCfg(), sync_sink, &st_s);
    RunResult ra =
        runVmmRecorded(prog, mem_a, asyncCfg(true), async_sink, &st_a);

    EXPECT_TRUE(sameOutcome(prog, rs, mem_s, ra, mem_a));

    // Barrier-on-install makes the async pipeline emit the exact
    // event stream of the synchronous one, retire for retire.
    ASSERT_EQ(sync_sink.events.size(), async_sink.events.size());
    for (std::size_t i = 0; i < sync_sink.events.size(); ++i)
        ASSERT_TRUE(
            sameEvent(sync_sink.events[i], async_sink.events[i]))
            << "event " << i << " differs from the sync pipeline";

    // And the staged-emulation statistics line up.
    EXPECT_EQ(st_s.hotspotDetections, st_a.hotspotDetections);
    EXPECT_EQ(st_s.sbtTranslations, st_a.sbtTranslations);
    EXPECT_EQ(st_s.sbtInsnsTranslated, st_a.sbtInsnsTranslated);
    EXPECT_EQ(st_a.asyncSbtRequests, st_a.asyncSbtInstalls +
                                         st_a.asyncSbtStaleDropped);
}

TEST(AsyncSbt, FlushRacingInFlightInstallsStaysCorrect)
{
    // Tiny SBT arena: installs force flushes while more results are
    // in flight. Stale results must be dropped, chains reset, and the
    // architected outcome must still match the interpreter.
    workload::ProgramParams pp;
    pp.seed = 77;
    pp.numFuncs = 6;
    pp.blocksPerFunc = 5;
    pp.mainIterations = 8;
    workload::Program prog = workload::generateProgram(pp);

    x86::Memory ref_mem;
    RunResult ref = runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit),
              static_cast<int>(x86::Exit::Halted));

    for (bool deterministic : {false, true}) {
        vmm::VmmConfig c = asyncCfg(deterministic);
        c.sbtCacheBytes = 2048; // force flush/retranslate cycles
        x86::Memory mem;
        vmm::VmmStats stats;
        RunResult got = runVmm(prog, mem, c, &stats);
        EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem))
            << (deterministic ? "deterministic" : "free-running");
        EXPECT_GT(stats.sbtCacheFlushes, 0u)
            << "arena was big enough that flushing never happened";
        EXPECT_GT(stats.asyncSbtInstalls, 0u);
    }
}

TEST(AsyncSbt, SingleContextTinyQueueStaysCorrect)
{
    // The most contended configuration: one worker, a one-slot queue.
    // Rejected requests must leave seeds cold until re-detected.
    workload::Program prog = stressProgram(13);

    x86::Memory ref_mem;
    RunResult ref = runInterp(prog, ref_mem);
    ASSERT_EQ(static_cast<int>(ref.exit),
              static_cast<int>(x86::Exit::Halted));

    vmm::VmmConfig c = asyncCfg(false, 1);
    c.asyncQueueCap = 1;
    x86::Memory mem;
    vmm::VmmStats stats;
    RunResult got = runVmm(prog, mem, c, &stats);
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem));
    // Every settled request is installed, dropped stale, or a
    // formation failure; some may still be in flight at program exit.
    EXPECT_GT(stats.asyncSbtRequests, 0u);
    EXPECT_LE(stats.asyncSbtInstalls + stats.asyncSbtStaleDropped +
                  stats.sbtFormationFailures,
              stats.asyncSbtRequests);
}

// ---------------------------------------------------------------------
// Differential stress sweep
// ---------------------------------------------------------------------

/**
 * Seeds for the sweep: the tier-1 run keeps it small; the ctest
 * `stress` entry sets CDVM_STRESS to widen it to ~100 seeds (through
 * every configuration, so roughly 400 full VM runs).
 */
unsigned
sweepSeeds()
{
    const char *env = std::getenv("CDVM_STRESS");
    if (env && *env)
        return static_cast<unsigned>(std::atoi(env));
    return 8;
}

TEST(AsyncStress, SeedSweepAllAsyncConfigs)
{
    const unsigned seeds = sweepSeeds();
    struct Case
    {
        const char *name;
        vmm::VmmConfig cfg;
    };
    const Case cases[] = {
        {"vm.soft", syncCfg()},
        {"soft+async2", asyncCfg(false)},
        {"soft+async2 det", asyncCfg(true)},
        {"xlt+async2",
         [] {
             vmm::VmmConfig c = engine::EngineConfig::fromSpec("xlt+async2");
             c.hotThreshold = 30;
             return c;
         }()},
    };

    for (unsigned seed = 1; seed <= seeds; ++seed) {
        workload::Program prog = stressProgram(1000 + seed);

        x86::Memory ref_mem;
        RunResult ref = runInterp(prog, ref_mem);
        ASSERT_EQ(static_cast<int>(ref.exit),
                  static_cast<int>(x86::Exit::Halted))
            << "seed " << seed;

        for (const Case &c : cases) {
            x86::Memory mem;
            RunResult got = runVmm(prog, mem, c.cfg);
            EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem))
                << c.name << " seed " << seed;
        }
    }
}

} // namespace
} // namespace cdvm
