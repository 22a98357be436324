/**
 * @file
 * Per-layer replays for the traced run.
 *
 * Each layer's public functions are called from the benchmark's own
 * code over the inputs the workload's VMs meet: every instruction of
 * each program (decode, crack), the block entries and hot seeds a
 * vm.soft VM translated (BBT, template, SBT, lookup, encode), and the
 * image merged from those VMs' captures (build, load, connect, warm
 * install). Every replay is timed in several rounds and reports the
 * median per unit of work.
 */

#ifndef CDVM_PERFBENCH_REPLAY_HH
#define CDVM_PERFBENCH_REPLAY_HH

#include <string>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

namespace cdvm::perfbench
{

struct ReplayResult
{
    double decodeNsPerInsn = 0.0;
    double crackNsPerInsn = 0.0;
    double encodeNsPerUop = 0.0;
    double bbtNsPerInsn = 0.0;
    double tmplNsPerInsn = 0.0;
    double tmplCoverage = 0.0; //!< templated / all template-tier insns
    double sbtNsPerInsn = 0.0; //!< 0 when the workload has no hot seed
    double lookupNsPerLookup = 0.0;

    double imageBuildMs = 0.0;
    double imageLoadMs = 0.0;
    double connectMs = 0.0;
    u64 imageBytes = 0;

    double warmInstallNsPerInsn = 0.0;
    double warmAcceptRatio = 0.0;  //!< installed / loaded records
    double warmRelocations = 0.0;  //!< chain links re-bound per install

    // Per program of the pool, for the consistency checks.
    std::vector<u64> bbtReplayInsns; //!< insns the BBT replay translated
    std::vector<u64> primeBbtInsns;  //!< insns the priming VM translated
    std::vector<u64> warmInstalled;  //!< records the install accepted
    u64 decodeFailures = 0;          //!< linear-sweep decode errors
};

/**
 * Run every replay over the setup's pool. scratch is a directory
 * inside the checkout for the image file and the replay socket.
 * @return false (message on stderr) if a replay could not run.
 */
bool replayLayers(const Setup &s, SpanLog &spans,
                  const std::string &scratch, ReplayResult &out);

} // namespace cdvm::perfbench

#endif // CDVM_PERFBENCH_REPLAY_HH
