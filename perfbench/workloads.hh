/**
 * @file
 * The benchmark's workloads and their set-up.
 *
 * Set-up generates each workload's program pool from the seed, runs
 * every program to HLT under the x86::Interpreter to get the reference
 * state each VM must reproduce, and for warm_boot primes the classes,
 * merges their captures into one image and publishes it from an
 * in-process serve::ImageHost. The VMM under test never contributes
 * to a reference.
 */

#ifndef CDVM_PERFBENCH_WORKLOADS_HH
#define CDVM_PERFBENCH_WORKLOADS_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine_config.hh"
#include "serve/image_host.hh"
#include "spans.hh"
#include "vmm/vmm.hh"
#include "workload/program_gen.hh"
#include "x86/interp.hh"
#include "x86/memory.hh"

namespace cdvm::perfbench
{

enum class Workload : u8
{
    ColdBoot,    //!< fresh vm.soft per boot, large flat programs
    WarmBoot,    //!< vm.soft booted from a served merged image
    Steady,      //!< vm.soft on long call-heavy runs (SBT code)
    InterpHeavy, //!< the steady programs under vm.interp, never hot
};

std::optional<Workload> parseWorkload(const std::string &name);
const char *workloadName(Workload w);

/** What a VM must end with: the interpreter's outcome. */
struct Reference
{
    x86::CpuState cpu;
    u64 retired = 0;
    u64 dataHash = 0;  //!< fnv1a over the data segment
    u64 stackHash = 0; //!< fnv1a over the top stack page
};

/** One program of the pool and its reference outcome. */
struct Case
{
    workload::Program prog;
    Reference ref;
};

/** A workload ready to boot VMs from. */
struct Setup
{
    Workload workload = Workload::ColdBoot;
    /** The stock preset every measured VM runs under. */
    engine::EngineConfig cfg;
    std::vector<Case> cases;
    /** A run holds at least this many VMs (p90 sample floor). */
    unsigned minVms = 0;

    // warm_boot only: the merged image and the host serving it.
    std::vector<u8> image;
    std::unique_ptr<serve::ImageHost> host;
    std::string socketPath;

    // Set-up phase times (seconds) and the reference work.
    double genS = 0.0;
    double refInterpS = 0.0;
    double primeS = 0.0;
    u64 refInsns = 0;
};

/**
 * Generate the pool, compute references and (warm_boot) build and
 * publish the image on socket_path. Deterministic in seed. Returns
 * null with a message on stderr if any program fails to halt under
 * the interpreter or the host cannot start.
 */
std::unique_ptr<Setup> makeSetup(Workload w, u64 seed,
                                 const std::string &socket_path,
                                 SpanLog *spans);

/** fnv1a over a guest memory range. */
u64 hashRange(const x86::Memory &mem, Addr base, u64 bytes);

/**
 * Run a VM until the first HLT, a trap, or cap retired instructions.
 * @return the exit (None when the cap ran out first).
 */
x86::Exit runToHalt(vmm::Vmm &vm, x86::CpuState &cpu, u64 cap);

/**
 * Compare a finished VM against the reference: exit at HLT,
 * architected registers, data segment and stack window. The retired
 * count is not architected state and is checked separately.
 * @return an empty string on a match, else what differs.
 */
std::string checkOutcome(const Case &c, x86::Exit exit,
                         const x86::CpuState &cpu,
                         const x86::Memory &mem);

} // namespace cdvm::perfbench

#endif // CDVM_PERFBENCH_WORKLOADS_HH
