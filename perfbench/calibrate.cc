#include "calibrate.hh"

#include <algorithm>
#include <map>

#include "common/types.hh"
#include "spans.hh"

namespace cdvm::perfbench
{

namespace
{

/** Map operations per kernel run (~2.5 ms on a quiet 4-core host). */
constexpr int KERNEL_OPS = 8000;
/** Kernel samples in the smoothing window (centred, odd). */
constexpr std::size_t WINDOW = 7;
/** Where the kernel's result goes, so its lookups cannot be elided. */
volatile u64 kernelSink = 0;

} // namespace

double
calibrationKernelMs()
{
    // A fresh ordered map per run: node allocation, pointer chasing
    // and data-dependent branches, like a booting VM's own tables.
    const u64 t0 = nowNs();
    std::map<u64, u64> m;
    u64 x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < KERNEL_OPS; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        m[x >> 24] = static_cast<u64>(i);
    }
    u64 hits = 0;
    for (int i = 0; i < KERNEL_OPS; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        hits += m.count(x >> 24);
    }
    const double ms = static_cast<double>(nowNs() - t0) / 1e6;
    kernelSink = hits;
    return ms;
}

std::vector<double>
speedFactors(const std::vector<double> &kernel_ms)
{
    std::vector<double> out(kernel_ms.size());
    for (std::size_t i = 0; i < kernel_ms.size(); ++i) {
        const std::size_t lo = i >= WINDOW / 2 ? i - WINDOW / 2 : 0;
        const std::size_t hi = std::min(kernel_ms.size(), i + WINDOW / 2 + 1);
        const double k = quantile(std::vector<double>(
                                      kernel_ms.begin() + lo,
                                      kernel_ms.begin() + hi),
                                  0.5);
        out[i] = k > 0.0 ? CAL_REF_MS / k : 1.0;
    }
    return out;
}

} // namespace cdvm::perfbench
