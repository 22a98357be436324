/**
 * @file
 * Host-contention calibration.
 *
 * On a shared host the memory system is shared with other tenants, and
 * VM wall times swing by up to 1.6x between phases that last from
 * seconds to many minutes (measured on a 4-core VM). A fixed,
 * allocation- and pointer-heavy kernel slows down in step with the VMs, so
 * the benchmark times the kernel beside every VM and reports VM times
 * rescaled to a reference speed: the time the VM would take if the
 * kernel ran in CAL_REF_MS. The kernel is this file's own code; no
 * change to the VMM can move it.
 */

#ifndef CDVM_PERFBENCH_CALIBRATE_HH
#define CDVM_PERFBENCH_CALIBRATE_HH

#include <vector>

namespace cdvm::perfbench
{

/** The kernel's time on the reference machine speed, in ms. */
constexpr double CAL_REF_MS = 2.5;

/** Run the reference kernel once; @return its wall time in ms. */
double calibrationKernelMs();

/**
 * Per-sample machine-speed factors from the kernel times measured
 * before each sample: CAL_REF_MS over the median of a centred window
 * of kernel times (the window smooths the kernel's own noise).
 * Multiply a sample's wall time by its factor to normalize it.
 */
std::vector<double> speedFactors(const std::vector<double> &kernel_ms);

} // namespace cdvm::perfbench

#endif // CDVM_PERFBENCH_CALIBRATE_HH
