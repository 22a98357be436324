/**
 * @file
 * In-memory span log for the traced benchmark run.
 *
 * Every span is {name, start, end, parent, VM id, program id, work}.
 * Spans are recorded from the benchmark's own code around calls into
 * one layer's public functions; nothing inside the VMM is
 * instrumented. The log is single-threaded: parents come from a stack
 * of open spans. It is written out once, when the benchmark ends,
 * together with each span name's total and self time (duration minus
 * the part its child spans cover).
 */

#ifndef CDVM_PERFBENCH_SPANS_HH
#define CDVM_PERFBENCH_SPANS_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace cdvm::perfbench
{

/** Monotonic wall clock in nanoseconds. */
u64 nowNs();

/** Linear-interpolated quantile q of v (0 for an empty v). */
double quantile(std::vector<double> v, double q);

class SpanLog
{
  public:
    struct Span
    {
        const char *name = "";
        u64 startNs = 0;
        u64 endNs = 0;
        int parent = -1; //!< index of the enclosing span, -1 at top
        int vm = -1;     //!< VM sequence number, -1 outside a VM
        int program = -1; //!< program index in the pool, -1 if none
        u64 work = 0;     //!< units of work the span covered
    };

    /**
     * RAII span. A null log makes it a no-op, so the untraced run
     * pays one branch per boundary.
     */
    class Scope
    {
      public:
        Scope(SpanLog *log, const char *name, int vm = -1,
              int program = -1);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Record how much work (instructions, calls, ...) it did. */
        void setWork(u64 w) { work = w; }

      private:
        SpanLog *log;
        int id = -1;
        u64 work = 0;
    };

    int open(const char *name, int vm, int program);
    void close(int id, u64 work);

    /**
     * Write the spans and a per-name summary as one JSON document;
     * extra_json (an object body without braces, may be empty) is
     * added under "summary". @return success.
     */
    bool write(const std::string &path,
               const std::string &extra_json) const;

  private:
    std::vector<Span> all;
    std::vector<int> openStack;
};

} // namespace cdvm::perfbench

#endif // CDVM_PERFBENCH_SPANS_HH
