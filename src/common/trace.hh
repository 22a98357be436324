/**
 * @file
 * The event ring: one low-overhead recorder for the staged-emulation
 * timeline, with two exporters.
 *
 * A preallocated power-of-two ring of timestamped spans records what
 * the VM is doing over (virtual) time: interpreting, BBT-translating,
 * executing translated code, optimizing hotspots, flushing caches,
 * chaining, running hardware assists. Recording is one masked store
 * plus a counter increment; when the ring wraps, the oldest events
 * are overwritten (the dropped count is kept).
 *
 * The same class serves two owners. Every Vmm keeps a small ring of
 * its own, always on, so the last few thousand events are available
 * for a post-mortem dump (on demand, on a flush storm, from the panic
 * path). The process-wide ring, Tracer::global(), is enabled by the
 * CLI trace flags, sized generously and dumped once at exit; Vmms
 * copy their events to it on track 0 and the timing simulator records
 * on track 1.
 *
 * Time is whatever monotonic u64 the instrumented layer owns: the
 * functional VMM uses a work-unit clock (retired instructions advance
 * it by 1 each, translations by the number of instructions
 * translated), the timing simulators use cycles. Layers record on
 * separate tracks so the timelines do not interleave.
 *
 * A disabled ring (capacity 0) costs one predictable branch per call
 * and holds no allocation. The producer is single-threaded and
 * lock-free; a crash-dump path may read the ring from another thread,
 * which is acceptable for a best-effort post-mortem artifact.
 *
 * Exporters: Chrome trace_event JSON ("X" complete events), loadable
 * in Perfetto (https://ui.perfetto.dev) or chrome://tracing, and the
 * flight-dump text format (one line per event, oldest first).
 */

#ifndef CDVM_COMMON_TRACE_HH
#define CDVM_COMMON_TRACE_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace cdvm
{

/** What a span was doing (the Chrome trace "name"/"cat"). */
enum class TracePhase : u8
{
    Interp = 0,   //!< cold code interpreted one insn at a time
    X86Mode,      //!< cold code executed via dual-mode decoders
    BbtTranslate, //!< basic-block translation work
    SbtOptimize,  //!< superblock formation + optimization work
    BbtExec,      //!< executing BBT translations from the code cache
    SbtExec,      //!< executing optimized hotspot code
    CacheFlush,   //!< code-cache arena flush (instant)
    Chain,        //!< translation chain installed (instant)
    Dispatch,     //!< VMM dispatch / lookup work
    HwAssist,     //!< hardware-assist activity (XLTx86, BBB hit)
    ColdExec,     //!< timing-sim cold execution (native/interp)
    WarmInstall,  //!< warm-start repository install work
    NUM_PHASES,
};

/** Chrome trace "name" for a phase. */
const char *tracePhaseName(TracePhase p);

/** Chrome trace "cat" (category) for a phase. */
const char *tracePhaseCategory(TracePhase p);

/** One recorded span (dur == 0 renders as an instant event). */
struct TraceEvent
{
    u64 ts = 0;   //!< start, in the recording layer's virtual time
    u64 dur = 0;  //!< duration in the same unit
    u64 arg = 0;  //!< phase-specific payload (pc, insns, bytes...)
    TracePhase phase = TracePhase::Interp;
    u8 track = 0; //!< Chrome tid: 0 = vmm, 1 = timing sim
};

static_assert(sizeof(TraceEvent) <= 32,
              "TraceEvent is stored per ring slot; keep it compact");

/** The event ring. */
class Tracer
{
  public:
    /**
     * Preallocate a ring of at least capacity_events entries (rounded
     * up to a power of two). 0 constructs a disabled ring.
     */
    explicit Tracer(std::size_t capacity_events = 0)
    {
        enable(capacity_events);
    }

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** The process-wide ring written by the CLI trace flags. */
    static Tracer &global();

    /**
     * Start recording into a freshly preallocated ring of at least
     * capacity_events entries, rounded up to a power of two (older
     * contents are discarded). 0 disables.
     */
    void enable(std::size_t capacity_events);

    /** Stop recording and release the ring. */
    void disable() { enable(0); }

    bool enabled() const { return !buf.empty(); }

    /** Record one event: a masked store, overwriting the oldest. */
    void
    record(const TraceEvent &e)
    {
        if (buf.empty())
            return;
        buf[static_cast<std::size_t>(total) & mask] = e;
        ++total;
    }

    /** Record a span; no-op (one branch) when disabled. */
    void
    span(TracePhase phase, u64 ts, u64 dur, u64 arg = 0, u8 track = 0)
    {
        record(TraceEvent{ts, dur, arg, phase, track});
    }

    /** Record an instant event; no-op (one branch) when disabled. */
    void
    instant(TracePhase phase, u64 ts, u64 arg = 0, u8 track = 0)
    {
        record(TraceEvent{ts, 0, arg, phase, track});
    }

    /** Events currently retained (<= capacity). */
    std::size_t
    size() const
    {
        return total < buf.size() ? static_cast<std::size_t>(total)
                                  : buf.size();
    }

    /** Ring capacity in events (0 when disabled). */
    std::size_t capacity() const { return buf.size(); }

    /** Events ever recorded since enable() (or clear()). */
    u64 recorded() const { return total; }

    /** Events lost to ring wraparound. */
    u64 dropped() const { return total - size(); }

    /** Retained events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    /** Forget recorded events; the ring stays allocated. */
    void clear() { total = 0; }

    /** Chrome trace_event JSON document of the retained events. */
    std::string dumpChromeJson() const;

    /** Write dumpChromeJson() to path. @return false on I/O failure. */
    bool writeChromeJson(const std::string &path) const;

    /**
     * Flight-dump text of the retained events, oldest first, under a
     * header line carrying the recorded/dropped totals.
     */
    std::string dumpText() const;

    /** Write dumpText() to path. @return false on I/O failure. */
    bool writeText(const std::string &path) const;

  private:
    std::vector<TraceEvent> buf;
    std::size_t mask = 0;
    u64 total = 0; //!< events ever recorded; next slot = total & mask
};

/**
 * Span-coalescing helper: merges back-to-back spans of the same phase
 * and track into one event before handing them to the tracer. The
 * block-granular timing simulator would otherwise record one event
 * per simulated block (millions); coalescing keeps event counts
 * proportional to phase *changes*.
 */
class SpanCoalescer
{
  public:
    explicit SpanCoalescer(Tracer &tracer, u8 track_id = 0)
        : tr(tracer), track(track_id)
    {
    }

    ~SpanCoalescer() { flush(); }

    /** Append [ts, ts+dur) in phase p; emits on phase change. */
    void
    add(TracePhase p, u64 ts, u64 dur, u64 arg = 0)
    {
        if (!tr.enabled())
            return;
        if (open && p == cur && ts <= end) {
            end = ts + dur;
            accum += arg;
            return;
        }
        flush();
        open = true;
        cur = p;
        begin = ts;
        end = ts + dur;
        accum = arg;
    }

    /** Emit any pending span. */
    void
    flush()
    {
        if (!open)
            return;
        tr.span(cur, begin, end - begin, accum, track);
        open = false;
    }

  private:
    Tracer &tr;
    u8 track;
    bool open = false;
    TracePhase cur = TracePhase::Interp;
    u64 begin = 0;
    u64 end = 0;
    u64 accum = 0;
};

} // namespace cdvm

#endif // CDVM_COMMON_TRACE_HH
