/**
 * @file
 * Functional executor for implementation-ISA (micro-op) code.
 *
 * The executor runs the micro-op sequences produced by the BBT and SBT
 * translators against a machine state that mirrors the architected x86
 * state (R0..R7 == EAX..EDI plus EFLAGS). It is the functional truth
 * for "translated native mode" execution and is differentially tested
 * against the x86 reference interpreter.
 */

#ifndef CDVM_UOPS_EXEC_HH
#define CDVM_UOPS_EXEC_HH

#include <array>
#include <cstring>
#include <vector>

#include "common/types.hh"
#include "uops/uop.hh"
#include "x86/interp.hh"
#include "x86/memory.hh"

namespace cdvm::uops
{

/**
 * Handler interface for the XLTx86 micro-op, implemented by the
 * hardware-assist model (hwassist::XltUnit). Splitting the interface
 * from the implementation keeps the ISA layer free of microarchitecture
 * dependencies.
 */
class XltHandler
{
  public:
    virtual ~XltHandler() = default;

    /**
     * Decode the x86 instruction at the start of the 16-byte src
     * window, write encoded micro-ops into the 16-byte dst buffer, and
     * return the CSR value (see uops/csr.hh).
     */
    virtual u32 translate(const u8 src[16], u8 dst[16]) = 0;
};

/** Implementation-ISA machine state. */
struct UState
{
    std::array<u32, NUM_UREGS> regs{};
    u32 eflags = 0x202;
    std::array<std::array<u8, 16>, 32> fregs{}; //!< 128-bit F registers
    u32 csr = 0;
    InstCount uopCount = 0;

    /** Import architected state from an x86 CpuState (R0..R7, flags). */
    void loadArch(const x86::CpuState &cpu);
    /** Export architected state into an x86 CpuState (eip unchanged). */
    void storeArch(x86::CpuState &cpu) const;
};

/** Why a micro-op block stopped executing. */
enum class BlockExit : u8
{
    FallThrough, //!< ran off the end of the sequence
    Branch,      //!< a taken branch produced the next x86 PC
    VmExit,      //!< ExitVm micro-op (HLT or exit stub)
    Fault,       //!< Trap / divide fault at some micro-op
};

/** Result of executing a translated block. */
struct BlockResult
{
    BlockExit exit = BlockExit::FallThrough;
    Addr nextPc = 0;        //!< next x86-level PC (Branch/FallThrough)
    unsigned uopsRun = 0;   //!< micro-ops executed (including faulting)
    int faultIndex = -1;    //!< index of faulting micro-op, -1 if none
    Addr faultX86Pc = 0;    //!< x86 PC tag of the faulting micro-op
};

/**
 * Undo log of the guest stores one translated block made: the bytes
 * each store overwrote. Precise-state recovery undoes it, newest first,
 * before replaying the block under the interpreter, so the replay sees
 * block-entry memory as well as block-entry registers.
 */
struct StoreLog
{
    struct Entry
    {
        Addr addr = 0;
        u32 size = 0; //!< 1, 2, 4 or 16 bytes
        std::array<u8, 16> old{};
    };
    std::vector<Entry> entries;

    void clear() { entries.clear(); }

    /** Record the size bytes at a, before a store overwrites them. */
    void
    note(const x86::Memory &mem, Addr a, u32 size)
    {
        Entry &e = entries.emplace_back();
        e.addr = a;
        e.size = size;
        if (size == 4) {
            const u32 v = mem.read32(a);
            std::memcpy(e.old.data(), &v, 4);
        } else {
            mem.fetchWindow(a, e.old.data(), size);
        }
    }

    /** Restore every logged store, newest first. */
    void undo(x86::Memory &mem) const;
};

/** Micro-op executor over a UState and guest Memory. */
class UopExecutor
{
  public:
    UopExecutor(UState &state, x86::Memory &memory)
        : st(state), mem(memory)
    {
    }

    /** Install the XLTx86 functional-unit model (may be null). */
    void setXltHandler(XltHandler *h) { xlt = h; }

    /** Log every store into log (null: no logging). */
    void setStoreLog(StoreLog *log) { stores = log; }

    /**
     * Execute a translated block.
     *
     * @param uops          The translation body.
     * @param fallthrough   x86 PC that follows the translated region.
     */
    BlockResult run(std::span<const Uop> uops, Addr fallthrough);

    /** Outcome of a single micro-op (used by run and by the HAloop). */
    struct Outcome
    {
        bool taken = false;
        Addr target = 0;
        bool fault = false;
        bool vmExit = false;
    };

    /** Execute one micro-op (single-stepping, as the HAloop does). */
    Outcome exec(const Uop &u);

  private:
    /**
     * The one micro-op switch. Always inlined: run() expands it in its
     * block loop and exec() wraps it, so both execute the same body.
     */
    [[gnu::always_inline]] inline Outcome body(const Uop &u);

    u32 readSized(u8 reg, unsigned size) const;
    Addr effAddr(const Uop &u) const;

    UState &st;
    x86::Memory &mem;
    XltHandler *xlt = nullptr;
    StoreLog *stores = nullptr;
};

} // namespace cdvm::uops

#endif // CDVM_UOPS_EXEC_HH
