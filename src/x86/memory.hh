/**
 * @file
 * Sparse guest physical memory for functional execution.
 *
 * Pages are allocated on first touch; unwritten bytes read as zero.
 * Both the architected program image and the VMM's concealed code-cache
 * region live in the same Memory object, matching the paper's framing
 * of the code cache as a hidden area of main memory.
 */

#ifndef CDVM_X86_MEMORY_HH
#define CDVM_X86_MEMORY_HH

#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace cdvm::x86
{

/** Byte-addressed sparse memory with on-demand page allocation. */
class Memory
{
  public:
    static constexpr unsigned PAGE_SHIFT = 12;
    static constexpr Addr PAGE_SIZE = Addr{1} << PAGE_SHIFT;

    u8 read8(Addr a) const;
    u16 read16(Addr a) const;
    /** Inline when the word sits in one cached page (loads, pops). */
    u32
    read32(Addr a) const
    {
        const Page *p = findPage(a);
        const Addr off = a & (PAGE_SIZE - 1);
        if (p && off + 4 <= PAGE_SIZE) [[likely]] {
            u32 v;
            std::memcpy(&v, p->bytes.data() + off, 4);
            return v;
        }
        return static_cast<u32>(read16(a)) |
               (static_cast<u32>(read16(a + 2)) << 16);
    }

    void write8(Addr a, u8 v);
    void write16(Addr a, u16 v);
    /** Inline when the word sits in one page (stores, pushes). */
    void
    write32(Addr a, u32 v)
    {
        Page *p = getPage(a);
        const Addr off = a & (PAGE_SIZE - 1);
        if (off + 4 <= PAGE_SIZE) [[likely]] {
            noteWrite(*p);
            std::memcpy(p->bytes.data() + off, &v, 4);
            written += 4;
            return;
        }
        write16(a, static_cast<u16>(v));
        write16(a + 2, static_cast<u16>(v >> 16));
    }

    /** Bulk copy into memory (e.g., loading a program image). */
    void writeBlock(Addr a, std::span<const u8> data);

    /** Bulk copy out of memory; returns bytes (zero-filled holes). */
    std::vector<u8> readBlock(Addr a, std::size_t len) const;

    /**
     * Read up to n bytes into out (used for instruction fetch windows).
     * Always fills n bytes; holes read as zero.
     */
    void fetchWindow(Addr a, u8 *out, std::size_t n) const;

    /** True if the page holding a has been allocated. */
    bool isMapped(Addr a) const { return findPage(a) != nullptr; }

    /**
     * Instruction fetch for the decode cache: like fetchWindow, but
     * additionally marks the touched pages as *code pages*. Writes to
     * code pages bump codeVersion so cached decodes are invalidated
     * (self-modifying code, program reloads); writes to pure data
     * pages do not. Returns false when the window read through an
     * unallocated page (such a fetch must not be cached: the hole
     * cannot be marked, so a write creating the page later would not
     * bump codeVersion).
     */
    bool fetchCode(Addr a, u8 *out, std::size_t n) const;

    /**
     * Generation of the guest's code bytes: bumped by every write
     * that touches a page previously fetched through fetchCode.
     */
    u64 codeVersion() const { return codeVer; }

    /** Number of pages currently allocated. */
    std::size_t numPages() const { return pages.size(); }

    /** Total bytes written through this interface (stat). */
    u64 bytesWritten() const { return written; }

  private:
    struct Page
    {
        explicit Page(std::size_t n) : bytes(n, 0) {}

        std::vector<u8> bytes;
        /** Served instruction fetches (set from const fetch paths). */
        mutable bool code = false;
    };

    /**
     * Direct-mapped cache of page number -> Page in front of the hash
     * map, so a load or store that hits a recently used page skips the
     * hash. It is sound because pages are never freed (map nodes keep
     * their address) and each Memory is used by one thread. It never
     * holds a miss: a page created later is found in the map. Copying
     * or moving a Memory resets the cache on both sides, so no cache
     * ever points into another object's pages.
     */
    class PageCache
    {
      public:
        static constexpr unsigned SLOTS = 64;

        struct Slot
        {
            Addr pageNo = ~Addr{0}; //!< never a page number (a >> 12)
            Page *page = nullptr;
        };

        PageCache() = default;
        PageCache(const PageCache &) {}
        PageCache(PageCache &&o) noexcept { o.clear(); }
        PageCache &
        operator=(const PageCache &)
        {
            clear();
            return *this;
        }
        PageCache &
        operator=(PageCache &&o) noexcept
        {
            clear();
            o.clear();
            return *this;
        }

        Slot &slot(Addr page_no) { return slots[page_no & (SLOTS - 1)]; }
        void clear() { slots.fill(Slot{}); }

      private:
        std::array<Slot, SLOTS> slots{};
    };

    Page *
    getPage(Addr a)
    {
        const Addr key = a >> PAGE_SHIFT;
        PageCache::Slot &s = cache.slot(key);
        if (s.pageNo == key)
            return s.page;
        return getPageSlow(key);
    }
    const Page *
    findPage(Addr a) const
    {
        const Addr key = a >> PAGE_SHIFT;
        PageCache::Slot &s = cache.slot(key);
        if (s.pageNo == key)
            return s.page;
        return findPageSlow(key);
    }
    /** Cache misses: probe (or create) in the map, cache a hit. */
    Page *getPageSlow(Addr key);
    const Page *findPageSlow(Addr key) const;

    /** Bump codeVersion when writing into a code page. */
    void
    noteWrite(const Page &p)
    {
        if (p.code)
            ++codeVer;
    }

    std::unordered_map<Addr, Page> pages;
    mutable PageCache cache;
    u64 written = 0;
    u64 codeVer = 0;
};

} // namespace cdvm::x86

#endif // CDVM_X86_MEMORY_HH
