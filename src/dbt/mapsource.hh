/**
 * @file
 * MapSource: the explicit backing store of a translation image.
 *
 * A TransImage used to carry its backing as two ad-hoc special cases
 * (an mmap base pointer or an adopted aligned heap buffer). Serving
 * one physical image copy to every co-resident VM process adds a
 * third — a read-only MAP_SHARED mapping of a file descriptor handed
 * over a Unix-domain socket — so the backing becomes its own layer:
 *
 *  - OwnedBuffer:  one 8-aligned heap copy (adopt(), non-unix
 *                  reads, ImageStore::append). Private to this
 *                  process.
 *  - FileMap:      a read-only file mapping (warm-start image files).
 *                  Page-cache pages are physically shared with every
 *                  other process mapping the same file.
 *  - SharedFd:     a read-only MAP_SHARED mapping of a received fd
 *                  (sealed memfd or file), the cross-process serving
 *                  path: N mapper processes, one physical copy.
 *
 * Residency accounting: residency() counts the mapping's pages and,
 * via mincore(2), how many are resident right now; for the mapped
 * kinds those resident pages are the physically shared ones. The
 * counters surface as dbt.image.pages.* in the stats export, which is
 * how the cross-process benchmark proves N mappers really share one
 * copy instead of faulting in N.
 */

#ifndef CDVM_DBT_MAPSOURCE_HH
#define CDVM_DBT_MAPSOURCE_HH

#include <memory>
#include <span>
#include <string>

#include "common/types.hh"

namespace cdvm::dbt
{

enum class LoadError;

/** Page-residency snapshot of one backing store (mincore-based). */
struct MapResidency
{
    u64 pagesTotal = 0;    //!< pages spanned by the backing
    u64 pagesResident = 0; //!< pages resident in physical memory
    /** Resident pages backed by a shared mapping (file or passed fd):
     *  physically one copy across every process mapping them. Owned
     *  buffers are private, so this is 0 for them. */
    u64 pagesShared = 0;
};

/** Read-only backing store for a verified translation image. */
class MapSource
{
  public:
    enum class Kind
    {
        None = 0,    //!< empty (default-constructed / moved-from)
        OwnedBuffer, //!< private 8-aligned heap copy
        FileMap,     //!< read-only mapping of an image file
        SharedFd,    //!< read-only MAP_SHARED mapping of a passed fd
    };

    MapSource() = default;
    ~MapSource();
    MapSource(MapSource &&other) noexcept { *this = std::move(other); }
    MapSource &operator=(MapSource &&other) noexcept;
    MapSource(const MapSource &) = delete;
    MapSource &operator=(const MapSource &) = delete;

    /** One 8-aligned heap copy of bytes (always succeeds). */
    static MapSource ownedCopy(std::span<const u8> bytes);

    /**
     * Map path read-only (non-unix hosts read it into an owned
     * buffer instead). err is LoadError::None on success; on failure
     * the returned source is empty and lastIoErrno() has the detail.
     */
    static MapSource mapFile(const std::string &path, LoadError &err);

    /**
     * MAP_SHARED read-only mapping of an open fd (sized by fstat).
     * The fd is borrowed, not retained: the caller may close it after
     * this returns — the mapping keeps the backing object alive.
     */
    static MapSource mapFd(int fd, LoadError &err);

    const u8 *data() const { return base; }
    u64 size() const { return len; }
    Kind kind() const { return knd; }
    bool empty() const { return knd == Kind::None; }
    /** Physically shareable with other processes (FileMap/SharedFd). */
    bool shared() const
    {
        return knd == Kind::FileMap || knd == Kind::SharedFd;
    }

    /** Page-residency snapshot (dbt.image.pages.*). */
    MapResidency residency() const;

    static const char *kindName(Kind k);

  private:
    void reset();

    Kind knd = Kind::None;
    const u8 *base = nullptr;
    u64 len = 0;
    void *mapBase = nullptr; //!< mmap backing (FileMap/SharedFd)
    std::size_t mapLen = 0;
    std::unique_ptr<u64[]> owned; //!< OwnedBuffer backing
};

} // namespace cdvm::dbt

#endif // CDVM_DBT_MAPSOURCE_HH
