#include "dbt/persist.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "uops/encoding.hh"
#include "x86/decoder.hh"

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

namespace cdvm::dbt
{

namespace
{

constexpr std::size_t PAGE_BYTES = 4096;
constexpr Addr PAGE_MASK = ~static_cast<Addr>(PAGE_BYTES - 1);

u64
idKey(TransId id)
{
    return static_cast<u64>(id.idx) << 32 | id.gen;
}

/** Per-thread errno detail behind LoadError::Io (see lastIoErrno). */
thread_local int last_io_errno = 0;

// wordChecksum constants: xxHash64's odd primes for the lane step,
// murmur3's fmix64 multipliers for the finalizer.
constexpr u64 SUM_P1 = 0x9E3779B185EBCA87ull;
constexpr u64 SUM_P2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::size_t SUM_LANES = 4;

u64
readWord(const u8 *p)
{
    u64 v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** One lane step: a bijection of acc for fixed w and of w for fixed
 *  acc (odd multipliers, add and rotate are all invertible). */
u64
sumRound(u64 acc, u64 w)
{
    return std::rotl(acc + w * SUM_P2, 31) * SUM_P1;
}

/** murmur3 fmix64: a bijection of k. */
u64
fmix64(u64 k)
{
    k ^= k >> 33;
    k *= 0xFF51AFD7ED558CCDull;
    k ^= k >> 33;
    k *= 0xC4CEB9FE1A85EC53ull;
    k ^= k >> 33;
    return k;
}

} // namespace

int
lastIoErrno()
{
    return last_io_errno;
}

void
setLastIoErrno(int err)
{
    last_io_errno = err;
}

std::string
loadErrorDetail(LoadError e)
{
    std::string s = loadErrorName(e);
    if (e == LoadError::Io && last_io_errno) {
        s += ": ";
        s += std::strerror(last_io_errno);
    }
    return s;
}

const char *
loadErrorName(LoadError e)
{
    switch (e) {
      case LoadError::None: return "none";
      case LoadError::Io: return "io";
      case LoadError::BadMagic: return "bad-magic";
      case LoadError::BadVersion: return "bad-version";
      case LoadError::Truncated: return "truncated";
      case LoadError::Corrupt: return "corrupt";
    }
    return "?";
}

u64
fnv1a(std::span<const u8> bytes, u64 h)
{
    for (u8 b : bytes) {
        h ^= b;
        h *= 0x100000001B3ull;
    }
    return h;
}

u64
wordChecksum(std::span<const u8> bytes, std::size_t zero_word)
{
    const u8 *p = bytes.data();
    const std::size_t n = bytes.size();
    const std::size_t words = n / sizeof(u64);
    u64 lane[SUM_LANES] = {SUM_P1 + SUM_P2, SUM_P2, 0, 0 - SUM_P1};

    // The first block may hold the zero word.
    std::size_t i = 0;
    for (; i < words && i < SUM_LANES; ++i)
        lane[i] = sumRound(lane[i],
                           i == zero_word ? 0 : readWord(p + 8 * i));
    for (; i + SUM_LANES <= words; i += SUM_LANES) {
        lane[0] = sumRound(lane[0], readWord(p + 8 * i));
        lane[1] = sumRound(lane[1], readWord(p + 8 * i + 8));
        lane[2] = sumRound(lane[2], readWord(p + 8 * i + 16));
        lane[3] = sumRound(lane[3], readWord(p + 8 * i + 24));
    }
    for (; i < words; ++i)
        lane[i % SUM_LANES] =
            sumRound(lane[i % SUM_LANES], readWord(p + 8 * i));

    // Sub-word tail, zero-extended (a partial zero word, in a blob
    // shorter than the seal, reads as zero too).
    u64 tail = 0;
    if (n % sizeof(u64) && words != zero_word)
        std::memcpy(&tail, p + 8 * words, n % sizeof(u64));

    u64 h = 0;
    for (u64 l : lane)
        h = fmix64(h ^ l);
    h = fmix64(h ^ tail);
    return fmix64(h ^ static_cast<u64>(n));
}

u64
guestPageHash(const x86::Memory &mem, Addr page)
{
    std::array<u8, PAGE_BYTES> bytes;
    mem.fetchWindow(page, bytes.data(), bytes.size());
    return wordChecksum(bytes);
}

std::vector<Addr>
coveredPages(Addr entry_pc, std::span<const Addr> x86pcs)
{
    std::vector<Addr> pages;
    coveredPages(entry_pc, x86pcs, pages);
    return pages;
}

void
coveredPages(Addr entry_pc, std::span<const Addr> x86pcs,
             std::vector<Addr> &pages)
{
    pages.clear();
    auto add = [&pages](Addr page) {
        for (Addr p : pages) {
            if (p == page)
                return;
        }
        pages.push_back(page);
    };
    // Conservative: every covered instruction may straddle into the
    // next page (x86 insns are up to MAX_INSN_LEN bytes).
    for (Addr pc : x86pcs) {
        add(pc & PAGE_MASK);
        add((pc + x86::MAX_INSN_LEN - 1) & PAGE_MASK);
    }
    add(entry_pc & PAGE_MASK);
}

std::vector<Addr>
SavedTranslation::coveredPages() const
{
    return dbt::coveredPages(entryPc, x86pcs);
}

std::unique_ptr<Translation>
SavedTranslation::materialize() const
{
    auto t = std::make_unique<Translation>();
    t->kind = kind;
    t->entryPc = entryPc;
    t->numX86Insns = numX86Insns;
    t->x86Bytes = x86Bytes;
    t->fallthroughPc = fallthroughPc;
    t->containsComplex = containsComplex;
    t->provenance = provenance;
    t->endsInCti = endsInCti;
    t->endsInCondBranch = endsInCondBranch;
    t->condBranchTarget = condBranchTarget;
    t->condBranchPc = condBranchPc;
    t->execCount = execCount;
    t->takenCount = takenCount;
    t->notTakenCount = notTakenCount;
    t->x86pcs = x86pcs;
    t->codeBytes = static_cast<u32>(body.size());
    if (!uops::decodeAll(body, t->uops) || t->uops.empty())
        return nullptr;
    // Re-attach the precise-state tags the encoding does not carry.
    if (uopPcs.size() != t->uops.size())
        return nullptr;
    for (std::size_t i = 0; i < uopPcs.size(); ++i)
        t->uops[i].x86pc = uopPcs[i];
    return t;
}

Repository
capture(const TranslationMap &map, const x86::Memory &mem,
        const HotnessFn &hotness)
{
    Repository repo;

    // Collect the live set first: the hotness ordering must be fixed
    // before pass 1 assigns record indices, or the chain indices of
    // pass 2 would point at the wrong rows.
    std::vector<const Translation *> live;
    map.forEach([&](const Translation &t) { live.push_back(&t); });
    if (hotness) {
        std::stable_sort(live.begin(), live.end(),
                         [&hotness](const Translation *a,
                                    const Translation *b) {
                             const u64 ha = hotness(*a);
                             const u64 hb = hotness(*b);
                             if (ha != hb)
                                 return ha > hb;
                             return a->entryPc < b->entryPc;
                         });
    }

    // Pass 1: record every live translation and remember which record
    // index each TransId became.
    std::unordered_map<u64, u32> id_to_record;
    for (const Translation *tp : live) {
        const Translation &t = *tp;
        id_to_record.emplace(idKey(t.id),
                             static_cast<u32>(repo.entries.size()));
        SavedTranslation e;
        e.kind = t.kind;
        e.entryPc = t.entryPc;
        e.numX86Insns = t.numX86Insns;
        e.x86Bytes = t.x86Bytes;
        e.fallthroughPc = t.fallthroughPc;
        e.containsComplex = t.containsComplex;
        e.provenance = t.provenance;
        e.endsInCti = t.endsInCti;
        e.endsInCondBranch = t.endsInCondBranch;
        e.condBranchTarget = t.condBranchTarget;
        e.condBranchPc = t.condBranchPc;
        e.execCount = t.execCount;
        e.takenCount = t.takenCount;
        e.notTakenCount = t.notTakenCount;
        // Read through the views: a translation installed zero-copy
        // from a mapped warm image has no owned body, only the view.
        const std::span<const Addr> pcs = t.pcSpan();
        const std::span<const uops::Uop> body = t.code();
        e.x86pcs.assign(pcs.begin(), pcs.end());
        e.uopPcs.reserve(body.size());
        for (const uops::Uop &u : body)
            e.uopPcs.push_back(u.x86pc);
        e.body = uops::encode(body);
        repo.entries.push_back(std::move(e));
    }

    // Pass 2: chains as record indices. Links to translations outside
    // the live set (overwritten, or already flushed) are dropped.
    for (std::size_t i = 0; i < live.size(); ++i) {
        for (unsigned c = 0; c < 2; ++c) {
            const Translation::Chain &ch = live[i]->chains[c];
            if (!ch.to)
                continue;
            auto it = id_to_record.find(idKey(ch.to));
            if (it == id_to_record.end())
                continue;
            repo.entries[i].chains[c] =
                SavedChain{ch.targetPc, it->second};
        }
    }

    // Page hashes for every guest code page any entry touches.
    std::unordered_map<Addr, u64> hashes;
    for (const SavedTranslation &e : repo.entries) {
        for (Addr page : e.coveredPages()) {
            if (!hashes.count(page))
                hashes.emplace(page, guestPageHash(mem, page));
        }
    }
    repo.pageHashes.assign(hashes.begin(), hashes.end());
    return repo;
}

bool
atomicWriteFile(const std::string &path, std::span<const u8> bytes)
{
#ifdef __unix__
    // The temp file must live in the same directory as path so the
    // final rename() is same-filesystem and therefore atomic.
    std::string tmp = path + ".tmp.XXXXXX";
    const int fd = ::mkstemp(tmp.data());
    if (fd < 0) {
        setLastIoErrno(errno);
        return false;
    }
    bool ok = true;
    std::size_t done = 0;
    while (ok && done < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setLastIoErrno(errno);
            ok = false;
            break;
        }
        done += static_cast<std::size_t>(n);
    }
    // The rename must not be observable before the data is durable,
    // or a crash could leave the new name pointing at torn contents.
    if (ok && ::fsync(fd) != 0) {
        setLastIoErrno(errno);
        ok = false;
    }
    if (::close(fd) != 0 && ok) {
        setLastIoErrno(errno);
        ok = false;
    }
    if (ok && ::rename(tmp.c_str(), path.c_str()) != 0) {
        setLastIoErrno(errno);
        ok = false;
    }
    if (!ok)
        ::unlink(tmp.c_str());
    return ok;
#else
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        setLastIoErrno(errno);
        return false;
    }
    bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    if (!ok)
        setLastIoErrno(errno);
    if (std::fclose(f) != 0 && ok) {
        setLastIoErrno(errno);
        ok = false;
    }
    if (ok) {
        std::remove(path.c_str());
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
        if (!ok)
            setLastIoErrno(errno);
    }
    if (!ok)
        std::remove(tmp.c_str());
    return ok;
#endif
}

} // namespace cdvm::dbt
