#include "dbt/image.hh"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>

#include "uops/encoding.hh"

namespace cdvm::dbt
{

namespace
{

constexpr u64 IMAGE_ALIGN = 8;

u64
align8(u64 v)
{
    return (v + (IMAGE_ALIGN - 1)) & ~(IMAGE_ALIGN - 1);
}

void
putU32(std::vector<u8> &out, u32 v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<u8>(v >> 8 * i));
}

void
putU64(std::vector<u8> &out, u64 v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<u8>(v >> 8 * i));
}

u64
readU64(const u8 *p)
{
    u64 v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** Copy a vector's bytes to dst. An empty vector copies nothing: its
 *  data() may be null, which memcpy must never be passed. */
template <typename T>
void
copyOut(u8 *dst, const std::vector<T> &v)
{
    if (!v.empty())
        std::memcpy(dst, v.data(), v.size() * sizeof(T));
}

/** Record blob size: header + pc table + raw uop bodies, 8-aligned. */
u64
recordBlobBytes(u64 n_pcs, u64 n_uops)
{
    return align8(sizeof(ImageRecordHeader) + n_pcs * sizeof(Addr) +
                  n_uops * sizeof(uops::Uop));
}

/**
 * Deterministic Uop image bytes: copy member-by-member into a
 * value-initialized temporary so padding bytes are zero, not whatever
 * the translator's vector happened to hold.
 */
void
writeUop(u8 *dst, const uops::Uop &u)
{
    uops::Uop clean{};
    clean.op = u.op;
    clean.dst = u.dst;
    clean.src1 = u.src1;
    clean.src2 = u.src2;
    clean.size = u.size;
    clean.scale = u.scale;
    clean.cond = u.cond;
    clean.hasImm = u.hasImm;
    clean.imm = u.imm;
    clean.writeFlags = u.writeFlags;
    clean.fusedHead = u.fusedHead;
    clean.target = u.target;
    clean.x86pc = u.x86pc;
    std::memcpy(dst, &clean, sizeof clean);
}

/** Semantic identity of a record (counts and chains excluded, so
 *  identical code dedupes across contexts that ran it differently). */
u64
contentKeyOf(const SavedTranslation &e, u64 page_key)
{
    std::vector<u8> id;
    id.reserve(64 + e.body.size() + 8 * e.x86pcs.size() +
               8 * e.uopPcs.size());
    id.push_back(static_cast<u8>(e.kind));
    id.push_back(static_cast<u8>((e.containsComplex ? 1 : 0) |
                                 (e.endsInCti ? 2 : 0) |
                                 (e.endsInCondBranch ? 4 : 0)));
    putU64(id, e.entryPc);
    putU32(id, e.numX86Insns);
    putU32(id, e.x86Bytes);
    putU64(id, e.fallthroughPc);
    putU64(id, e.condBranchTarget);
    putU64(id, e.condBranchPc);
    putU64(id, page_key);
    putU32(id, static_cast<u32>(e.x86pcs.size()));
    for (Addr pc : e.x86pcs)
        putU64(id, pc);
    putU32(id, static_cast<u32>(e.uopPcs.size()));
    for (Addr pc : e.uopPcs)
        putU64(id, pc);
    putU32(id, static_cast<u32>(e.body.size()));
    id.insert(id.end(), e.body.begin(), e.body.end());
    return fnv1a(id);
}

/** Full equality check behind a contentKey match (collision guard). */
bool
sameRecord(const SavedTranslation &a, const SavedTranslation &b)
{
    return a.kind == b.kind && a.entryPc == b.entryPc &&
           a.numX86Insns == b.numX86Insns &&
           a.x86Bytes == b.x86Bytes &&
           a.fallthroughPc == b.fallthroughPc &&
           a.containsComplex == b.containsComplex &&
           a.endsInCti == b.endsInCti &&
           a.endsInCondBranch == b.endsInCondBranch &&
           a.condBranchTarget == b.condBranchTarget &&
           a.condBranchPc == b.condBranchPc &&
           a.x86pcs == b.x86pcs && a.uopPcs == b.uopPcs &&
           a.body == b.body;
}

/** Expand one image record back into a capture entry (body
 *  re-encoded, provenance from the in-place Uop tags). */
SavedTranslation
expandRecord(const TransImage::RecordView &v)
{
    SavedTranslation e;
    e.kind =
        v.hdr->kind ? TransKind::Superblock : TransKind::BasicBlock;
    e.entryPc = v.hdr->entryPc;
    e.numX86Insns = v.hdr->numX86Insns;
    e.x86Bytes = v.hdr->x86Bytes;
    e.fallthroughPc = v.hdr->fallthroughPc;
    e.containsComplex = v.hdr->flags & IMG_F_COMPLEX;
    e.endsInCti = v.hdr->flags & IMG_F_ENDS_CTI;
    e.endsInCondBranch = v.hdr->flags & IMG_F_ENDS_COND;
    e.provenance = static_cast<TransProvenance>(
        (v.hdr->flags & IMG_F_PROV_MASK) >> IMG_F_PROV_SHIFT);
    e.condBranchTarget = v.hdr->condBranchTarget;
    e.condBranchPc = v.hdr->condBranchPc;
    e.execCount = v.hdr->execCount;
    e.takenCount = v.hdr->takenCount;
    e.notTakenCount = v.hdr->notTakenCount;
    for (unsigned c = 0; c < 2; ++c) {
        e.chains[c].targetPc = v.hdr->chainTargetPc[c];
        e.chains[c].record = v.hdr->chainRecord[c];
    }
    e.x86pcs.assign(v.x86pcs.begin(), v.x86pcs.end());
    e.uopPcs.reserve(v.uops.size());
    for (const uops::Uop &u : v.uops)
        e.uopPcs.push_back(u.x86pc);
    e.body = uops::encode(v.uops);
    return e;
}

} // namespace

u64
imageChecksum(std::span<const u8> image)
{
    return wordChecksum(image, offsetof(ImageHeader, checksum) /
                                   sizeof(u64));
}

u64
pageSetKey(std::span<const std::pair<Addr, u64>> sorted_pages)
{
    u64 h = FNV1A_BASIS;
    for (const auto &[page, hash] : sorted_pages) {
        const u64 pair[2] = {page, hash};
        h = fnv1a({reinterpret_cast<const u8 *>(pair), sizeof(pair)}, h);
    }
    return h;
}

// --- TransImage -----------------------------------------------------

TransImage::~TransImage()
{
    reset();
}

TransImage &
TransImage::operator=(TransImage &&other) noexcept
{
    if (this == &other)
        return *this;
    reset();
    backing = std::move(other.backing);
    base = other.base;
    len = other.len;
    hdr = other.hdr;
    pages = other.pages;
    dedupe = other.dedupe;
    recIndex = other.recIndex;
    recordsBase = other.recordsBase;
    relocations = other.relocations;
    branches = other.branches;
    other.reset();
    return *this;
}

void
TransImage::reset()
{
    backing = MapSource();
    base = nullptr;
    len = 0;
    hdr = nullptr;
    pages = {};
    dedupe = {};
    recIndex = {};
    recordsBase = nullptr;
    relocations = {};
    branches = {};
}

LoadError
TransImage::verify()
{
    // The header fields are read with plain loads only after the
    // magic/version/size gates; every *record* field is read only
    // after the whole-image checksum passed, so a bit flip can never
    // reach a raw-POD load (no UB on corrupt input).
    if (len < 8)
        return LoadError::Truncated;
    if (readU64(base) != IMAGE_MAGIC)
        return LoadError::BadMagic;
    if (len < sizeof(ImageHeader))
        return LoadError::Truncated;
    u32 version = 0;
    std::memcpy(&version, base + 8, sizeof version);
    if (version != IMAGE_VERSION)
        return LoadError::BadVersion;
    const u64 total = readU64(base + 16);
    if (total < sizeof(ImageHeader))
        return LoadError::Corrupt;
    if (total > len)
        return LoadError::Truncated;

    // Whole-image checksum (the checksum field reads as zero).
    if (imageChecksum({base, static_cast<std::size_t>(total)}) !=
        readU64(base + offsetof(ImageHeader, checksum)))
        return LoadError::Corrupt;

    hdr = reinterpret_cast<const ImageHeader *>(base);
    if (hdr->sectionCount != IMAGE_NUM_SECTIONS)
        return LoadError::Corrupt;

    // Section table: in-order, 8-aligned, inside the base image, and
    // byte-count consistent with the fixed entry sizes.
    static constexpr u64 entry_bytes[IMAGE_NUM_SECTIONS] = {
        sizeof(ImagePageHash), sizeof(ImageDedupeEntry), sizeof(u64),
        0, sizeof(ImageReloc), sizeof(ImageBranchStat)};
    u64 prev_end = sizeof(ImageHeader);
    for (u32 s = 0; s < IMAGE_NUM_SECTIONS; ++s) {
        const ImageSectionDesc &d = hdr->sections[s];
        if (d.offset % IMAGE_ALIGN || d.offset < prev_end ||
            d.bytes > total || d.offset > total - d.bytes)
            return LoadError::Corrupt;
        if (entry_bytes[s] && d.bytes != d.count * entry_bytes[s])
            return LoadError::Corrupt;
        prev_end = d.offset + d.bytes;
    }

    auto desc = [this](ImageSection s) -> const ImageSectionDesc & {
        return hdr->sections[static_cast<u32>(s)];
    };
    const ImageSectionDesc &dp = desc(ImageSection::PageIndex);
    const ImageSectionDesc &dd = desc(ImageSection::DedupeIndex);
    const ImageSectionDesc &di = desc(ImageSection::RecordIndex);
    const ImageSectionDesc &dr = desc(ImageSection::Records);
    const ImageSectionDesc &dl = desc(ImageSection::Relocs);
    const ImageSectionDesc &db = desc(ImageSection::BranchProfile);

    pages = {reinterpret_cast<const ImagePageHash *>(base + dp.offset),
             static_cast<std::size_t>(dp.count)};
    dedupe = {reinterpret_cast<const ImageDedupeEntry *>(base +
                                                         dd.offset),
              static_cast<std::size_t>(dd.count)};
    recIndex = {reinterpret_cast<const u64 *>(base + di.offset),
                static_cast<std::size_t>(di.count)};
    recordsBase = base + dr.offset;
    relocations = {reinterpret_cast<const ImageReloc *>(base +
                                                        dl.offset),
                   static_cast<std::size_t>(dl.count)};
    branches = {reinterpret_cast<const ImageBranchStat *>(base +
                                                          db.offset),
                static_cast<std::size_t>(db.count)};

    // Per-record structural bounds.
    const u64 n = di.count;
    for (u64 i = 0; i < n; ++i) {
        const u64 off = recIndex[i];
        if (off % IMAGE_ALIGN ||
            off > dr.bytes ||
            dr.bytes - off < sizeof(ImageRecordHeader))
            return LoadError::Corrupt;
        const auto *rh = reinterpret_cast<const ImageRecordHeader *>(
            recordsBase + off);
        if (rh->kind > 1 || rh->flags > 31 || rh->nUops == 0)
            return LoadError::Corrupt;
        const u64 body =
            recordBlobBytes(rh->nPcs, rh->nUops);
        if (dr.bytes - off < body)
            return LoadError::Corrupt;
        for (unsigned c = 0; c < 2; ++c) {
            if (rh->chainRecord[c] != NO_RECORD &&
                rh->chainRecord[c] >= n)
                return LoadError::Corrupt;
        }
    }
    for (const ImageReloc &r : relocations) {
        if (r.fromRecord >= n || r.toRecord >= n || r.exitSlot >= 2)
            return LoadError::Corrupt;
    }
    for (const ImageDedupeEntry &d : dedupe) {
        if (d.record >= n)
            return LoadError::Corrupt;
    }
    return LoadError::None;
}

TransImage::RecordView
TransImage::record(std::size_t i) const
{
    RecordView v;
    const u8 *p = recordsBase + recIndex[i];
    v.hdr = reinterpret_cast<const ImageRecordHeader *>(p);
    v.x86pcs = {reinterpret_cast<const Addr *>(
                    p + sizeof(ImageRecordHeader)),
                v.hdr->nPcs};
    v.uops = {reinterpret_cast<const uops::Uop *>(
                  p + sizeof(ImageRecordHeader) +
                  v.hdr->nPcs * sizeof(Addr)),
              v.hdr->nUops};
    return v;
}

LoadError
TransImage::adopt(std::span<const u8> bytes, TransImage &out)
{
    return fromSource(MapSource::ownedCopy(bytes), out);
}

LoadError
TransImage::load(const std::string &path, TransImage &out)
{
    LoadError e = LoadError::None;
    MapSource src = MapSource::mapFile(path, e);
    if (e != LoadError::None)
        return e;
    return fromSource(std::move(src), out);
}

LoadError
TransImage::loadFd(int fd, TransImage &out)
{
    LoadError e = LoadError::None;
    MapSource src = MapSource::mapFd(fd, e);
    if (e != LoadError::None)
        return e;
    return fromSource(std::move(src), out);
}

LoadError
TransImage::fromSource(MapSource src, TransImage &out)
{
    TransImage img;
    img.backing = std::move(src);
    img.base = img.backing.data();
    img.len = img.backing.size();
    const LoadError e = img.verify();
    if (e != LoadError::None)
        return e;
    if (img.hdr->totalBytes != img.len)
        return LoadError::Corrupt; // trailing bytes after the image
    out = std::move(img);
    return LoadError::None;
}

bool
TransImage::save(const std::string &path, std::span<const u8> image)
{
    // Atomic replace: a concurrent mapper of path sees either the old
    // complete image or the new one, never a truncated-then-rewritten
    // window.
    return atomicWriteFile(path, image);
}

Repository
TransImage::toRepository() const
{
    Repository repo;
    repo.pageHashes.reserve(pages.size());
    for (const ImagePageHash &p : pages)
        repo.pageHashes.emplace_back(p.page, p.hash);
    repo.entries.reserve(recordCount());
    for (std::size_t i = 0; i < recordCount(); ++i)
        repo.entries.push_back(expandRecord(record(i)));
    repo.branchProfile.reserve(branches.size());
    for (const ImageBranchStat &b : branches)
        repo.branchProfile.push_back(
            SavedBranchStat{b.pc, b.taken, b.notTaken});
    return repo;
}

// --- ImageBuilder ---------------------------------------------------

void
ImageBuilder::add(const Repository &repo)
{
    std::unordered_map<Addr, u64> src_pages(repo.pageHashes.begin(),
                                            repo.pageHashes.end());
    for (const auto &[page, hash] : repo.pageHashes)
        pageHash.emplace(page, hash);
    for (const SavedBranchStat &b : repo.branchProfile) {
        auto &cur = branch[b.pc];
        cur.first = std::max(cur.first, b.taken);
        cur.second = std::max(cur.second, b.notTaken);
    }

    std::vector<u32> remap(repo.entries.size(), NO_RECORD);
    for (std::size_t j = 0; j < repo.entries.size(); ++j) {
        const SavedTranslation &e = repo.entries[j];
        // Stage only records a warm install could use: the body must
        // decode and the provenance side table must match it.
        if (!e.materialize())
            continue;

        std::vector<std::pair<Addr, u64>> rec_pages;
        for (Addr page : e.coveredPages()) {
            const auto it = src_pages.find(page);
            rec_pages.emplace_back(
                page, it != src_pages.end() ? it->second : 0);
        }
        std::sort(rec_pages.begin(), rec_pages.end());
        remap[j] = stage(SavedTranslation(e), pageSetKey(rec_pages));
    }

    // Chains, remapped to builder indices. A dedupe hit may fill a
    // shared record's still-empty chain slots, never overwrite them.
    for (std::size_t j = 0; j < repo.entries.size(); ++j) {
        if (remap[j] == NO_RECORD)
            continue;
        for (unsigned c = 0; c < 2; ++c) {
            const SavedChain &ch = repo.entries[j].chains[c];
            if (ch.record == NO_RECORD || ch.record >= remap.size())
                continue;
            const u32 to = remap[ch.record];
            if (to == NO_RECORD)
                continue;
            bindChain(remap[j], c, ch.targetPc, to);
        }
    }
}

void
ImageBuilder::add(const TransImage &img)
{
    // Stage records straight off the image, preserving each record's
    // stored pageKey: the merged page index keeps only one hash per
    // page, so recomputing content addresses from it would corrupt
    // records whenever two workload classes carry different code at
    // the same guest pages (and repeated delta merges would then
    // duplicate instead of dedupe).
    for (const ImagePageHash &p : img.pageHashes())
        pageHash.emplace(p.page, p.hash);
    for (const ImageBranchStat &b : img.branchProfile()) {
        auto &cur = branch[b.pc];
        cur.first = std::max(cur.first, b.taken);
        cur.second = std::max(cur.second, b.notTaken);
    }

    std::vector<u32> remap(img.recordCount(), NO_RECORD);
    for (std::size_t j = 0; j < img.recordCount(); ++j) {
        const TransImage::RecordView v = img.record(j);
        remap[j] = stage(expandRecord(v), v.hdr->pageKey);
    }
    for (std::size_t j = 0; j < img.recordCount(); ++j) {
        const TransImage::RecordView v = img.record(j);
        for (unsigned c = 0; c < 2; ++c) {
            const u32 rec = v.hdr->chainRecord[c];
            if (rec == NO_RECORD || rec >= remap.size())
                continue;
            const u32 to = remap[rec];
            if (to == NO_RECORD)
                continue;
            bindChain(remap[j], c, v.hdr->chainTargetPc[c], to);
        }
    }
}

u32
ImageBuilder::stage(SavedTranslation &&e, u64 page_key)
{
    const u64 ck = contentKeyOf(e, page_key);
    const auto hit = byContent.find(ck);
    if (hit != byContent.end() &&
        sameRecord(recs[hit->second].entry, e)) {
        // Shared record: keep the hotter profile of the two.
        SavedTranslation &kept = recs[hit->second].entry;
        kept.execCount = std::max(kept.execCount, e.execCount);
        kept.takenCount = std::max(kept.takenCount, e.takenCount);
        kept.notTakenCount =
            std::max(kept.notTakenCount, e.notTakenCount);
        ++nDedupe;
        return hit->second;
    }

    const u32 idx = static_cast<u32>(recs.size());
    Staged s;
    s.entry = std::move(e);
    s.entry.chains[0] = SavedChain{};
    s.entry.chains[1] = SavedChain{};
    s.pageKey = page_key;
    s.contentKey = ck;
    recs.push_back(std::move(s));
    byContent.emplace(ck, idx);
    return idx;
}

void
ImageBuilder::bindChain(u32 from, unsigned slot, Addr target_pc,
                        u32 to)
{
    SavedChain &s = recs[from].entry.chains[slot];
    if (s.record == NO_RECORD)
        s = SavedChain{target_pc, to};
}

std::vector<u8>
ImageBuilder::build()
{
    // Hotness-ranked eviction against the size budget: records are
    // already ranked (capture order is hottest-first), so the budget
    // drops the coldest tail. Fixed sections are charged first.
    const u64 fixed = sizeof(ImageHeader) +
                      pageHash.size() * sizeof(ImagePageHash) +
                      branch.size() * sizeof(ImageBranchStat);
    std::size_t kept = recs.size();
    if (opt.sizeBudgetBytes) {
        u64 acc = fixed;
        kept = 0;
        for (const Staged &s : recs) {
            const u64 cost =
                recordBlobBytes(s.entry.x86pcs.size(),
                                s.entry.uopPcs.size()) +
                sizeof(u64) + sizeof(ImageDedupeEntry) +
                2 * sizeof(ImageReloc);
            if (acc + cost > opt.sizeBudgetBytes)
                break;
            acc += cost;
            ++kept;
        }
    }
    nEvicted = recs.size() - kept;

    // Record blob offsets and the flat relocation list (links into
    // the evicted tail are dropped).
    std::vector<u64> rec_off(kept);
    u64 rec_bytes = 0;
    std::vector<ImageReloc> relocs;
    for (std::size_t i = 0; i < kept; ++i) {
        const Staged &s = recs[i];
        rec_off[i] = rec_bytes;
        rec_bytes += recordBlobBytes(s.entry.x86pcs.size(),
                                     s.entry.uopPcs.size());
        for (unsigned c = 0; c < 2; ++c) {
            const SavedChain &ch = s.entry.chains[c];
            if (ch.record != NO_RECORD && ch.record < kept) {
                ImageReloc r;
                r.targetPc = ch.targetPc;
                r.fromRecord = static_cast<u32>(i);
                r.toRecord = ch.record;
                r.exitSlot = c;
                relocs.push_back(r);
            }
        }
    }

    ImageHeader hdr;
    hdr.generation = opt.generation;
    hdr.dedupeHits = nDedupe;
    hdr.evicted = nEvicted;
    u64 off = sizeof(ImageHeader);
    auto place = [&](ImageSection s, u64 bytes, u64 count) {
        ImageSectionDesc &d =
            hdr.sections[static_cast<u32>(s)];
        d.offset = off;
        d.bytes = bytes;
        d.count = count;
        off += align8(bytes);
    };
    place(ImageSection::PageIndex,
          pageHash.size() * sizeof(ImagePageHash), pageHash.size());
    place(ImageSection::DedupeIndex,
          kept * sizeof(ImageDedupeEntry), kept);
    place(ImageSection::RecordIndex, kept * sizeof(u64), kept);
    place(ImageSection::Records, rec_bytes, kept);
    place(ImageSection::Relocs, relocs.size() * sizeof(ImageReloc),
          relocs.size());
    place(ImageSection::BranchProfile,
          branch.size() * sizeof(ImageBranchStat), branch.size());
    hdr.totalBytes = off;

    std::vector<u8> out(off, 0);
    auto at = [&out](u64 o) { return out.data() + o; };
    auto sec = [&hdr](ImageSection s) -> const ImageSectionDesc & {
        return hdr.sections[static_cast<u32>(s)];
    };

    u8 *p = at(sec(ImageSection::PageIndex).offset);
    for (const auto &[page, hash] : pageHash) {
        const ImagePageHash ph{page, hash};
        std::memcpy(p, &ph, sizeof ph);
        p += sizeof ph;
    }

    std::vector<ImageDedupeEntry> dd(kept);
    for (std::size_t i = 0; i < kept; ++i)
        dd[i] = ImageDedupeEntry{recs[i].contentKey,
                                 static_cast<u32>(i), 0};
    std::sort(dd.begin(), dd.end(),
              [](const ImageDedupeEntry &a, const ImageDedupeEntry &b) {
                  return a.key != b.key ? a.key < b.key
                                        : a.record < b.record;
              });
    copyOut(at(sec(ImageSection::DedupeIndex).offset), dd);
    copyOut(at(sec(ImageSection::RecordIndex).offset), rec_off);

    for (std::size_t i = 0; i < kept; ++i) {
        const Staged &s = recs[i];
        const std::unique_ptr<Translation> t = s.entry.materialize();
        assert(t && "staged records were validated in add()");
        ImageRecordHeader rh;
        rh.entryPc = s.entry.entryPc;
        rh.fallthroughPc = s.entry.fallthroughPc;
        rh.condBranchTarget = s.entry.condBranchTarget;
        rh.condBranchPc = s.entry.condBranchPc;
        rh.execCount = s.entry.execCount;
        rh.takenCount = s.entry.takenCount;
        rh.notTakenCount = s.entry.notTakenCount;
        rh.pageKey = s.pageKey;
        for (unsigned c = 0; c < 2; ++c) {
            const SavedChain &ch = s.entry.chains[c];
            const bool live =
                ch.record != NO_RECORD && ch.record < kept;
            rh.chainTargetPc[c] = live ? ch.targetPc : 0;
            rh.chainRecord[c] = live ? ch.record : NO_RECORD;
        }
        rh.numX86Insns = s.entry.numX86Insns;
        rh.x86Bytes = s.entry.x86Bytes;
        rh.codeBytes = static_cast<u32>(s.entry.body.size());
        rh.nPcs = static_cast<u32>(s.entry.x86pcs.size());
        rh.nUops = static_cast<u32>(t->uops.size());
        rh.kind = s.entry.kind == TransKind::Superblock ? 1 : 0;
        rh.flags =
            (s.entry.containsComplex ? IMG_F_COMPLEX : 0) |
            (s.entry.endsInCti ? IMG_F_ENDS_CTI : 0) |
            (s.entry.endsInCondBranch ? IMG_F_ENDS_COND : 0) |
            static_cast<u8>(static_cast<u8>(s.entry.provenance)
                            << IMG_F_PROV_SHIFT);

        u8 *rp = at(sec(ImageSection::Records).offset + rec_off[i]);
        std::memcpy(rp, &rh, sizeof rh);
        rp += sizeof rh;
        copyOut(rp, s.entry.x86pcs);
        rp += s.entry.x86pcs.size() * sizeof(Addr);
        for (const uops::Uop &u : t->uops) {
            writeUop(rp, u);
            rp += sizeof(uops::Uop);
        }
    }

    copyOut(at(sec(ImageSection::Relocs).offset), relocs);

    p = at(sec(ImageSection::BranchProfile).offset);
    for (const auto &[pc, counts] : branch) {
        const ImageBranchStat bs{pc, counts.first, counts.second};
        std::memcpy(p, &bs, sizeof bs);
        p += sizeof bs;
    }

    std::memcpy(out.data(), &hdr, sizeof hdr);
    // Seal: the checksum reads its own field as zero.
    const u64 sum = imageChecksum(out);
    std::memcpy(out.data() + offsetof(ImageHeader, checksum), &sum,
                sizeof sum);
    return out;
}

// --- ImageStore -----------------------------------------------------

LoadError
ImageStore::append(const Repository &delta, u64 size_budget)
{
    const std::shared_ptr<const TransImage> basis = acquire();
    ImageBuilder b(ImageBuilder::Options{
        size_budget,
        (basis ? basis->header().generation : 0) + 1});
    if (basis)
        b.add(*basis);
    b.add(delta);
    auto next = std::make_shared<TransImage>();
    const LoadError e = TransImage::adopt(b.build(), *next);
    if (e != LoadError::None)
        return e;
    publish(std::move(next));
    return LoadError::None;
}

} // namespace cdvm::dbt
