/**
 * @file
 * The zero-copy translation image (dbt/image), the one on-disk
 * warm-start format, and its warm-start and sharing paths.
 *
 * Format robustness: a built image round-trips to an equal capture;
 * truncation at any point (including every section boundary),
 * arbitrary bit flips, a bit flip in every word, trailing bytes,
 * foreign formats (the retired v1 repository fixture among them) and
 * the previous image version are rejected with a typed error -- never
 * a crash, never a parse -- and a rejected file leaves the VM cleanly
 * cold. Structural damage re-sealed behind a valid checksum reaches
 * each check behind the seal and is typed Corrupt.
 *
 * Zero-copy: a mapped-image install performs zero per-record body
 * copies (the acceptance stat), yet retires bit-identical state.
 *
 * Sharing: one writer appending generations races N reader contexts
 * installing from the same store; compaction publishes never
 * invalidate a held generation; a 256-context fleet booting from one
 * shared image retires identically to per-context private loads.
 */

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <functional>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "dbt/image.hh"
#include "engine/cache_mgr.hh"
#include "engine/warm_start.hh"
#include "fleet/fleet.hh"
#include "helpers.hh"

#ifndef CDVM_TEST_SRC_DIR
#define CDVM_TEST_SRC_DIR "."
#endif

namespace cdvm
{
namespace
{

using test::RunResult;
using test::runInterp;
using test::runVmm;
using test::sameOutcome;

vmm::VmmConfig
cfgSoft()
{
    vmm::VmmConfig c = engine::EngineConfig::vmSoft();
    c.hotThreshold = 30; // low threshold so SBT entries exist too
    return c;
}

workload::Program
testProgram(u64 seed = 7)
{
    workload::ProgramParams pp;
    pp.seed = seed;
    return workload::generateProgram(pp);
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

/** Run a program cold and capture its translation map. */
dbt::Repository
capturedRepo(const workload::Program &prog, x86::Memory &mem)
{
    prog.loadInto(mem);
    x86::CpuState cpu = prog.initialState();
    vmm::Vmm vm(mem, cfgSoft());
    vm.run(cpu, 10'000'000);
    return dbt::capture(vm.translations(), mem);
}

/** Build an image blob from one repository. */
std::vector<u8>
builtImage(const dbt::Repository &repo, u64 budget = 0)
{
    dbt::ImageBuilder b(dbt::ImageBuilder::Options{budget, 1});
    b.add(repo);
    return b.build();
}

/** Adopt a blob, asserting success. */
dbt::TransImage
adopted(std::span<const u8> bytes)
{
    dbt::TransImage img;
    EXPECT_EQ(dbt::TransImage::adopt(bytes, img), dbt::LoadError::None);
    return img;
}

/** Overwrite a little-endian field of a blob in place. */
template <typename T>
void
poke(std::vector<u8> &blob, std::size_t off, T value)
{
    std::memcpy(blob.data() + off, &value, sizeof value);
}

/** Re-seal a (damaged) blob with a valid whole-image checksum, so
 *  verification reaches the checks behind the seal. */
void
reseal(std::vector<u8> &blob)
{
    poke<u64>(blob, offsetof(dbt::ImageHeader, checksum),
              dbt::imageChecksum(blob));
}

/** Run a plain Vmm on prog until >= target retired at a HLT (the
 *  fleet's completion rule, so solo runs compare exactly). */
void
runToTarget(vmm::Vmm &vm, const workload::Program &prog, u64 target)
{
    x86::CpuState cpu = prog.initialState();
    for (;;) {
        // Past the target, keep granting budget until the HLT (the
        // fleet's completion rule): run(cpu, 0) would retire nothing.
        const u64 done = vm.stats().totalRetired();
        const x86::Exit e =
            vm.run(cpu, done < target ? target - done : target);
        if (e == x86::Exit::Halted) {
            if (vm.stats().totalRetired() >= target)
                return;
            cpu = prog.initialState();
        } else {
            ASSERT_EQ(e, x86::Exit::None);
        }
    }
}

/** A private install target: guest memory + the engine structures a
 *  warm install writes into. */
struct InstallTarget
{
    x86::Memory mem;
    engine::EngineConfig cfg = cfgSoft();
    engine::EngineStats stats;
    engine::EventStream events;
    engine::BranchProfile prof;
    engine::CodeCacheManager ccm{mem, cfg, stats, events};

    explicit InstallTarget(const workload::Program &prog)
    {
        prog.loadInto(mem);
    }
};

// ---------------------------------------------------------------------
// Format: round trip, header sanity
// ---------------------------------------------------------------------

TEST(Image, RoundTripFieldEquality)
{
    x86::Memory mem;
    dbt::Repository repo = capturedRepo(testProgram(), mem);
    ASSERT_FALSE(repo.entries.empty());
    ASSERT_FALSE(repo.pageHashes.empty());

    const std::vector<u8> blob = builtImage(repo);
    dbt::TransImage img = adopted(blob);
    ASSERT_EQ(img.recordCount(), repo.entries.size());

    const dbt::Repository back = img.toRepository();
    ASSERT_EQ(back.entries.size(), repo.entries.size());
    for (std::size_t i = 0; i < repo.entries.size(); ++i) {
        const dbt::SavedTranslation &a = repo.entries[i];
        const dbt::SavedTranslation &b = back.entries[i];
        EXPECT_EQ(b.kind, a.kind) << i;
        EXPECT_EQ(b.entryPc, a.entryPc) << i;
        EXPECT_EQ(b.numX86Insns, a.numX86Insns) << i;
        EXPECT_EQ(b.x86Bytes, a.x86Bytes) << i;
        EXPECT_EQ(b.fallthroughPc, a.fallthroughPc) << i;
        EXPECT_EQ(b.containsComplex, a.containsComplex) << i;
        EXPECT_EQ(b.endsInCti, a.endsInCti) << i;
        EXPECT_EQ(b.endsInCondBranch, a.endsInCondBranch) << i;
        EXPECT_EQ(static_cast<int>(b.provenance),
                  static_cast<int>(a.provenance))
            << i;
        EXPECT_EQ(b.condBranchTarget, a.condBranchTarget) << i;
        EXPECT_EQ(b.condBranchPc, a.condBranchPc) << i;
        EXPECT_EQ(b.execCount, a.execCount) << i;
        EXPECT_EQ(b.takenCount, a.takenCount) << i;
        EXPECT_EQ(b.notTakenCount, a.notTakenCount) << i;
        for (unsigned c = 0; c < 2; ++c) {
            EXPECT_EQ(b.chains[c].targetPc, a.chains[c].targetPc) << i;
            EXPECT_EQ(b.chains[c].record, a.chains[c].record) << i;
        }
        EXPECT_EQ(b.x86pcs, a.x86pcs) << i;
        EXPECT_EQ(b.uopPcs, a.uopPcs) << i;
        EXPECT_EQ(b.body, a.body) << i;
    }

    // The page index survives (both sides sorted by page).
    std::vector<std::pair<Addr, u64>> want = repo.pageHashes;
    std::sort(want.begin(), want.end());
    ASSERT_EQ(back.pageHashes.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(back.pageHashes[i], want[i]) << i;

    // Adopting the same bytes twice yields the same image.
    dbt::TransImage img2 = adopted(blob);
    EXPECT_EQ(img2.recordCount(), img.recordCount());
    EXPECT_EQ(img2.header().checksum, img.header().checksum);
}

TEST(Image, BranchProfileRoundTrip)
{
    workload::Program prog = testProgram();
    x86::Memory mem;
    prog.loadInto(mem);
    x86::CpuState cpu = prog.initialState();
    vmm::Vmm vm(mem, cfgSoft());
    vm.run(cpu, 10'000'000);
    const dbt::Repository repo = vm.captureWarmStart();
    ASSERT_FALSE(repo.branchProfile.empty());

    dbt::TransImage img = adopted(builtImage(repo));
    ASSERT_EQ(img.branchProfile().size(), repo.branchProfile.size());

    std::vector<dbt::SavedBranchStat> want = repo.branchProfile;
    std::sort(want.begin(), want.end(),
              [](const auto &a, const auto &b) { return a.pc < b.pc; });
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(img.branchProfile()[i].pc, want[i].pc) << i;
        EXPECT_EQ(img.branchProfile()[i].taken, want[i].taken) << i;
        EXPECT_EQ(img.branchProfile()[i].notTaken, want[i].notTaken)
            << i;
    }
}

TEST(Image, HeaderAndSectionSanity)
{
    x86::Memory mem;
    const std::vector<u8> blob =
        builtImage(capturedRepo(testProgram(), mem));
    dbt::TransImage img = adopted(blob);

    const dbt::ImageHeader &h = img.header();
    EXPECT_EQ(h.magic, dbt::IMAGE_MAGIC);
    EXPECT_EQ(h.version, dbt::IMAGE_VERSION);
    EXPECT_EQ(h.sectionCount, dbt::IMAGE_NUM_SECTIONS);
    EXPECT_EQ(h.totalBytes, blob.size());
    EXPECT_EQ(h.generation, 1u);
    EXPECT_EQ(h.dedupeHits, 0u);
    EXPECT_EQ(h.evicted, 0u);

    u64 prevEnd = sizeof(dbt::ImageHeader);
    for (u32 s = 0; s < dbt::IMAGE_NUM_SECTIONS; ++s) {
        const dbt::ImageSectionDesc &d = h.sections[s];
        EXPECT_EQ(d.offset % 8, 0u) << s;
        EXPECT_GE(d.offset, prevEnd) << s;
        EXPECT_LE(d.offset + d.bytes, h.totalBytes) << s;
        prevEnd = d.offset + d.bytes;
    }

    // The page index and dedupe index are sorted (binary-searchable).
    const auto pages = img.pageHashes();
    for (std::size_t i = 1; i < pages.size(); ++i)
        EXPECT_LT(pages[i - 1].page, pages[i].page);
    const auto dd = img.dedupeIndex();
    ASSERT_EQ(dd.size(), img.recordCount());
    for (std::size_t i = 1; i < dd.size(); ++i)
        EXPECT_LE(dd[i - 1].key, dd[i].key);
    for (const dbt::ImageDedupeEntry &e : dd)
        EXPECT_LT(e.record, img.recordCount());
}

// ---------------------------------------------------------------------
// Rejection: truncation and bit flips, always typed, never UB
// ---------------------------------------------------------------------

TEST(Image, TruncationSweepTyped)
{
    x86::Memory mem;
    const std::vector<u8> blob =
        builtImage(capturedRepo(testProgram(), mem));
    dbt::TransImage whole = adopted(blob);

    // Every section boundary exactly, plus a sweep over the body.
    std::vector<std::size_t> cuts;
    for (u32 s = 0; s < dbt::IMAGE_NUM_SECTIONS; ++s) {
        const dbt::ImageSectionDesc &d = whole.header().sections[s];
        cuts.push_back(d.offset);
        cuts.push_back(d.offset + d.bytes);
    }
    const std::size_t step = std::max<std::size_t>(1, blob.size() / 97);
    for (std::size_t len = 0; len < blob.size(); len += step)
        cuts.push_back(len);

    for (std::size_t len : cuts) {
        if (len >= blob.size())
            continue;
        dbt::TransImage out;
        const dbt::LoadError err = dbt::TransImage::adopt(
            std::span<const u8>(blob.data(), len), out);
        EXPECT_EQ(err, dbt::LoadError::Truncated) << "len=" << len;
    }

    // Trailing garbage after totalBytes is rejected too (an image is
    // exactly one blob, whatever its backing).
    std::vector<u8> padded = blob;
    padded.resize(padded.size() + 64, 0xAB);
    dbt::TransImage out;
    EXPECT_EQ(dbt::TransImage::adopt(padded, out),
              dbt::LoadError::Corrupt);
}

TEST(Image, BitFlipSweepTyped)
{
    x86::Memory mem;
    const std::vector<u8> blob =
        builtImage(capturedRepo(testProgram(), mem));

    const std::size_t step = std::max<std::size_t>(1, blob.size() / 61);
    for (std::size_t pos = 0; pos < blob.size(); pos += step) {
        std::vector<u8> bad = blob;
        bad[pos] ^= 0x40;
        dbt::TransImage out;
        const dbt::LoadError err = dbt::TransImage::adopt(bad, out);
        EXPECT_NE(err, dbt::LoadError::None) << "pos=" << pos;
        if (pos < 8) {
            EXPECT_EQ(err, dbt::LoadError::BadMagic) << "pos=" << pos;
        } else if (pos < 12) {
            EXPECT_EQ(err, dbt::LoadError::BadVersion) << "pos=" << pos;
        } else {
            // Size, checksum, index or body damage: structural.
            EXPECT_TRUE(err == dbt::LoadError::Truncated ||
                        err == dbt::LoadError::Corrupt)
                << "pos=" << pos << " err=" << static_cast<int>(err);
        }
    }
}

TEST(Image, CorruptFileFallsBackCold)
{
    workload::Program prog = testProgram();
    x86::Memory pmem;
    std::vector<u8> blob = builtImage(capturedRepo(prog, pmem));

    // Flip one byte deep in the record section and write it out.
    blob[blob.size() / 2] ^= 0x01;
    const std::string path = tempPath("image_corrupt.cdvmimg");
    ASSERT_TRUE(dbt::TransImage::save(path, blob));

    vmm::VmmConfig cfg = cfgSoft();
    cfg.warmStartLoadPath = path;
    x86::Memory mem, ref_mem;
    vmm::VmmStats st;
    const RunResult got = runVmm(prog, mem, cfg, &st);
    const RunResult ref = runInterp(prog, ref_mem);
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem));
    EXPECT_EQ(st.warmLoaded, 0u);
    EXPECT_EQ(st.warmInstalled, 0u);
    EXPECT_EQ(st.warmMappedBytes, 0u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Content addressing: staleness and dedupe
// ---------------------------------------------------------------------

TEST(Image, StalePageHashInvalidation)
{
    // Capture program A, then boot program B (different code at the
    // same addresses): every mismatching record silently cold-falls.
    workload::Program progA = testProgram(7);
    x86::Memory memA;
    const std::vector<u8> blob = builtImage(capturedRepo(progA, memA));
    const std::string path = tempPath("image_stale.cdvmimg");
    ASSERT_TRUE(dbt::TransImage::save(path, blob));

    workload::Program progB = testProgram(8);
    vmm::VmmConfig cfg = cfgSoft();
    cfg.warmStartLoadPath = path;
    x86::Memory mem, ref_mem;
    vmm::VmmStats st;
    const RunResult got = runVmm(progB, mem, cfg, &st);
    const RunResult ref = runInterp(progB, ref_mem);
    EXPECT_TRUE(sameOutcome(progB, ref, ref_mem, got, mem));

    EXPECT_GT(st.warmLoaded, 0u);
    EXPECT_GT(st.warmInvalidated, 0u);
    EXPECT_EQ(st.warmInstalled + st.warmInvalidated, st.warmLoaded);
    EXPECT_EQ(st.warmBodyCopies, 0u);
    std::remove(path.c_str());
}

TEST(Image, DedupeAcrossContexts)
{
    // Two contexts booting the same guest image capture identical
    // translations; the builder keeps one physical record per content.
    workload::Program prog = testProgram(11);
    x86::Memory m1, m2;
    const dbt::Repository r1 = capturedRepo(prog, m1);
    const dbt::Repository r2 = capturedRepo(prog, m2);
    ASSERT_FALSE(r1.entries.empty());
    ASSERT_EQ(r1.entries.size(), r2.entries.size());

    dbt::ImageBuilder b;
    b.add(r1);
    b.add(r2);
    EXPECT_EQ(b.dedupeHits(), r2.entries.size());
    const std::vector<u8> blob = b.build();

    dbt::TransImage img = adopted(blob);
    EXPECT_EQ(img.recordCount(), r1.entries.size());
    EXPECT_EQ(img.header().dedupeHits, r2.entries.size());

    // Both contexts install the full set from the shared record.
    InstallTarget t1(prog), t2(prog);
    const engine::WarmStartReport a =
        engine::warmStartInstall(img, t1.mem, t1.ccm, t1.prof);
    const engine::WarmStartReport c =
        engine::warmStartInstall(img, t2.mem, t2.ccm, t2.prof);
    EXPECT_EQ(a.installed, img.recordCount());
    EXPECT_EQ(c.installed, img.recordCount());
    EXPECT_EQ(a.invalidated, 0u);
    EXPECT_EQ(c.invalidated, 0u);
}

TEST(Image, MergedImageKeepsConflictingClassesApart)
{
    // Two workload classes place *different* code at the same guest
    // addresses. A merged image must install each class's records
    // only in the matching context (per-record content addresses).
    workload::Program progA = testProgram(7);
    workload::Program progB = testProgram(8);
    x86::Memory mA, mB;
    const dbt::Repository rA = capturedRepo(progA, mA);
    const dbt::Repository rB = capturedRepo(progB, mB);

    dbt::ImageBuilder b;
    b.add(rA);
    b.add(rB);
    dbt::TransImage img = adopted(b.build());
    ASSERT_GT(img.recordCount(), rA.entries.size());

    InstallTarget tA(progA), tB(progB);
    const engine::WarmStartReport repA =
        engine::warmStartInstall(img, tA.mem, tA.ccm, tA.prof);
    const engine::WarmStartReport repB =
        engine::warmStartInstall(img, tB.mem, tB.ccm, tB.prof);

    // Every record either installs or invalidates, per context, and
    // each context accepts at least its own class's captures.
    EXPECT_EQ(repA.installed + repA.invalidated, img.recordCount());
    EXPECT_EQ(repB.installed + repB.invalidated, img.recordCount());
    EXPECT_GE(repA.installed, rA.entries.size());
    EXPECT_GT(repA.invalidated, 0u);
    EXPECT_GE(repB.installed, rB.entries.size());
    EXPECT_GT(repB.invalidated, 0u);
}

// ---------------------------------------------------------------------
// Zero-copy: the acceptance stat and bit-identical warm runs
// ---------------------------------------------------------------------

TEST(Image, ZeroCopyInstallStats)
{
    workload::Program prog = testProgram();
    x86::Memory pmem;
    const dbt::Repository repo = capturedRepo(prog, pmem);
    dbt::TransImage img = adopted(builtImage(repo));

    // Zero per-record body copies, and the stats describe exactly
    // what the image holds.
    InstallTarget mapped(prog);
    const engine::WarmStartReport mr = engine::warmStartInstall(
        img, mapped.mem, mapped.ccm, mapped.prof);
    u64 image_insns = 0;
    for (std::size_t i = 0; i < img.recordCount(); ++i)
        image_insns += img.record(i).hdr->numX86Insns;
    ASSERT_GT(mr.installed, 0u);
    EXPECT_EQ(mr.bodyCopies, 0u);
    EXPECT_EQ(mr.installed, img.recordCount());
    EXPECT_EQ(mr.installedInsns, image_insns);
    EXPECT_EQ(mr.invalidated, 0u);
    EXPECT_EQ(mr.mappedBytes, img.sizeBytes());
    EXPECT_EQ(mr.relocations, img.relocs().size());

    // Installed translations really are views into the image.
    for (std::size_t i = 0; i < img.recordCount(); ++i) {
        const dbt::TransImage::RecordView v = img.record(i);
        const dbt::Translation *t =
            mapped.ccm.lookup(v.hdr->entryPc,
                              static_cast<dbt::TransKind>(v.hdr->kind));
        ASSERT_NE(t, nullptr) << i;
        EXPECT_TRUE(t->mappedBody()) << i;
        EXPECT_EQ(t->code().data(), v.uops.data()) << i;
        EXPECT_EQ(t->pcSpan().data(), v.x86pcs.data()) << i;
    }
}

TEST(Image, WarmRunBitIdenticalToCold)
{
    workload::Program prog = testProgram(21);
    const std::string path = tempPath("image_warm.cdvmimg");

    // Cold run; save the image through the engine's own save path.
    x86::Memory cold_mem;
    prog.loadInto(cold_mem);
    RunResult cold;
    cold.cpu = prog.initialState();
    {
        vmm::Vmm vm(cold_mem, cfgSoft());
        cold.exit = vm.run(cold.cpu, 10'000'000);
        cold.retired = cold.cpu.icount;
        ASSERT_TRUE(vm.saveWarmStart(path));
    }

    // The file really is a zero-copy image.
    {
        dbt::TransImage img;
        ASSERT_EQ(dbt::TransImage::load(path, img),
                  dbt::LoadError::None);
        EXPECT_GT(img.recordCount(), 0u);
    }

    // Warm run maps the image: zero body copies, identical retire.
    vmm::VmmConfig warm_cfg = cfgSoft();
    warm_cfg.warmStartLoadPath = path;
    x86::Memory warm_mem;
    vmm::VmmStats warm_st;
    const RunResult warm = runVmm(prog, warm_mem, warm_cfg, &warm_st);

    EXPECT_TRUE(sameOutcome(prog, cold, cold_mem, warm, warm_mem));
    EXPECT_EQ(warm.retired, cold.retired);
    EXPECT_GT(warm_st.warmInstalled, 0u);
    EXPECT_EQ(warm_st.warmBodyCopies, 0u);
    EXPECT_GT(warm_st.warmMappedBytes, 0u);
    EXPECT_GT(warm_st.warmRelocations, 0u);
    std::remove(path.c_str());
}

TEST(Image, TemplateProvenanceRoundTrip)
{
    workload::Program prog = testProgram(33);
    const std::string path = tempPath("image_tmpl.cdvmimg");

    vmm::VmmConfig cfg = engine::EngineConfig::fromSpec("tmpl");
    cfg.hotThreshold = 30;

    // Cold run under the template tier; the captured repository and
    // the image byte format both remember the producing tier.
    x86::Memory cold_mem;
    prog.loadInto(cold_mem);
    RunResult cold;
    cold.cpu = prog.initialState();
    {
        vmm::Vmm vm(cold_mem, cfg);
        cold.exit = vm.run(cold.cpu, 10'000'000);
        cold.retired = cold.cpu.icount;

        const dbt::Repository repo = vm.captureWarmStart();
        ASSERT_FALSE(repo.entries.empty());
        std::size_t tmpl = 0, sbt = 0;
        for (const auto &e : repo.entries) {
            tmpl += e.provenance == dbt::TransProvenance::TmplBbt;
            sbt += e.provenance == dbt::TransProvenance::Sbt;
        }
        EXPECT_GT(tmpl, 0u) << "no template-built blocks captured";
        EXPECT_GT(sbt, 0u) << "no superblocks captured";

        const dbt::Repository back =
            adopted(builtImage(repo)).toRepository();
        ASSERT_EQ(back.entries.size(), repo.entries.size());
        for (std::size_t i = 0; i < repo.entries.size(); ++i)
            EXPECT_EQ(static_cast<int>(back.entries[i].provenance),
                      static_cast<int>(repo.entries[i].provenance))
                << i;

        ASSERT_TRUE(vm.saveWarmStart(path));
    }

    // Warm boot: the zero-copy install restores provenance, the run
    // needs no cold template translation, and retire is identical.
    vmm::VmmConfig warm_cfg = cfg;
    warm_cfg.warmStartLoadPath = path;
    x86::Memory warm_mem;
    prog.loadInto(warm_mem);
    RunResult warm;
    warm.cpu = prog.initialState();
    vmm::Vmm vm(warm_mem, warm_cfg);

    std::size_t tmpl_installed = 0, installed = 0;
    vm.translations().forEach([&](const dbt::Translation &t) {
        ++installed;
        tmpl_installed +=
            t.provenance == dbt::TransProvenance::TmplBbt;
    });
    EXPECT_GT(installed, 0u) << "warm start installed nothing";
    EXPECT_GT(tmpl_installed, 0u)
        << "template provenance lost across the image";

    warm.exit = vm.run(warm.cpu, 10'000'000);
    warm.retired = warm.cpu.icount;
    EXPECT_TRUE(sameOutcome(prog, cold, cold_mem, warm, warm_mem));
    EXPECT_EQ(warm.retired, cold.retired);
    EXPECT_EQ(vm.stats().bbtTranslations, 0u)
        << "warm template boot fell back to cold translation";
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Rejection of removed and future formats
// ---------------------------------------------------------------------

TEST(Image, GoldenV1FixtureRejected)
{
    // A checked-in repository file in the retired v1 ("CDVMREPO")
    // format, captured from testProgram(42). The image loader must
    // reject it with a typed error, and a VM pointed at it must boot
    // cold and still retire exactly what the interpreter does.
    const std::string path =
        std::string(CDVM_TEST_SRC_DIR) + "/golden/repo_v1.cdvm";
    std::ifstream probe(path, std::ios::binary);
    ASSERT_TRUE(probe.good()) << "missing golden file " << path;

    dbt::TransImage img;
    EXPECT_EQ(dbt::TransImage::load(path, img),
              dbt::LoadError::BadMagic);

    const workload::Program prog = testProgram(42);
    vmm::VmmConfig cfg = cfgSoft();
    cfg.warmStartLoadPath = path;
    x86::Memory mem, ref_mem;
    vmm::VmmStats st;
    const RunResult got = runVmm(prog, mem, cfg, &st);
    const RunResult ref = runInterp(prog, ref_mem);
    EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem));
    EXPECT_EQ(got.retired, ref.retired);
    EXPECT_EQ(st.warmLoaded, 0u);
    EXPECT_EQ(st.warmInstalled, 0u);
    EXPECT_EQ(st.warmMappedBytes, 0u);
    EXPECT_GT(st.bbtTranslations, 0u);
}

TEST(Image, TrailingBytesRejectedAsCorrupt)
{
    // A file is exactly one image: bytes appended after totalBytes
    // (the shape of a torn or foreign append) are Corrupt, over the
    // file backing as well as the adopted one.
    x86::Memory mem;
    std::vector<u8> blob = builtImage(capturedRepo(testProgram(), mem));
    blob.resize(blob.size() + 40, 0x5A);
    const std::string path = tempPath("image_trailing.cdvmimg");
    ASSERT_TRUE(dbt::TransImage::save(path, blob));

    dbt::TransImage img;
    EXPECT_EQ(dbt::TransImage::load(path, img),
              dbt::LoadError::Corrupt);
    EXPECT_EQ(dbt::TransImage::adopt(blob, img),
              dbt::LoadError::Corrupt);
    std::remove(path.c_str());
}

TEST(Image, FutureVersionsRejected)
{
    x86::Memory mem;
    std::vector<u8> blob = builtImage(capturedRepo(testProgram(), mem));
    blob[8] = 0x7F; // ImageHeader::version low byte
    dbt::TransImage out;
    EXPECT_EQ(dbt::TransImage::adopt(blob, out),
              dbt::LoadError::BadVersion);
}

TEST(Image, PreviousVersionRejected)
{
    // A version-2 image (the retired fnv1a-sealed format) or a
    // version-3 one (fnv1a page hashes) with a valid seal is rejected
    // on its version, never parsed, and a VM pointed at one boots
    // cold.
    const workload::Program prog = testProgram();
    x86::Memory pmem;
    const std::vector<u8> current = builtImage(capturedRepo(prog, pmem));
    for (u32 version : {2u, 3u}) {
        SCOPED_TRACE("version " + std::to_string(version));
        std::vector<u8> blob = current;
        poke<u32>(blob, offsetof(dbt::ImageHeader, version), version);
        reseal(blob);
        dbt::TransImage img;
        EXPECT_EQ(dbt::TransImage::adopt(blob, img),
                  dbt::LoadError::BadVersion);

        const std::string path =
            tempPath(("image_v" + std::to_string(version) + ".cdvmimg")
                         .c_str());
        ASSERT_TRUE(dbt::TransImage::save(path, blob));
        EXPECT_EQ(dbt::TransImage::load(path, img),
                  dbt::LoadError::BadVersion);

        // Architected state matches the interpreter's, and the run is
        // exactly a cold boot (CpuState::icount is compared with a
        // cold VM: the VM's count may differ from the interpreter's).
        vmm::VmmConfig cfg = cfgSoft();
        cfg.warmStartLoadPath = path;
        x86::Memory mem, ref_mem, cold_mem;
        vmm::VmmStats st, cold_st;
        const RunResult got = runVmm(prog, mem, cfg, &st);
        const RunResult ref = runInterp(prog, ref_mem);
        const RunResult cold = runVmm(prog, cold_mem, cfgSoft(), &cold_st);
        EXPECT_TRUE(sameOutcome(prog, ref, ref_mem, got, mem));
        EXPECT_EQ(got.retired, cold.retired);
        EXPECT_EQ(st.warmLoaded, 0u);
        EXPECT_EQ(st.warmInstalled, 0u);
        EXPECT_EQ(st.warmMappedBytes, 0u);
        EXPECT_EQ(st.bbtTranslations, cold_st.bbtTranslations);
        EXPECT_GT(st.bbtTranslations, 0u);
        std::remove(path.c_str());
    }
}

TEST(Image, EveryPageByteFlipChangesPageHash)
{
    // guestPageHash reads every byte of the page: unlike the image
    // seal, no word (bytes 24-31 included) is read as zero.
    const Addr page = 0x400000;
    x86::Memory mem;
    Pcg32 rng(5, 1);
    for (Addr a = page; a < page + 4096; a += 4)
        mem.write32(a, rng.next());
    const u64 base = dbt::guestPageHash(mem, page);
    for (Addr a = page; a < page + 4096; ++a) {
        const u8 was = mem.read8(a);
        for (u8 flip : {u8{0x01}, u8{0x80}, u8{0xff}}) {
            mem.write8(a, was ^ flip);
            EXPECT_NE(dbt::guestPageHash(mem, page), base)
                << "byte " << (a - page) << " ^ " << int{flip};
        }
        mem.write8(a, was);
    }
    EXPECT_EQ(dbt::guestPageHash(mem, page), base);
}

// ---------------------------------------------------------------------
// The seal: exhaustive single-word detection, and the structural
// checks behind it (reached by re-sealing damaged blobs)
// ---------------------------------------------------------------------

TEST(Image, EveryWordFlipRejected)
{
    // A small budgeted image, so every word can be flipped.
    x86::Memory mem;
    const std::vector<u8> blob =
        builtImage(capturedRepo(testProgram(), mem), 16 * 1024);
    dbt::TransImage img = adopted(blob);
    ASSERT_GT(img.recordCount(), 0u);
    ASSERT_FALSE(img.relocs().empty());
    ASSERT_EQ(blob.size() % 8, 0u);

    // The seal is imageChecksum, and it ignores its own field.
    EXPECT_EQ(dbt::imageChecksum(blob), img.header().checksum);
    for (u64 field : {u64{0}, ~u64{0}, u64{0x0123456789ABCDEF}}) {
        std::vector<u8> other = blob;
        poke<u64>(other, offsetof(dbt::ImageHeader, checksum), field);
        EXPECT_EQ(dbt::imageChecksum(other), img.header().checksum);
    }

    // One bit in every word, the checksum word and the last word
    // included; the bit position walks through all 64 across words.
    const std::size_t words = blob.size() / 8;
    for (std::size_t w = 0; w < words; ++w) {
        const unsigned bit = w % 64;
        const std::size_t pos = 8 * w + bit / 8;
        std::vector<u8> bad = blob;
        bad[pos] ^= static_cast<u8>(1u << (bit % 8));

        dbt::LoadError want = dbt::LoadError::Corrupt;
        if (pos < 8) {
            want = dbt::LoadError::BadMagic;
        } else if (pos < 12) {
            want = dbt::LoadError::BadVersion;
        } else if (pos >= offsetof(dbt::ImageHeader, totalBytes) &&
                   pos < offsetof(dbt::ImageHeader, checksum)) {
            u64 total = 0;
            std::memcpy(&total,
                        bad.data() + offsetof(dbt::ImageHeader,
                                              totalBytes),
                        sizeof total);
            if (total >= sizeof(dbt::ImageHeader) && total > bad.size())
                want = dbt::LoadError::Truncated;
        }
        dbt::TransImage out;
        EXPECT_EQ(dbt::TransImage::adopt(bad, out), want)
            << "word=" << w << " pos=" << pos;
    }
}

TEST(Image, ResealedStructuralDamageTyped)
{
    // Every structural check in verify() sits behind the seal, so each
    // damaged field is re-sealed to reach it; every one must be typed
    // Corrupt (and, under the sanitizers, read nothing out of bounds).
    x86::Memory mem;
    const dbt::Repository repo = capturedRepo(testProgram(), mem);
    const std::vector<u8> blob = builtImage(repo);
    dbt::TransImage img = adopted(blob);
    const dbt::ImageHeader h = img.header();
    const u64 n = img.recordCount();
    ASSERT_GT(n, 1u);
    ASSERT_FALSE(img.relocs().empty());
    ASSERT_FALSE(img.dedupeIndex().empty());
    ASSERT_FALSE(img.pageHashes().empty());

    auto sec = [&h](dbt::ImageSection s) -> const dbt::ImageSectionDesc & {
        return h.sections[static_cast<u32>(s)];
    };
    auto secField = [](dbt::ImageSection s, std::size_t field) {
        return offsetof(dbt::ImageHeader, sections) +
               static_cast<u32>(s) * sizeof(dbt::ImageSectionDesc) +
               field;
    };
    constexpr std::size_t OFF = offsetof(dbt::ImageSectionDesc, offset);
    constexpr std::size_t BYTES = offsetof(dbt::ImageSectionDesc, bytes);
    constexpr std::size_t COUNT = offsetof(dbt::ImageSectionDesc, count);
    const u64 records = sec(dbt::ImageSection::Records).offset;
    const u64 rec_bytes = sec(dbt::ImageSection::Records).bytes;
    const u64 rec_index = sec(dbt::ImageSection::RecordIndex).offset;
    // Record 0's and the last record's headers (offsets ascend).
    u64 first_off = 0, last_off = 0;
    std::memcpy(&first_off, blob.data() + rec_index, sizeof first_off);
    std::memcpy(&last_off, blob.data() + rec_index + 8 * (n - 1),
                sizeof last_off);
    auto recField = [&](u64 rec_off, std::size_t field) {
        return records + rec_off + field;
    };
    const u64 reloc0 = sec(dbt::ImageSection::Relocs).offset;
    const u64 dedupe0 = sec(dbt::ImageSection::DedupeIndex).offset;
    using RH = dbt::ImageRecordHeader;
    using Sec = dbt::ImageSection;

    struct Case
    {
        const char *name;
        std::function<void(std::vector<u8> &)> damage;
    };
    const std::vector<Case> cases = {
        {"sectionCount",
         [&](auto &b) {
             poke<u32>(b, offsetof(dbt::ImageHeader, sectionCount),
                       dbt::IMAGE_NUM_SECTIONS + 1);
         }},
        // PageIndex and BranchProfile contents are not checked, so
        // damage to their extents is caught by the section table
        // checks alone.
        {"section offset misaligned",
         [&](auto &b) {
             const dbt::ImageSectionDesc &d = sec(Sec::PageIndex);
             poke<u64>(b, secField(Sec::PageIndex, OFF), d.offset + 4);
             poke<u64>(b, secField(Sec::PageIndex, BYTES),
                       d.bytes - sizeof(dbt::ImagePageHash));
             poke<u64>(b, secField(Sec::PageIndex, COUNT), d.count - 1);
         }},
        {"section overlapping the header",
         [&](auto &b) { poke<u64>(b, secField(Sec::PageIndex, OFF), 0); }},
        {"section offset out of order",
         [&](auto &b) {
             poke<u64>(b, secField(Sec::BranchProfile, OFF),
                       sec(Sec::Relocs).offset);
         }},
        {"section offset past totalBytes",
         [&](auto &b) {
             poke<u64>(b, secField(Sec::BranchProfile, OFF),
                       h.totalBytes + 8);
         }},
        {"byte count vs entry count",
         [&](auto &b) {
             poke<u64>(b, secField(Sec::PageIndex, COUNT),
                       sec(Sec::PageIndex).count + 1);
         }},
        {"last section's entry count past the image",
         [&](auto &b) {
             poke<u64>(b, secField(Sec::BranchProfile, COUNT),
                       sec(Sec::BranchProfile).count + 1);
         }},
        {"record offset misaligned",
         [&](auto &b) { poke<u64>(b, rec_index, first_off + 4); }},
        {"record offset at the section end",
         [&](auto &b) { poke<u64>(b, rec_index, rec_bytes); }},
        {"record offset past the section",
         [&](auto &b) { poke<u64>(b, rec_index, rec_bytes + 8); }},
        {"record offset far past the image",
         [&](auto &b) { poke<u64>(b, rec_index, u64{1} << 40); }},
        {"kind > 1",
         [&](auto &b) {
             poke<u8>(b, recField(first_off, offsetof(RH, kind)), 2);
         }},
        {"flags > 31",
         [&](auto &b) {
             poke<u8>(b, recField(first_off, offsetof(RH, flags)), 32);
         }},
        {"nUops == 0",
         [&](auto &b) {
             poke<u32>(b, recField(first_off, offsetof(RH, nUops)), 0);
         }},
        {"record body past the section",
         [&](auto &b) {
             poke<u32>(b, recField(last_off, offsetof(RH, nUops)),
                       0x00FFFFFF);
         }},
        {"chainRecord >= n",
         [&](auto &b) {
             poke<u32>(b, recField(first_off, offsetof(RH, chainRecord)),
                       static_cast<u32>(n));
         }},
        {"reloc fromRecord >= n",
         [&](auto &b) {
             poke<u32>(b, reloc0 + offsetof(dbt::ImageReloc, fromRecord),
                       static_cast<u32>(n));
         }},
        {"reloc toRecord >= n",
         [&](auto &b) {
             poke<u32>(b, reloc0 + offsetof(dbt::ImageReloc, toRecord),
                       static_cast<u32>(n));
         }},
        {"reloc exitSlot >= 2",
         [&](auto &b) {
             poke<u32>(b, reloc0 + offsetof(dbt::ImageReloc, exitSlot),
                       2);
         }},
        {"dedupe record >= n",
         [&](auto &b) {
             poke<u32>(b,
                       dedupe0 + offsetof(dbt::ImageDedupeEntry, record),
                       static_cast<u32>(n));
         }},
    };

    // Control: re-sealing an undamaged blob changes nothing.
    {
        std::vector<u8> same = blob;
        reseal(same);
        EXPECT_EQ(same, blob);
    }
    for (const Case &c : cases) {
        std::vector<u8> bad = blob;
        c.damage(bad);
        ASSERT_NE(bad, blob) << c.name;
        dbt::TransImage out;
        // Unsealed, the checksum catches it first ...
        EXPECT_EQ(dbt::TransImage::adopt(bad, out),
                  dbt::LoadError::Corrupt)
            << c.name;
        // ... and re-sealed, the structural check behind it does.
        reseal(bad);
        EXPECT_EQ(dbt::TransImage::adopt(bad, out),
                  dbt::LoadError::Corrupt)
            << c.name;
    }

    // Without chains or a branch profile, Records is the last section,
    // so a record offset at its end would read a header past the
    // image: only the header-fits check stands in the way.
    dbt::Repository flat = repo;
    flat.branchProfile.clear();
    for (dbt::SavedTranslation &e : flat.entries)
        e.chains[0] = e.chains[1] = dbt::SavedChain{};
    std::vector<u8> tail = builtImage(flat);
    const dbt::ImageHeader th = adopted(tail).header();
    const dbt::ImageSectionDesc &fr =
        th.sections[static_cast<u32>(Sec::Records)];
    ASSERT_EQ(fr.offset + fr.bytes, tail.size());
    poke<u64>(tail, th.sections[static_cast<u32>(Sec::RecordIndex)].offset,
              fr.bytes);
    reseal(tail);
    dbt::TransImage out;
    EXPECT_EQ(dbt::TransImage::adopt(tail, out), dbt::LoadError::Corrupt);
}

// ---------------------------------------------------------------------
// Growth and eviction
// ---------------------------------------------------------------------

TEST(Image, GrowThroughStoreAppendAndAtomicSave)
{
    // An image grows by merging a new capture into a new generation
    // (ImageStore::append) and replacing the file atomically; a reader
    // still mapping the old file is never disturbed.
    workload::Program progA = testProgram(7);
    x86::Memory mA, mB;
    const dbt::Repository rA = capturedRepo(progA, mA);
    const dbt::Repository rB = capturedRepo(testProgram(31), mB);

    const std::string path = tempPath("image_grow.cdvmimg");
    ASSERT_TRUE(dbt::TransImage::save(path, builtImage(rA)));
    auto base = std::make_shared<dbt::TransImage>();
    ASSERT_EQ(dbt::TransImage::load(path, *base), dbt::LoadError::None);
    const std::size_t base_records = base->recordCount();

    dbt::ImageStore store(base);
    ASSERT_EQ(store.append(rB), dbt::LoadError::None);
    const std::shared_ptr<const dbt::TransImage> grown = store.acquire();
    EXPECT_EQ(grown->recordCount(),
              rA.entries.size() + rB.entries.size());
    EXPECT_EQ(grown->header().generation, 2u);

    dbt::ImageBuilder b(dbt::ImageBuilder::Options{
        0, grown->header().generation});
    b.add(*grown);
    ASSERT_TRUE(dbt::TransImage::save(path, b.build()));
    dbt::TransImage reloaded;
    ASSERT_EQ(dbt::TransImage::load(path, reloaded),
              dbt::LoadError::None);
    EXPECT_EQ(reloaded.recordCount(), grown->recordCount());
    EXPECT_EQ(reloaded.header().generation, 2u);
#ifdef __unix__
    EXPECT_TRUE(reloaded.isMapped());
#endif

    // The first generation's mapping outlived the rename.
    EXPECT_EQ(base->recordCount(), base_records);
    InstallTarget t(progA);
    const engine::WarmStartReport rep =
        engine::warmStartInstall(*base, t.mem, t.ccm, t.prof);
    EXPECT_EQ(rep.installed, base_records);
    std::remove(path.c_str());
}

TEST(Image, EvictionByBudgetKeepsHotPrefix)
{
    workload::Program prog = testProgram();
    x86::Memory pmem;
    prog.loadInto(pmem);
    x86::CpuState cpu = prog.initialState();
    vmm::Vmm vm(pmem, cfgSoft());
    vm.run(cpu, 10'000'000);
    // Hottest-first capture so the ranking is meaningful.
    const dbt::Repository repo = vm.captureWarmStart();
    ASSERT_GT(repo.entries.size(), 4u);

    const std::vector<u8> full = builtImage(repo);
    dbt::ImageBuilder b(dbt::ImageBuilder::Options{full.size() / 2, 1});
    b.add(repo);
    const std::vector<u8> small = b.build();
    ASSERT_GT(b.evicted(), 0u);
    ASSERT_LT(small.size(), full.size());
    EXPECT_LE(small.size(), full.size() / 2);

    dbt::TransImage img = adopted(small);
    EXPECT_EQ(img.header().evicted, b.evicted());
    EXPECT_EQ(img.recordCount(),
              repo.entries.size() - b.evicted());

    // The kept set is the hottest prefix of the ranking, and the
    // survivors still install (chains to evicted records dropped).
    for (std::size_t i = 0; i < img.recordCount(); ++i)
        EXPECT_EQ(img.record(i).hdr->entryPc, repo.entries[i].entryPc)
            << i;
    InstallTarget t(prog);
    const engine::WarmStartReport rep =
        engine::warmStartInstall(img, t.mem, t.ccm, t.prof);
    EXPECT_EQ(rep.installed, img.recordCount());

    // No budget pressure: nothing evicted.
    dbt::ImageBuilder loose(
        dbt::ImageBuilder::Options{2 * full.size(), 1});
    loose.add(repo);
    loose.build();
    EXPECT_EQ(loose.evicted(), 0u);
}

// ---------------------------------------------------------------------
// Sharing: single writer, concurrent readers (TSan targets)
// ---------------------------------------------------------------------

TEST(ImageConcurrency, ManyReadersOneWriterAppend)
{
    workload::Program prog = testProgram(11);
    x86::Memory m1, m2;
    const dbt::Repository base = capturedRepo(prog, m1);
    const dbt::Repository delta = capturedRepo(testProgram(31), m2);

    dbt::ImageStore store;
    store.publish(std::make_shared<const dbt::TransImage>(
        adopted(builtImage(base))));

    constexpr unsigned kReaders = 4;
    constexpr unsigned kInstallsPerReader = 6;
    constexpr unsigned kAppends = 5;
    std::atomic<unsigned> installs{0};
    std::atomic<bool> failed{false};

    std::vector<std::thread> readers;
    for (unsigned r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            for (unsigned i = 0; i < kInstallsPerReader; ++i) {
                // Hold the generation across the whole install; the
                // writer may publish newer ones meanwhile.
                std::shared_ptr<const dbt::TransImage> img =
                    store.acquire();
                if (!img) {
                    failed = true;
                    return;
                }
                InstallTarget t(prog);
                const engine::WarmStartReport rep =
                    engine::warmStartInstall(*img, t.mem, t.ccm,
                                             t.prof);
                if (rep.installed < base.entries.size() ||
                    rep.bodyCopies != 0) {
                    failed = true;
                    return;
                }
                installs.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    std::thread writer([&] {
        for (unsigned i = 0; i < kAppends; ++i) {
            if (store.append(delta) != dbt::LoadError::None)
                failed = true;
        }
    });
    for (std::thread &t : readers)
        t.join();
    writer.join();

    EXPECT_FALSE(failed.load());
    EXPECT_EQ(installs.load(), kReaders * kInstallsPerReader);
    EXPECT_EQ(store.generation(), 1u + kAppends);

    // The final generation holds both contexts' records, deduped.
    std::shared_ptr<const dbt::TransImage> fin = store.acquire();
    ASSERT_NE(fin, nullptr);
    EXPECT_EQ(fin->recordCount(),
              base.entries.size() + delta.entries.size());
}

TEST(ImageConcurrency, CompactionNeverInvalidatesHeldGenerations)
{
    workload::Program prog = testProgram(11);
    x86::Memory m1, m2;
    const dbt::Repository base = capturedRepo(prog, m1);
    const dbt::Repository delta = capturedRepo(testProgram(31), m2);

    dbt::ImageStore store;
    store.publish(std::make_shared<const dbt::TransImage>(
        adopted(builtImage(base))));

    std::atomic<bool> writerDone{false};
    std::atomic<bool> failed{false};

    std::vector<std::thread> readers;
    for (unsigned r = 0; r < 4; ++r) {
        readers.emplace_back([&] {
            // Pin the first generation and keep reading it while the
            // writer compacts replacements underneath.
            std::shared_ptr<const dbt::TransImage> pinned =
                store.acquire();
            std::vector<Addr> want;
            for (std::size_t i = 0; i < pinned->recordCount(); ++i)
                want.push_back(pinned->record(i).hdr->entryPc);
            do {
                for (std::size_t i = 0; i < pinned->recordCount();
                     ++i) {
                    const dbt::TransImage::RecordView v =
                        pinned->record(i);
                    if (v.hdr->entryPc != want[i] || v.uops.empty()) {
                        failed = true;
                        return;
                    }
                }
            } while (!writerDone.load(std::memory_order_acquire));
        });
    }
    std::thread writer([&] {
        for (unsigned i = 0; i < 8; ++i) {
            if (store.append(delta) != dbt::LoadError::None)
                failed = true;
        }
        writerDone.store(true, std::memory_order_release);
    });
    for (std::thread &t : readers)
        t.join();
    writer.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(store.generation(), 9u);
}

// ---------------------------------------------------------------------
// Fleet: 256 contexts booting from ONE shared image
// ---------------------------------------------------------------------

TEST(ImageFleet, SharedImageBootStormRetireIdentical)
{
    fleet::FleetConfig cfg;
    cfg.contexts = 256;
    cfg.workloads = 2;
    cfg.fleetSeed = 3;
    cfg.targetInsns = 40'000;
    cfg.milestoneInsns = 40'000;
    cfg.quantumInsns = 10'000;
    {
        workload::ProgramParams p;
        p.numFuncs = 5;
        p.blocksPerFunc = 3;
        p.insnsPerBlock = 8;
        p.mainIterations = 2;
        cfg.workloadParams = p;
    }

    fleet::FleetServer cold(cfg);
    const fleet::FleetResult cr = cold.run();
    ASSERT_EQ(cr.completed, cfg.contexts);
    ASSERT_EQ(cr.reachedMilestone, cfg.contexts);

    // Prime every class, merge the captures into ONE shared image.
    const engine::EngineConfig tcfg =
        fleet::tenantEngineConfig(cfg.engineCfg);
    dbt::ImageBuilder b;
    std::vector<workload::Program> progs;
    for (unsigned w = 0; w < cfg.workloads; ++w) {
        workload::ProgramParams p = cfg.workloadParams;
        p.seed = fleet::deriveSeed(cfg.fleetSeed, w);
        progs.push_back(workload::generateProgram(p));
        x86::Memory mem;
        progs.back().loadInto(mem);
        vmm::Vmm vm(mem, tcfg);
        runToTarget(vm, progs.back(), 2 * cfg.targetInsns);
        b.add(vm.captureWarmStart());
    }
    const std::vector<u8> blob = b.build();
    cfg.imageEndpoint = std::make_shared<dbt::ImageStore>(
        std::make_shared<const dbt::TransImage>(adopted(blob)));

    fleet::FleetServer warm(cfg);
    const fleet::FleetResult wr = warm.run();
    ASSERT_EQ(wr.completed, cfg.contexts);
    ASSERT_EQ(wr.reachedMilestone, cfg.contexts);

    // Boot-storm win: every context installed zero-copy from the one
    // image, and warm p99 startup beats cold strictly.
    for (const fleet::ContextResult &c : wr.contexts) {
        EXPECT_GT(c.warmInstalled, 0u) << c.id;
        EXPECT_EQ(c.warmBodyCopies, 0u) << c.id;
        EXPECT_TRUE(c.ok) << c.id;
    }
    EXPECT_GT(wr.p99TimeToMilestone, 0.0);
    EXPECT_LT(wr.p99TimeToMilestone, cr.p99TimeToMilestone);

    // Retire-identical to per-context PRIVATE loads: a solo Vmm per
    // class adopts its own private copy of the same bytes and must
    // emulate exactly what every fleet context of that class did.
    for (unsigned w = 0; w < cfg.workloads; ++w) {
        engine::SharedServices svc;
        svc.imageEndpoint = std::make_shared<dbt::ImageStore>(
            std::make_shared<const dbt::TransImage>(adopted(blob)));
        x86::Memory mem;
        progs[w].loadInto(mem);
        vmm::Vmm vm(mem, tcfg, svc);
        runToTarget(vm, progs[w], cfg.targetInsns);
        const vmm::VmmStats &st = vm.stats();
        for (const fleet::ContextResult &c : wr.contexts) {
            if (c.workload != w)
                continue;
            EXPECT_EQ(c.retired, st.totalRetired()) << c.id;
            EXPECT_EQ(c.warmInstalled, st.warmInstalled) << c.id;
            EXPECT_EQ(c.warmInvalidated, st.warmInvalidated) << c.id;
            EXPECT_EQ(c.warmRelocations, st.warmRelocations) << c.id;
            EXPECT_EQ(c.bbtTranslations, st.bbtTranslations) << c.id;
            EXPECT_EQ(c.sbtTranslations, st.sbtTranslations) << c.id;
        }
    }
}

} // namespace
} // namespace cdvm
