// Crash-safety primitives: the sealed artifact envelope, atomic file
// writes, and the checkpoint directory manager.
//
// The contract under test mirrors the fault-injection philosophy of the
// ingestion suite: a checkpoint file is third-party input by the time it
// is read back. Every corruption — truncation, bit flips, manifest
// damage, a checkpoint of a different run — must surface as a structured
// kDataLoss / diagnostic and fall back to recompute; never a crash and
// never silently trusted bytes.
#include "common/checkpoint.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/fault.hpp"
#include "common/json_writer.hpp"
#include "common/parallel.hpp"

namespace {

namespace fs = std::filesystem;
using repro::common::atomic_write_file;
using repro::common::BinaryReader;
using repro::common::BinaryWriter;
using repro::common::CheckpointManager;
using repro::common::crc32_str;
using repro::common::DiagnosticSink;
using repro::common::open_artifact;
using repro::common::read_file;
using repro::common::seal_artifact;
using repro::common::Severity;
using repro::common::Status;
using repro::common::StatusCode;
using repro::common::StatusOr;

/// Fresh empty directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  StatusOr<std::string> raw = read_file(path);
  EXPECT_TRUE(raw.ok()) << raw.status().to_string();
  return raw.ok() ? *raw : std::string();
}

void clobber(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
}

bool has_diag(const DiagnosticSink& sink, const std::string& code) {
  for (const auto& d : sink.diagnostics()) {
    if (d.code == code) return true;
  }
  return false;
}

// --- binary writer/reader -------------------------------------------------

TEST(BinIo, RoundTripsEveryFieldTypeBitExact) {
  BinaryWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-7);
  w.i64(-1234567890123LL);
  w.f64(0.1);  // not representable exactly — bit pattern must survive
  w.f32(3.14159f);
  w.str(std::string("hello\0world", 11));  // embedded NUL must survive
  const std::string buf = w.take();

  BinaryReader r(buf);
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  std::int32_t d = 0;
  std::int64_t e = 0;
  double f = 0;
  float g = 0;
  std::string s;
  EXPECT_TRUE(r.u8(a) && r.u32(b) && r.u64(c) && r.i32(d) && r.i64(e) &&
              r.f64(f) && r.f32(g) && r.str(s));
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_EQ(d, -7);
  EXPECT_EQ(e, -1234567890123LL);
  EXPECT_EQ(f, 0.1);
  EXPECT_EQ(g, 3.14159f);
  EXPECT_EQ(s, std::string("hello\0world", 11));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinIo, TruncatedReadsFailAndStayFailed) {
  BinaryWriter w;
  w.u64(42);
  std::string buf = w.take();
  buf.resize(5);  // cut the u64 in half

  BinaryReader r(buf);
  std::uint64_t v = 0;
  EXPECT_FALSE(r.u64(v));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  // Reads after a failure are no-ops, not UB.
  std::uint8_t b = 7;
  EXPECT_FALSE(r.u8(b));
  EXPECT_EQ(b, 7);
}

TEST(BinIo, ImplausibleStringLengthFails) {
  BinaryWriter w;
  w.u64(1ull << 40);  // claims a 1 TiB string in a 12-byte buffer
  w.u32(0);
  BinaryReader r(w.buffer());
  std::string s;
  EXPECT_FALSE(r.str(s));
  EXPECT_FALSE(r.ok());
}

/// CRC-32 one byte at a time through one 256-entry table: the reference
/// the sliced crc32 must reproduce.
std::uint32_t bytewise_crc32(const std::uint8_t* p, std::size_t n,
                             std::uint32_t seed = 0) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(BinIo, Crc32MatchesTheBytewiseTable) {
  using repro::common::crc32;
  EXPECT_EQ(crc32_str("123456789"), 0xCBF43926u);  // the standard check
  EXPECT_EQ(crc32_str(""), 0u);

  std::mt19937_64 rng(3);
  std::vector<std::uint8_t> data(300 * 1024 + 16);
  for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng());
  // Every length 0..64 at every start offset 0..7, so the 8-byte steps
  // and the bytewise tail see each split and each alignment.
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::uint8_t* p = data.data() + start;
      ASSERT_EQ(crc32({p, len}), bytewise_crc32(p, len))
          << "start " << start << " len " << len;
    }
  }
  // A ~300 KB artifact-sized buffer, aligned and not.
  for (std::size_t start : {0, 1, 3, 7}) {
    const std::size_t len = 300 * 1024 + 9;
    EXPECT_EQ(crc32({data.data() + start, len}),
              bytewise_crc32(data.data() + start, len))
        << "start " << start;
  }
  // Chained seeds: crc32(b, crc32(a)) == crc32(a + b), cut anywhere.
  for (std::size_t cut : {0, 1, 5, 8, 13, 64, 4099, 300 * 1024}) {
    const std::span<const std::uint8_t> all(data.data(), 300 * 1024);
    EXPECT_EQ(crc32(all.subspan(cut), crc32(all.first(cut))), crc32(all))
        << "cut " << cut;
    EXPECT_EQ(crc32(all.subspan(cut), crc32(all.first(cut))),
              bytewise_crc32(all.data() + cut, all.size() - cut,
                             bytewise_crc32(all.data(), cut)))
        << "cut " << cut;
  }
}

// --- artifact envelope ----------------------------------------------------

TEST(ArtifactEnvelope, SealOpenRoundTrip) {
  const std::string payload = "the payload \x00\x01\x02 bytes";
  const std::string raw = seal_artifact(0x54455354u, 3, payload);
  StatusOr<std::string> back = open_artifact(raw, 0x54455354u, 3);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(*back, payload);
}

TEST(ArtifactEnvelope, RejectsWrongMagicFutureVersionAndTruncation) {
  const std::string raw = seal_artifact(0x54455354u, 2, "payload");
  EXPECT_EQ(open_artifact(raw, 0x4F544852u, 2).status().code(),
            StatusCode::kDataLoss)
      << "wrong magic must be data loss";
  EXPECT_EQ(open_artifact(raw, 0x54455354u, 1).status().code(),
            StatusCode::kDataLoss)
      << "a version from the future must not half-parse";
  for (std::size_t cut : {0u, 4u, 8u, 11u}) {
    EXPECT_FALSE(open_artifact(raw.substr(0, cut), 0x54455354u, 2).ok())
        << "truncation at " << cut;
  }
}

TEST(ArtifactEnvelope, SingleBitFlipAnywhereIsDetected) {
  const std::string raw = seal_artifact(0x54455354u, 1, "sensitive payload");
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::string bad = raw;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    EXPECT_FALSE(open_artifact(bad, 0x54455354u, 1).ok())
        << "bit flip at byte " << i << " went undetected";
  }
}

// --- atomic file writes ---------------------------------------------------

TEST(AtomicWrite, WritesAndOverwritesAtomically) {
  const std::string dir = fresh_dir("atomic_write");
  const std::string path = dir + "/artifact.bin";
  ASSERT_TRUE(atomic_write_file(path, "first").ok());
  EXPECT_EQ(slurp(path), "first");
  ASSERT_TRUE(atomic_write_file(path, "second, longer content").ok());
  EXPECT_EQ(slurp(path), "second, longer content");
  // No temp files left behind.
  int entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1);
}

TEST(AtomicWrite, MissingParentDirectoryFailsCleanly) {
  const std::string dir = fresh_dir("atomic_missing");
  const Status s = atomic_write_file(dir + "/no/such/dir/f.bin", "data");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(AtomicWrite, DestinationIsADirectoryFailsAndPreservesIt) {
  // Disk-level fault injection: the rename target exists and is a
  // directory, so the final rename must fail — and the directory (the
  // "previous content") must survive untouched.
  const std::string dir = fresh_dir("atomic_dir_dest");
  const std::string dest = dir + "/occupied";
  fs::create_directory(dest);
  const Status s = atomic_write_file(dest, "data");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(fs::is_directory(dest)) << "failed write must not destroy dest";
  // The temp file must have been cleaned up on the failure path.
  int entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1);
}

TEST(AtomicWrite, ParentIsAFileFailsCleanly) {
  const std::string dir = fresh_dir("atomic_file_parent");
  ASSERT_TRUE(atomic_write_file(dir + "/plain", "x").ok());
  EXPECT_FALSE(atomic_write_file(dir + "/plain/child.bin", "data").ok());
  EXPECT_EQ(slurp(dir + "/plain"), "x");
}

TEST(AtomicWrite, JsonWriterReportsFailureNotSuccess) {
  // The report/trace/metrics writers all route through write_json_file;
  // an unwritable path must return false, never claim success.
  EXPECT_FALSE(repro::common::write_json_file(
      fresh_dir("json_fail") + "/missing/out.json", "{}"));
}

// --- checkpoint manager ---------------------------------------------------

TEST(Checkpoint, FreshDirectoryStartsEmptyAndRoundTrips) {
  const std::string dir = fresh_dir("ckpt_fresh") + "/nested/deeper";
  DiagnosticSink sink;
  auto ckpt = CheckpointManager::open(dir, 0xABCDu, sink);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();
  EXPECT_TRUE(ckpt->names().empty());
  EXPECT_FALSE(ckpt->has("fold_0.result"));
  EXPECT_EQ(ckpt->read("fold_0.result", sink).status().code(),
            StatusCode::kNotFound);

  const std::string data = seal_artifact(0x41414141u, 1, "fold zero bytes");
  ASSERT_TRUE(ckpt->write("fold_0.result", data).ok());
  EXPECT_TRUE(ckpt->has("fold_0.result"));
  auto back = ckpt->read("fold_0.result", sink);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
  EXPECT_EQ(sink.num_errors(), 0u);
}

TEST(Checkpoint, SurvivesReopenWithSameRunKey) {
  const std::string dir = fresh_dir("ckpt_reopen");
  DiagnosticSink sink;
  {
    auto ckpt = CheckpointManager::open(dir, 42, sink);
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt->write("b.model", "BBB").ok());
    ASSERT_TRUE(ckpt->write("a.result", "AAA").ok());
  }
  auto again = CheckpointManager::open(dir, 42, sink);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->names(), (std::vector<std::string>{"a.result", "b.model"}));
  auto a = again->read("a.result", sink);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "AAA");
}

TEST(Checkpoint, RunKeyMismatchDiscardsForeignArtifacts) {
  const std::string dir = fresh_dir("ckpt_foreign");
  DiagnosticSink sink;
  {
    auto ckpt = CheckpointManager::open(dir, 1, sink);
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt->write("fold_0.result", "of run 1").ok());
  }
  // A different configuration must not resume from run 1's results.
  DiagnosticSink sink2;
  auto other = CheckpointManager::open(dir, 2, sink2);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->has("fold_0.result"));
  EXPECT_TRUE(other->names().empty());
  EXPECT_FALSE(sink2.diagnostics().empty())
      << "silently ignoring a foreign checkpoint hides a config mismatch";
}

TEST(Checkpoint, CorruptArtifactIsDiagnosedDroppedAndReplaceable) {
  const std::string dir = fresh_dir("ckpt_corrupt");
  DiagnosticSink sink;
  auto ckpt = CheckpointManager::open(dir, 7, sink);
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(ckpt->write("fold_3.result", "good artifact bytes").ok());

  // Bit-rot the artifact behind the manager's back.
  clobber(dir + "/fold_3.result", "good artifact bytEs");
  DiagnosticSink read_sink;
  auto bad = ckpt->read("fold_3.result", read_sink);
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(has_diag(read_sink, "checkpoint.corrupt_artifact"));
  // The manifest entry was dropped, so the caller's recompute can write.
  EXPECT_FALSE(ckpt->has("fold_3.result"));
  ASSERT_TRUE(ckpt->write("fold_3.result", "recomputed bytes").ok());
  auto again = ckpt->read("fold_3.result", read_sink);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, "recomputed bytes");
}

TEST(Checkpoint, TruncatedArtifactIsDataLoss) {
  const std::string dir = fresh_dir("ckpt_trunc");
  DiagnosticSink sink;
  auto ckpt = CheckpointManager::open(dir, 7, sink);
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(ckpt->write("m.model", std::string(1000, 'x')).ok());
  clobber(dir + "/m.model", std::string(500, 'x'));  // crash-torn file
  DiagnosticSink read_sink;
  EXPECT_EQ(ckpt->read("m.model", read_sink).status().code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(has_diag(read_sink, "checkpoint.corrupt_artifact"));
}

TEST(Checkpoint, MissingArtifactFileIsDataLossNotCrash) {
  const std::string dir = fresh_dir("ckpt_missing_file");
  DiagnosticSink sink;
  auto ckpt = CheckpointManager::open(dir, 7, sink);
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(ckpt->write("gone.result", "bytes").ok());
  fs::remove(dir + "/gone.result");
  DiagnosticSink read_sink;
  EXPECT_FALSE(ckpt->read("gone.result", read_sink).ok());
  EXPECT_TRUE(has_diag(read_sink, "checkpoint.corrupt_artifact"));
}

TEST(Checkpoint, CorruptManifestStartsFreshWithDiagnostic) {
  const std::string dir = fresh_dir("ckpt_bad_manifest");
  DiagnosticSink sink;
  {
    auto ckpt = CheckpointManager::open(dir, 9, sink);
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt->write("x.result", "bytes").ok());
  }
  for (const std::string& garbage :
       {std::string("{truncated"), std::string("not json at all"),
        std::string("\x00\xff\x7f", 3), std::string()}) {
    clobber(dir + "/manifest.json", garbage);
    DiagnosticSink open_sink;
    auto ckpt = CheckpointManager::open(dir, 9, open_sink);
    ASSERT_TRUE(ckpt.ok()) << "corrupt manifest must not abort the run";
    EXPECT_TRUE(ckpt->names().empty());
    EXPECT_FALSE(open_sink.diagnostics().empty());
  }
}

TEST(Checkpoint, RemoveForgetsTheArtifact) {
  const std::string dir = fresh_dir("ckpt_remove");
  DiagnosticSink sink;
  auto ckpt = CheckpointManager::open(dir, 5, sink);
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(ckpt->write("fold_0.model", "model bytes").ok());
  ASSERT_TRUE(ckpt->remove("fold_0.model").ok());
  EXPECT_FALSE(ckpt->has("fold_0.model"));
  EXPECT_FALSE(fs::exists(dir + "/fold_0.model"));
  // Removing something absent is fine (the fold may never have started).
  EXPECT_TRUE(ckpt->remove("fold_0.model").ok());
}

TEST(Checkpoint, ConcurrentWritersOfDistinctNamesAreSafe) {
  const std::string dir = fresh_dir("ckpt_concurrent");
  DiagnosticSink sink;
  auto ckpt = CheckpointManager::open(dir, 11, sink);
  ASSERT_TRUE(ckpt.ok());
  repro::common::set_global_threads(8);
  repro::common::parallel_for(32, [&](std::int64_t i) {
    const std::string name = "fold_" + std::to_string(i) + ".result";
    ASSERT_TRUE(ckpt->write(name, "payload " + std::to_string(i)).ok());
  });
  repro::common::set_global_threads(0);
  EXPECT_EQ(ckpt->names().size(), 32u);
  for (std::int64_t i = 0; i < 32; ++i) {
    auto raw = ckpt->read("fold_" + std::to_string(i) + ".result", sink);
    ASSERT_TRUE(raw.ok()) << "fold " << i;
    EXPECT_EQ(*raw, "payload " + std::to_string(i));
  }
}

TEST(Checkpoint, UnwritableDirectoryFailsOpenCleanly) {
  // The open itself hits the I/O failure (parent is a plain file), so a
  // bad --checkpoint-dir is a structured error before any work is done.
  const std::string dir = fresh_dir("ckpt_unwritable");
  ASSERT_TRUE(atomic_write_file(dir + "/file", "x").ok());
  DiagnosticSink sink;
  auto ckpt = CheckpointManager::open(dir + "/file/sub", 1, sink);
  EXPECT_FALSE(ckpt.ok());
}

TEST(Checkpoint, TruncatedSealedEnvelopeFallsBackToRecompute) {
  // A fold result is a sealed envelope *inside* a checkpoint artifact.
  // Truncate the file at every plausible crash point: either the
  // manifest size check or the envelope CRC must catch it, and the
  // recompute path (drop + rewrite) must work afterwards.
  const std::string dir = fresh_dir("ckpt_trunc_envelope");
  DiagnosticSink sink;
  auto ckpt = CheckpointManager::open(dir, 21, sink);
  ASSERT_TRUE(ckpt.ok());
  const std::string sealed = seal_artifact(0x43524553u, 1, "fold payload");
  for (const std::size_t cut : {std::size_t{0}, std::size_t{4},
                                std::size_t{8}, sealed.size() - 1}) {
    ASSERT_TRUE(ckpt->write("fold_0.result", sealed).ok());
    clobber(dir + "/fold_0.result", sealed.substr(0, cut));
    DiagnosticSink read_sink;
    auto raw = ckpt->read("fold_0.result", read_sink);
    EXPECT_EQ(raw.status().code(), StatusCode::kDataLoss) << "cut " << cut;
    EXPECT_TRUE(has_diag(read_sink, "checkpoint.corrupt_artifact"));
    EXPECT_FALSE(ckpt->has("fold_0.result"));
  }
  // And a truncation that keeps the manifest happy (same length) still
  // dies at the envelope layer when the payload bytes changed.
  std::string sneaky = sealed;
  sneaky[sealed.size() / 2] = static_cast<char>(sneaky[sealed.size() / 2] ^ 1);
  ASSERT_TRUE(ckpt->write("fold_1.result", sealed).ok());
  clobber(dir + "/fold_1.result", sneaky);
  DiagnosticSink read_sink;
  EXPECT_FALSE(ckpt->read("fold_1.result", read_sink).ok());
}

TEST(Checkpoint, BitFlippedManifestNeverTrustsCorruptState) {
  // Flip one bit at every byte of a valid manifest. Each flip must land
  // in one of two safe outcomes: the manifest no longer parses (fresh
  // start, diagnostic) or it parses but the artifact read re-validates
  // against the (now wrong) size/CRC and recomputes. No outcome may
  // return bytes that differ from the original artifact.
  const std::string dir = fresh_dir("ckpt_manifest_flip");
  DiagnosticSink sink;
  {
    auto ckpt = CheckpointManager::open(dir, 33, sink);
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt->write("fold_0.result", "stable artifact bytes").ok());
  }
  const std::string manifest = slurp(dir + "/manifest.json");
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    std::string bad = manifest;
    bad[i] = static_cast<char>(bad[i] ^ 0x04);
    clobber(dir + "/manifest.json", bad);
    DiagnosticSink open_sink;
    auto ckpt = CheckpointManager::open(dir, 33, open_sink);
    ASSERT_TRUE(ckpt.ok()) << "flip at byte " << i;
    if (ckpt->has("fold_0.result")) {
      DiagnosticSink read_sink;
      auto raw = ckpt->read("fold_0.result", read_sink);
      if (raw.ok()) {
        EXPECT_EQ(*raw, "stable artifact bytes") << "flip at byte " << i;
      }
    }
  }
  clobber(dir + "/manifest.json", manifest);  // restore for other tests
}

TEST(Checkpoint, LeftoverTempFilesAreSweptOnOpen) {
  // A crash between temp-write and rename leaves *.tmp litter. open()
  // must sweep it (with a note) without touching committed artifacts.
  const std::string dir = fresh_dir("ckpt_tmp_sweep");
  DiagnosticSink sink;
  {
    auto ckpt = CheckpointManager::open(dir, 13, sink);
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt->write("fold_0.result", "committed").ok());
  }
  clobber(dir + "/fold_1.result.tmp", "torn write");
  clobber(dir + "/manifest.json.tmp", "torn manifest");
  DiagnosticSink open_sink;
  auto ckpt = CheckpointManager::open(dir, 13, open_sink);
  ASSERT_TRUE(ckpt.ok());
  EXPECT_FALSE(fs::exists(dir + "/fold_1.result.tmp"));
  EXPECT_FALSE(fs::exists(dir + "/manifest.json.tmp"));
  EXPECT_TRUE(has_diag(open_sink, "checkpoint.stale_tmp"));
  auto raw = ckpt->read("fold_0.result", open_sink);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, "committed");
}

TEST(Checkpoint, SecondOpenerFailsFastWhileFirstIsAlive) {
  // Two CheckpointManagers on one directory would interleave manifest
  // rewrites; the directory flock turns that race into a diagnostic.
  const std::string dir = fresh_dir("ckpt_locked");
  DiagnosticSink sink;
  auto first = CheckpointManager::open(dir, 1, sink);
  ASSERT_TRUE(first.ok());
  auto second = CheckpointManager::open(dir, 1, sink);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  // The holder's pid is in the message so the operator can find it.
  EXPECT_NE(second.status().message().find("locked by pid"),
            std::string::npos)
      << second.status().message();
}

TEST(Checkpoint, LockIsReleasedWhenManagerDies) {
  const std::string dir = fresh_dir("ckpt_lock_release");
  DiagnosticSink sink;
  {
    auto ckpt = CheckpointManager::open(dir, 1, sink);
    ASSERT_TRUE(ckpt.ok());
  }
  auto again = CheckpointManager::open(dir, 1, sink);
  EXPECT_TRUE(again.ok()) << again.status().to_string();
}

TEST(Checkpoint, OpenExistingAdoptsStoredRunKey) {
  const std::string dir = fresh_dir("ckpt_adopt");
  DiagnosticSink sink;
  {
    auto ckpt = CheckpointManager::open(dir, 0xFEEDu, sink);
    ASSERT_TRUE(ckpt.ok());
    ASSERT_TRUE(ckpt->write("fold_2.result", "shard result").ok());
  }
  // The campaign merge step does not know the workers' run key; it
  // adopts whatever the manifest says and still CRC-validates reads.
  auto ckpt = CheckpointManager::open_existing(dir, sink);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().to_string();
  EXPECT_EQ(ckpt->run_key(), 0xFEEDu);
  auto raw = ckpt->read("fold_2.result", sink);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, "shard result");
  EXPECT_EQ(CheckpointManager::open_existing(
                fresh_dir("ckpt_adopt_gone") + "/nope", sink)
                .status()
                .code(),
            StatusCode::kNotFound);
}

// --- deterministic fault injection ----------------------------------------

TEST(FaultHook, CorruptArtifactWritesDamagedBytesManifestKeepsTruth) {
  // corrupt_artifact:K damages commit K's bytes while the manifest
  // records the true CRC — the exact signature of a torn write. The
  // read path must catch it and fall back to recompute.
  repro::common::fault::reset();
  auto spec = repro::common::fault::parse_fault_spec("corrupt_artifact:1");
  ASSERT_TRUE(spec.ok()) << spec.status().to_string();
  repro::common::fault::configure(*spec);

  const std::string dir = fresh_dir("ckpt_fault_corrupt");
  DiagnosticSink sink;
  auto ckpt = CheckpointManager::open(dir, 3, sink);
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(ckpt->write("fold_0.model", "model bytes").ok());   // commit 0
  ASSERT_TRUE(ckpt->write("fold_0.result", "result bytes").ok());  // commit 1
  repro::common::fault::reset();

  DiagnosticSink read_sink;
  auto model = ckpt->read("fold_0.model", read_sink);
  ASSERT_TRUE(model.ok()) << "commit 0 must be untouched";
  EXPECT_EQ(*model, "model bytes");
  auto result = ckpt->read("fold_0.result", read_sink);
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(has_diag(read_sink, "checkpoint.corrupt_artifact"));
  ASSERT_TRUE(ckpt->write("fold_0.result", "result bytes").ok());
  EXPECT_TRUE(ckpt->read("fold_0.result", read_sink).ok());
}

TEST(FaultHookDeathTest, CrashAfterArtifactKillsAfterDurableCommit) {
  // crash_after_artifact:K SIGKILLs the process *after* commit K is
  // durable: the child dies by signal 9 and the artifact it committed
  // survives for the parent to read back.
  const std::string dir = fresh_dir("ckpt_fault_crash");
  EXPECT_EXIT(
      {
        auto spec =
            repro::common::fault::parse_fault_spec("crash_after_artifact:0");
        repro::common::fault::configure(*spec);
        DiagnosticSink sink;
        auto ckpt = CheckpointManager::open(dir, 4, sink);
        (void)ckpt->write("fold_0.result", "durable before death");
        std::_Exit(0);  // unreachable: the write must have killed us
      },
      ::testing::KilledBySignal(SIGKILL), "");
  DiagnosticSink sink;
  auto ckpt = CheckpointManager::open(dir, 4, sink);
  ASSERT_TRUE(ckpt.ok());
  auto raw = ckpt->read("fold_0.result", sink);
  ASSERT_TRUE(raw.ok()) << "the commit before the crash must be durable";
  EXPECT_EQ(*raw, "durable before death");
}

TEST(FaultHook, ParserRejectsMalformedSpecs) {
  namespace fault = repro::common::fault;
  for (const char* bad :
       {"crash_after_artifact", "crash_after_artifact:",
        "crash_after_artifact:x", "crash_after_artifact:-1", "unknown:3",
        "hang", "corrupt_artifact:1junk"}) {
    EXPECT_FALSE(fault::parse_fault_spec(bad).ok()) << "'" << bad << "'";
  }
  auto ok = fault::parse_fault_spec("hang:7");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->ordinal, 7);
  // The empty string is "no fault armed", not an error (an unset env
  // variable must not abort the workload).
  auto none = fault::parse_fault_spec("");
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->armed());
}

}  // namespace
