// Crash-safety battery for the correction write-ahead log
// (serve/correction_wal.h): record-format round trips, CRC verification,
// torn/corrupt/oversized-tail truncation (loud, in place, never fatal),
// kill-and-restart replay through ModelRegistry, the ack-gating contract
// (a correction is acknowledged only after it is durably in the log, and
// every acknowledged one replays), and deterministic WAL-append fault
// injection.

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/correction_wal.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"

namespace sato {
namespace {

using serve::Correction;
using serve::CorrectionWal;
using serve::CorrectionWalOptions;
using serve::FaultInjector;
using serve::FaultPlan;
using serve::FaultPoint;
using serve::ModelRegistry;
using serve::WalFsync;
using serve::WalReplayResult;

/// Fresh per-test path under the gtest temp dir; any stale file from a
/// previous run is removed so replays start from a known state.
std::string WalPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "sato_wal_test_" + name + ".wal";
  std::remove(path.c_str());
  return path;
}

void AppendRawBytes(const std::string& path, std::string_view bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

off_t FileSize(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return -1;
  off_t size = ::lseek(fd, 0, SEEK_END);
  ::close(fd);
  return size;
}

std::vector<Correction> SampleCorrections() {
  return {
      {"year", 5, 1},
      {"", -3, 2},  // empty column name and a negative type id must survive
      {std::string("nul\0byte", 8), 0, 0},  // embedded NUL in the name
      {"city_name", 127, 99},
  };
}

void ExpectSame(const Correction& a, const Correction& b) {
  EXPECT_EQ(a.column_name, b.column_name);
  EXPECT_EQ(a.corrected_type, b.corrected_type);
  EXPECT_EQ(a.model_version, b.model_version);
}

// ------------------------------------------------------- record format ----

TEST(WalCrcTest, MatchesIeeeCheckValue) {
  // The canonical IEEE 802.3 check value: CRC32("123456789") = 0xCBF43926.
  // Pinning it means the on-disk format can never silently drift.
  EXPECT_EQ(serve::WalCrc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(serve::WalCrc32(""), 0x00000000u);
}

TEST(CorrectionWalTest, AppendThenReplayRoundTrips) {
  const std::string path = WalPath("round_trip");
  const std::vector<Correction> corrections = SampleCorrections();
  {
    CorrectionWal wal(path);
    for (const Correction& c : corrections) EXPECT_TRUE(wal.Append(c));
    EXPECT_EQ(wal.appended(), corrections.size());
    EXPECT_EQ(wal.append_failures(), 0u);
  }
  WalReplayResult replay = CorrectionWal::Replay(path);
  EXPECT_TRUE(replay.existed);
  EXPECT_FALSE(replay.truncated);
  ASSERT_EQ(replay.records, corrections.size());
  for (size_t i = 0; i < corrections.size(); ++i) {
    ExpectSame(replay.corrections[i], corrections[i]);
  }
}

TEST(CorrectionWalTest, MissingFileIsAFreshStartNotAnError) {
  WalReplayResult replay = CorrectionWal::Replay(WalPath("missing"));
  EXPECT_FALSE(replay.existed);
  EXPECT_FALSE(replay.truncated);
  EXPECT_EQ(replay.records, 0u);
}

TEST(CorrectionWalTest, UnopenablePathThrows) {
  EXPECT_THROW(CorrectionWal("/nonexistent-dir/sato.wal"),
               std::runtime_error);
}

TEST(CorrectionWalTest, FsyncNoneStillReplays) {
  const std::string path = WalPath("fsync_none");
  CorrectionWalOptions options;
  options.fsync = WalFsync::kNone;  // documented best-effort mode
  {
    CorrectionWal wal(path, options);
    EXPECT_TRUE(wal.Append({"col", 1, 1}));
  }
  EXPECT_EQ(CorrectionWal::Replay(path).records, 1u);
}

// ------------------------------------------------- torn-tail truncation ----

TEST(CorrectionWalTest, TornTailIsTruncatedInPlaceKeepingIntactRecords) {
  const std::string path = WalPath("torn_tail");
  {
    CorrectionWal wal(path);
    EXPECT_TRUE(wal.Append({"a", 1, 1}));
    EXPECT_TRUE(wal.Append({"b", 2, 1}));
  }
  const off_t good_size = FileSize(path);
  // A record whose length prefix promises more bytes than exist: the
  // classic torn write of a crash mid-append.
  AppendRawBytes(path, std::string("\x40\x00\x00\x00partial", 11));

  WalReplayResult replay = CorrectionWal::Replay(path);
  EXPECT_TRUE(replay.truncated);
  EXPECT_EQ(replay.truncated_bytes, 11u);
  ASSERT_EQ(replay.records, 2u);
  EXPECT_EQ(replay.corrections[1].column_name, "b");
  // Truncated IN PLACE: the file is back to its last intact record, so a
  // second replay is clean and a fresh appender continues from there.
  EXPECT_EQ(FileSize(path), good_size);
  EXPECT_FALSE(CorrectionWal::Replay(path).truncated);
}

TEST(CorrectionWalTest, CorruptCrcDropsFromFirstBadRecordOnward) {
  const std::string path = WalPath("corrupt_crc");
  {
    CorrectionWal wal(path);
    EXPECT_TRUE(wal.Append({"keep", 1, 1}));
  }
  const off_t first_size = FileSize(path);
  {
    CorrectionWal wal(path);
    EXPECT_TRUE(wal.Append({"corrupt-me", 2, 1}));
    EXPECT_TRUE(wal.Append({"unreachable", 3, 1}));
  }
  // Flip one payload byte of the SECOND record. Everything from it onward
  // must be dropped -- after a bad record there is no trustworthy framing
  // to resync on, so the intact-looking third record goes too.
  {
    int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::lseek(fd, first_size + 6, SEEK_SET), first_size + 6);
    ASSERT_EQ(::write(fd, "X", 1), 1);
    ::close(fd);
  }
  WalReplayResult replay = CorrectionWal::Replay(path);
  EXPECT_TRUE(replay.truncated);
  ASSERT_EQ(replay.records, 1u);
  EXPECT_EQ(replay.corrections[0].column_name, "keep");
  EXPECT_EQ(FileSize(path), first_size);
}

TEST(CorrectionWalTest, OversizedLengthPrefixCannotDriveAnAllocation) {
  const std::string path = WalPath("oversized");
  {
    CorrectionWal wal(path);
    EXPECT_TRUE(wal.Append({"ok", 1, 1}));
  }
  // 0xFFFFFFFF length prefix: replay must reject it on the bound alone
  // (kMaxRecordBytes), never try to read 4 GiB.
  AppendRawBytes(path, std::string("\xFF\xFF\xFF\xFF", 4));
  WalReplayResult replay = CorrectionWal::Replay(path);
  EXPECT_TRUE(replay.truncated);
  EXPECT_EQ(replay.records, 1u);
}

TEST(CorrectionWalTest, AppendAfterTruncatedReplayContinuesCleanly) {
  const std::string path = WalPath("append_after_replay");
  {
    CorrectionWal wal(path);
    EXPECT_TRUE(wal.Append({"one", 1, 1}));
  }
  AppendRawBytes(path, "garbage-tail");
  // The documented startup order: Replay first (heals the tail), then
  // construct the appender on the same path.
  EXPECT_TRUE(CorrectionWal::Replay(path).truncated);
  {
    CorrectionWal wal(path);
    EXPECT_TRUE(wal.Append({"two", 2, 2}));
  }
  WalReplayResult replay = CorrectionWal::Replay(path);
  EXPECT_FALSE(replay.truncated);
  ASSERT_EQ(replay.records, 2u);
  EXPECT_EQ(replay.corrections[0].column_name, "one");
  EXPECT_EQ(replay.corrections[1].column_name, "two");
}

// ----------------------------------------------- registry ack gating ----

TEST(CorrectionWalTest, RegistryAcksOnlyDurablyRecordedCorrections) {
  const std::string path = WalPath("registry_gate");
  CorrectionWal wal(path);
  ModelRegistry registry;
  registry.AttachCorrectionWal(&wal);

  EXPECT_TRUE(registry.SubmitCorrection({"durable", 7, 3}));

  WalReplayResult replay = CorrectionWal::Replay(path);
  ASSERT_EQ(replay.records, 1u);
  ExpectSame(replay.corrections[0], {"durable", 7, 3});

  registry.AttachCorrectionWal(nullptr);  // detached: counted, not stored
  EXPECT_TRUE(registry.SubmitCorrection({"unlogged", 1, 1}));
  EXPECT_EQ(CorrectionWal::Replay(path).records, 1u);
  EXPECT_EQ(registry.Stats().corrections_submitted, 2u);
  EXPECT_EQ(registry.Stats().corrections_wal_failed, 0u);
}

// Replay reads a record over kMaxRecordBytes as a corrupt length and
// truncates there, so Append must refuse one before writing any byte:
// otherwise the oversized record -- and every acknowledged correction
// after it -- would be acked and then lost on the next restart.
TEST(CorrectionWalTest, OversizedRecordIsRefusedAndEveryAckReplays) {
  const std::string path = WalPath("oversized");
  CorrectionWal wal(path);
  ModelRegistry registry;
  registry.AttachCorrectionWal(&wal);

  const std::vector<Correction> stream = {
      {"before", 1, 1},
      {std::string(2 * CorrectionWal::kMaxRecordBytes, 'x'), 2, 1},
      {"after", 3, 1},
  };
  std::vector<Correction> acked;
  for (const Correction& c : stream) {
    if (registry.SubmitCorrection(c)) acked.push_back(c);
  }
  ASSERT_EQ(acked.size(), 2u);
  EXPECT_EQ(wal.append_failures(), 1u);
  EXPECT_EQ(registry.Stats().corrections_wal_failed, 1u);

  WalReplayResult replay = CorrectionWal::Replay(path);
  EXPECT_FALSE(replay.truncated);
  EXPECT_EQ(replay.truncated_bytes, 0u);
  ASSERT_EQ(replay.records, acked.size());
  for (size_t i = 0; i < acked.size(); ++i) {
    ExpectSame(replay.corrections[i], acked[i]);
  }
}

TEST(CorrectionWalTest, InjectedAppendFailureWithholdsTheAck) {
  const std::string path = WalPath("injected_fail");
  FaultPlan plan;
  plan.Set(FaultPoint::kWalAppendFail, 1'000'000);  // every append fails
  FaultInjector injector(123, plan);
  CorrectionWalOptions options;
  options.fault_injector = &injector;
  CorrectionWal wal(path, options);
  ModelRegistry registry;
  registry.AttachCorrectionWal(&wal);

  // The failed append records NOTHING: no ack, no WAL bytes -- a
  // half-recorded correction would silently evaporate on restart, which
  // is exactly the lie the gate exists to prevent.
  EXPECT_FALSE(registry.SubmitCorrection({"lost", 1, 1}));
  EXPECT_EQ(wal.append_failures(), 1u);
  EXPECT_EQ(CorrectionWal::Replay(path).records, 0u);

  auto stats = registry.Stats();
  EXPECT_EQ(stats.corrections_submitted, 1u);
  EXPECT_EQ(stats.corrections_wal_failed, 1u);
}

// -------------------------------------------------- kill-and-restart ----

TEST(CorrectionWalTest, RestartReplayRestoresEveryAcknowledgedCorrection) {
  const std::string path = WalPath("restart");
  std::vector<Correction> acked;

  // "First process": acknowledge a batch of corrections, then die without
  // any orderly shutdown (destructors only -- no flush call exists).
  {
    CorrectionWal wal(path);
    ModelRegistry registry;
    registry.AttachCorrectionWal(&wal);
    for (const Correction& c : SampleCorrections()) {
      if (registry.SubmitCorrection(c)) acked.push_back(c);
    }
    ASSERT_EQ(acked.size(), SampleCorrections().size());
  }

  // "Restart": the daemon's documented startup order -- replay, then
  // attach a fresh appender and keep going.
  ASSERT_EQ(CorrectionWal::Replay(path).records, acked.size());
  ModelRegistry registry;
  CorrectionWal wal(path);
  registry.AttachCorrectionWal(&wal);
  const Correction post_restart{"post_restart", 9, 4};
  EXPECT_TRUE(registry.SubmitCorrection(post_restart));
  acked.push_back(post_restart);

  WalReplayResult restored = CorrectionWal::Replay(path);
  EXPECT_FALSE(restored.truncated);
  ASSERT_EQ(restored.records, acked.size());
  for (size_t i = 0; i < acked.size(); ++i) {
    ExpectSame(restored.corrections[i], acked[i]);
  }
}

}  // namespace
}  // namespace sato
