// The unified ingest WAL (src/service/wal.h) under test: torn-tail
// truncation to the clean prefix, bit rot refused rather than truncated,
// read errors and short reads at recovery, checkpoint + replay and
// multi-generation epochs bit-identical to the serial frontend,
// group-commit fsync amortization under concurrent clients, ENOSPC/EIO
// degradation books, and a seeded crash sweep.  The torn-tail and
// checkpoint/replay tests run on the real disk, so RealFs's read path stays
// covered; the rest run on a MemFs.  The report↔commit atomicity COUPLING — a
// failed group commit loses both halves together, never one — is pinned
// here at the frontend level; the full networked exactly-once drills live
// in service_durability_test.cc.
//
// Set PROCHLO_WAL_SEED to reproduce a failing crash schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pipeline.h"
#include "src/service/frontend.h"
#include "src/service/fs.h"
#include "src/service/ingest.h"
#include "src/service/runtime.h"
#include "src/service/wal.h"
#include "src/service/wire.h"
#include "src/util/rng.h"
#include "src/util/serialization.h"
#include "tests/support/fault_fs.h"
#include "tests/support/fs_files.h"
#include "tests/support/ingest.h"

namespace prochlo {
namespace {

namespace stdfs = std::filesystem;

uint64_t SeedFromEnv() {
  if (const char* env = std::getenv("PROCHLO_WAL_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x57414C21;  // "WAL!"
}

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((stdfs::temp_directory_path() / ("prochlo-" + name)).string()) {
    stdfs::remove_all(path);
    stdfs::create_directories(path);
  }
  ~ScratchDir() { stdfs::remove_all(path); }
  std::string path;
};

// A spool directory on a MemFs that outlives every stack a test restarts
// on it.
struct TestSpool {
  MemFs disk;
  const std::string path = "/spool";
};

FrontendConfig WalFrontendConfig(const std::string& spool_dir, size_t threads = 0) {
  FrontendConfig config;
  config.pipeline.shuffler.threshold_mode = ThresholdMode::kNaive;
  config.pipeline.shuffler.policy = ThresholdPolicy{20, 10, 2};
  config.pipeline.num_threads = threads;
  config.pipeline.seed = "wal-e2e";
  config.ingest.num_shards = 4;
  config.spool_dir = spool_dir;
  return config;
}

// Crowd ID = value so histograms are interleaving-invariant.
std::vector<Bytes> SealCohort(const FrontendConfig& base, const std::string& client_seed) {
  std::vector<std::pair<std::string, std::string>> inputs;
  auto add = [&](const std::string& value, int count) {
    for (int i = 0; i < count; ++i) {
      inputs.emplace_back(value, value);
    }
  };
  add("wal-heavy", 30);
  add("wal-mid", 22);
  add("wal-rare", 4);  // below T=20: must vanish from the histogram
  ShufflerFrontend key_holder(base);
  const Encoder encoder = key_holder.MakeEncoder();
  SecureRandom rng(ToBytes(client_seed));
  auto sealed = encoder.BatchSealReports(inputs, rng);
  EXPECT_TRUE(sealed.ok());
  return std::move(sealed).value();
}

// The serial reference: same reports, same config, a private MemFs.
std::map<std::string, uint64_t> SerialHistogram(const FrontendConfig& base,
                                                const std::vector<Bytes>& sealed) {
  FrontendConfig config = base;
  config.spool_dir.clear();
  ShufflerFrontend reference(config);
  EXPECT_TRUE(reference.Start().ok());
  EXPECT_TRUE(IngestReports(reference, sealed).ok());
  EXPECT_TRUE(reference.CutEpoch().ok());
  auto drained = reference.DrainSealedEpochs();
  EXPECT_TRUE(drained.ok());
  if (drained.results.size() != 1) {
    return {};
  }
  return drained.results[0].result.histogram;
}


// ------------------------------------------------- torn-tail truncation

// A group commit torn mid-write by a crash: recovery must truncate the
// newest generation back to its clean frame prefix, replay exactly the
// reports that fully landed, and resume the interrupted epoch — the
// finished epoch drains bit-identically to the serial reference.
TEST(ServiceWalTest, TornTailTruncatesToCleanPrefixAndReplaysExactly) {
  FrontendConfig base = WalFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base, "wal-torn");
  const auto expected = SerialHistogram(base, sealed);
  const size_t half = sealed.size() / 2;

  ScratchDir dir("wal-torn");
  FrontendConfig config = base;
  config.spool_dir = dir.path;
  {
    ShufflerFrontend before(config);
    ASSERT_TRUE(before.Start().ok());
    // Every report durable when this returns: the durability point.
    ASSERT_TRUE(IngestReports(before, std::span(sealed).first(half)).ok());
  }  // crash mid-epoch: no seal, no checkpoint

  // The write in flight at crash time: half a frame dangles off the tail.
  ASSERT_TRUE(TearNewestGeneration(Fs::Real(), dir.path, Bytes(300, 0xAB)).ok());

  ShufflerFrontend after(config);
  ASSERT_TRUE(after.Start().ok());
  EXPECT_EQ(after.stats().recovered_wal_reports.load(), half);
  EXPECT_EQ(after.stats().recovered_reports.load(), half);
  EXPECT_GT(after.stats().recovered_truncated_bytes.load(), 0u);
  EXPECT_EQ(after.current_epoch(), 0u);  // resumes the interrupted epoch
  EXPECT_EQ(after.current_epoch_size(), half);

  ASSERT_TRUE(IngestReports(after, std::span(sealed).subspan(half), {1, half}).ok());
  ASSERT_TRUE(after.CutEpoch().ok());
  auto drained = after.DrainSealedEpochs();
  ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
  ASSERT_EQ(drained.results.size(), 1u);
  EXPECT_EQ(drained.results[0].reports, sealed.size());
  EXPECT_EQ(drained.results[0].result.histogram, expected);  // bit-identical
}

// -------------------------------------- checkpoint/replay bit-identity

// Reports in a checkpointed generation and reports still in the live
// generation at the crash must together reconstruct the same epoch the
// serial frontend produces — at every thread count.
TEST(ServiceWalTest, CheckpointAndReplayStayBitIdenticalToSerialFrontend) {
  for (size_t threads : {size_t{0}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FrontendConfig base = WalFrontendConfig("", threads);
    const std::vector<Bytes> sealed = SealCohort(base, "wal-ckpt");
    const auto expected = SerialHistogram(base, sealed);
    const size_t third = sealed.size() / 3;

    ScratchDir dir("wal-ckpt-" + std::to_string(threads));
    FrontendConfig config = base;
    config.spool_dir = dir.path;
    {
      ShufflerFrontend before(config);
      ASSERT_TRUE(before.Start().ok());
      // First third: in a generation the checkpoint closed and covered.
      ASSERT_TRUE(IngestReports(before, std::span(sealed).first(third)).ok());
      ASSERT_TRUE(before.wal()->Checkpoint().ok());
      EXPECT_GE(before.wal()->stats().checkpoints, 1u);
      // Second third: lives only in the post-rotation WAL generation.
      ASSERT_TRUE(IngestReports(before, std::span(sealed).subspan(third, third), {1, third}).ok());
    }  // crash: wal.ckpt covers the first third's generation, not the second's

    ShufflerFrontend after(config);
    ASSERT_TRUE(after.Start().ok());
    EXPECT_EQ(after.current_epoch_size(), 2 * third);
    EXPECT_EQ(after.stats().recovered_wal_reports.load(), third);

    ASSERT_TRUE(
        IngestReports(after, std::span(sealed).subspan(2 * third), {1, 2 * third}).ok());
    ASSERT_TRUE(after.CutEpoch().ok());
    auto drained = after.DrainSealedEpochs();
    ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
    ASSERT_EQ(drained.results.size(), 1u);
    EXPECT_EQ(drained.results[0].reports, sealed.size());
    EXPECT_EQ(drained.results[0].result.histogram, expected);
  }
}

// ------------------------------------- an epoch over several generations

// A tiny checkpoint threshold makes every scheduling tick rotate the WAL,
// so one epoch's reports span several generations.  The epoch drains every
// report exactly once, bit-identical to the serial frontend at every
// thread count, and its drain leaves the spool directory holding only
// wal.ckpt and the active generation.
TEST(ServiceWalTest, EpochSpanningGenerationsDrainsOnceAndLeavesOnlyTheActiveGeneration) {
  for (size_t threads : {size_t{0}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FrontendConfig base = WalFrontendConfig("", threads);
    const std::vector<Bytes> sealed = SealCohort(base, "wal-span");
    const auto expected = SerialHistogram(base, sealed);
    const size_t third = sealed.size() / 3;

    TestSpool dir;
    FrontendConfig config = base;
    config.spool_dir = dir.path;
    config.fs = &dir.disk;
    config.wal_checkpoint_threshold_bytes = 1;
    ShufflerFrontend frontend(config);
    ASSERT_TRUE(frontend.Start().ok());
    for (size_t i = 0; i < sealed.size(); i += third) {
      const size_t n = std::min(third, sealed.size() - i);
      ASSERT_TRUE(IngestReports(frontend, std::span(sealed).subspan(i, n), {1, i}).ok());
      if (n == third) {
        ASSERT_TRUE(frontend.Tick().ok());  // checkpoint: a new generation
      }
    }
    ASSERT_TRUE(frontend.CutEpoch().ok());
    auto list = [&] {
      const std::vector<std::string> names = ListNames(&dir.disk, dir.path);
      return std::set<std::string>(names.begin(), names.end());
    };
    size_t generations = 0;
    for (const std::string& name : list()) {
      generations += name.rfind("ingest-", 0) == 0 ? 1 : 0;
    }
    EXPECT_GE(generations, 4u);  // >= 3 of the epoch's, plus the active one

    auto drained = frontend.DrainSealedEpochs();
    ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
    ASSERT_EQ(drained.results.size(), 1u);
    EXPECT_EQ(drained.results[0].reports, sealed.size());
    EXPECT_EQ(drained.results[0].result.shuffler_stats.received, sealed.size());
    EXPECT_EQ(drained.results[0].result.histogram, expected);
    const std::string active =
        NewestGeneration(&dir.disk, dir.path).substr(dir.path.size() + 1);
    EXPECT_EQ(list(), (std::set<std::string>{"wal.ckpt", active}));
  }
}

// ------------------------------------------- bit rot is refused, not cut

// A flipped byte is damage, not a torn write.  Recovery refuses it —
// naming the file and offset, changing no file — whether intact blocks
// follow it in the newest generation or it sits in an older one;
// truncating there would silently drop acknowledged reports.  Inside a
// sealed generation that recovery trusts from its marker, the drain's CRC
// check catches it instead: the epoch fails and stays queued, never
// released in part.
TEST(ServiceWalTest, BitRotIsRefusedNeverTruncated) {
  FrontendConfig base = WalFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base, "wal-rot");
  ASSERT_GE(sealed.size(), 48u);
  enum class Where { kNewest, kOlder, kSealed };
  for (Where where : {Where::kNewest, Where::kOlder, Where::kSealed}) {
    SCOPED_TRACE("case " + std::to_string(static_cast<int>(where)));
    TestSpool dir;
    FrontendConfig config = base;
    config.spool_dir = dir.path;
    config.fs = &dir.disk;
    std::string victim;
    {
      ShufflerFrontend before(config);
      ASSERT_TRUE(before.Start().ok());
      // 48 acked reports in 3 group-commit blocks; the older and sealed
      // cases close the first generation after one block.
      for (size_t block = 0; block < 3; ++block) {
        ASSERT_TRUE(
            IngestReports(before, std::span(sealed).subspan(16 * block, 16), {1, 16 * block})
                .ok());
        if (block == 0 && where == Where::kOlder) {
          victim = NewestGeneration(&dir.disk, dir.path);
          ASSERT_TRUE(before.wal()->Checkpoint().ok());
        }
      }
      if (where == Where::kSealed) {
        victim = NewestGeneration(&dir.disk, dir.path);
        ASSERT_TRUE(before.CutEpoch().ok());
      } else if (where == Where::kNewest) {
        victim = NewestGeneration(&dir.disk, dir.path);
      }
    }  // crash
    ASSERT_FALSE(victim.empty());
    ASSERT_TRUE(FlipByte(&dir.disk, victim, dir.disk.FileSize(victim).value() / 2).ok());
    const auto rotted = DirImage(&dir.disk, dir.path);

    ShufflerFrontend after(config);
    Status started = after.Start();
    if (where == Where::kSealed) {
      ASSERT_TRUE(started.ok()) << started.error().message;
      auto drained = after.DrainSealedEpochs();
      ASSERT_FALSE(drained.ok());
      EXPECT_EQ(drained.failure->epoch, 0u);
      EXPECT_EQ(after.stats().epochs_drained.load(), 0u);
      continue;
    }
    ASSERT_FALSE(started.ok());
    EXPECT_NE(started.error().message.find(victim), std::string::npos)
        << started.error().message;
    EXPECT_NE(started.error().message.find("offset"), std::string::npos);
    EXPECT_EQ(DirImage(&dir.disk, dir.path), rotted);  // byte-identical: nothing truncated
  }
}

// ------------------------------- an unknown record kind is refused, not skipped

// A CRC-valid block holding a record of a kind this reader does not know —
// the retired kinds 1 (a report without a session) and 2 (a report with its
// shard), or a kind no writer ever used — cannot be framed past.  Skipping
// the rest of the block would silently drop whatever acknowledged records
// it holds, so the reader refuses it.  The generation holds a block of
// reports, a block of session ops that the test rewrites to hold the
// unknown record, and — unless the rewritten block is the generation's
// last — another block of reports.  As the newest generation, Start()
// refuses, naming the file and the offset, and changes no file.  As a
// sealed generation, which recovery trusts from its marker, the drain
// fails and the epoch stays queued: the drain reads past the epoch's last
// report to the end of its generations, so damage after it is seen too.
TEST(ServiceWalTest, UnknownRecordKindIsRefusedNeverSkipped) {
  FrontendConfig base = WalFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base, "wal-kind");
  ASSERT_GE(sealed.size(), 16u);
  for (uint8_t kind : {uint8_t{1}, uint8_t{2}, uint8_t{9}}) {
    for (bool last : {false, true}) {
      for (bool sealed_epoch : {false, true}) {
        SCOPED_TRACE("kind " + std::to_string(kind) + (last ? ", last block" : ", middle block") +
                     (sealed_epoch ? ", sealed" : ", newest"));
        TestSpool dir;
        FrontendConfig config = base;
        config.spool_dir = dir.path;
        config.fs = &dir.disk;
        std::string victim;
        {
          ShufflerFrontend before(config);
          ASSERT_TRUE(before.Start().ok());
          ASSERT_TRUE(IngestReports(before, std::span(sealed).first(8)).ok());
          for (uint64_t session = 101; session <= 103; ++session) {
            ASSERT_TRUE(before.wal()->AppendGoodbye(session).ok());
          }
          ASSERT_TRUE(before.BarrierIngest().ok());
          if (!last) {
            ASSERT_TRUE(IngestReports(before, std::span(sealed).subspan(8, 8), {1, 8}).ok());
          }
          victim = NewestGeneration(&dir.disk, dir.path);
          if (sealed_epoch) {
            ASSERT_TRUE(before.CutEpoch().ok());
          }
        }  // crash

        // Rewrite the session-op block in place, at the same size, so a
        // sealed generation still has the size its marker recorded.
        Bytes bytes = ReadFileBytes(&dir.disk, victim).value_or(Bytes{});
        FrameHeader first;
        ASSERT_TRUE(ParseFrameHeader(bytes, &first));
        const size_t offset = FrameWireSize(first.length);
        FrameHeader ops;
        ASSERT_TRUE(ParseFrameHeader(ByteSpan(bytes).subspan(offset), &ops));
        Writer record;  // laid out as kind 1 was: shard, epoch, report
        record.PutU8(kind);
        record.PutU64(/*shard=*/0);
        record.PutU64(/*epoch=*/0);
        record.PutLengthPrefixed(ByteSpan());
        Bytes payload = record.Take();
        ASSERT_LE(payload.size(), ops.length);
        payload.resize(ops.length, 0);
        Bytes block;
        AppendFrame(block, payload);
        std::copy(block.begin(), block.end(), bytes.begin() + static_cast<ptrdiff_t>(offset));
        ASSERT_TRUE(WriteFileBytes(&dir.disk, victim, bytes).ok());
        const auto damaged = DirImage(&dir.disk, dir.path);

        ShufflerFrontend after(config);
        Status started = after.Start();
        if (!sealed_epoch) {
          ASSERT_FALSE(started.ok());
          EXPECT_NE(started.error().message.find(victim), std::string::npos)
              << started.error().message;
          EXPECT_NE(started.error().message.find("offset"), std::string::npos);
          EXPECT_EQ(DirImage(&dir.disk, dir.path), damaged);  // byte-identical
          continue;
        }
        ASSERT_TRUE(started.ok()) << started.error().message;
        for (int attempt = 0; attempt < 2; ++attempt) {
          auto drained = after.DrainSealedEpochs();
          ASSERT_FALSE(drained.ok());
          EXPECT_EQ(drained.failure->epoch, 0u);  // still queued each time
          EXPECT_NE(drained.failure->error.message.find(victim), std::string::npos)
              << drained.failure->error.message;
        }
        EXPECT_EQ(after.stats().epochs_drained.load(), 0u);
      }
    }
  }
}

// ----------------------------------------- a shard is only a routing key

// The shard count is the worker pool's routing width and nothing durable
// stores it, so a restart may change it.  A 4-shard frontend seals one epoch
// and crashes with a second open; restarted with 2 shards it drains every
// acked report exactly once, bit-identical to the serial frontend, and
// refuses a routing key past its new width.
TEST(ServiceWalTest, RestartWithFewerShardsDrainsEveryAckedReportOnce) {
  FrontendConfig base = WalFrontendConfig("");
  ASSERT_EQ(base.ingest.num_shards, 4u);
  const std::vector<std::vector<Bytes>> epochs = {SealCohort(base, "wal-reshard-0"),
                                                  SealCohort(base, "wal-reshard-1")};
  const ReportContext second_seqs{1, epochs[0].size()};
  std::vector<std::map<std::string, uint64_t>> expected;
  {
    ShufflerFrontend reference(base);
    ASSERT_TRUE(reference.Start().ok());
    ASSERT_TRUE(IngestReports(reference, epochs[0]).ok());
    ASSERT_TRUE(reference.CutEpoch().ok());
    ASSERT_TRUE(IngestReports(reference, epochs[1], second_seqs).ok());
    ASSERT_TRUE(reference.CutEpoch().ok());
    auto drained = reference.DrainSealedEpochs();
    ASSERT_TRUE(drained.ok());
    ASSERT_EQ(drained.results.size(), 2u);
    for (const EpochResult& result : drained.results) {
      expected.push_back(result.result.histogram);
    }
  }

  TestSpool dir;
  FrontendConfig config = base;
  config.spool_dir = dir.path;
  config.fs = &dir.disk;
  {
    ShufflerFrontend before(config);
    ASSERT_TRUE(before.Start().ok());
    ASSERT_TRUE(IngestReports(before, epochs[0]).ok());
    ASSERT_TRUE(before.CutEpoch().ok());
    ASSERT_TRUE(IngestReports(before, epochs[1], second_seqs).ok());
  }  // crash: epoch 0 sealed, epoch 1 open

  config.ingest.num_shards = 2;
  ShufflerFrontend after(config);
  ASSERT_TRUE(after.Start().ok());
  EXPECT_EQ(after.num_shards(), 2u);
  EXPECT_EQ(after.stats().recovered_reports.load(), epochs[0].size() + epochs[1].size());
  EXPECT_EQ(after.current_epoch(), 1u);
  EXPECT_EQ(after.current_epoch_size(), epochs[1].size());
  Status refused = Status::Ok();
  EXPECT_FALSE(after
                   .AcceptRoutedReportAsync(2, epochs[1][0], ReportContext{2, 0},
                                            [&refused](const Status& status) { refused = status; })
                   .ok());
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(after.current_epoch_size(), epochs[1].size());

  ASSERT_TRUE(after.CutEpoch().ok());
  auto drained = after.DrainSealedEpochs();
  ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
  ASSERT_EQ(drained.results.size(), 2u);
  for (uint64_t e = 0; e < 2; ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    EXPECT_EQ(drained.results[e].epoch, e);
    EXPECT_EQ(drained.results[e].reports, epochs[e].size());
    EXPECT_EQ(drained.results[e].result.shuffler_stats.received, epochs[e].size());
    EXPECT_EQ(drained.results[e].result.histogram, expected[e]);
  }
  EXPECT_FALSE(after.wal()->NextSealedEpoch().has_value());
  EXPECT_TRUE(after.DrainSealedEpochs().results.empty());
}

// A seal marker of the retired per-shard layout (a shard count and one
// count per shard where the report count now stands) is refused as
// corrupt, naming the marker and changing no file, never read as a
// different epoch.
TEST(ServiceWalTest, RetiredPerShardMarkerIsRefusedAsCorrupt) {
  FrontendConfig base = WalFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base, "wal-marker");
  TestSpool dir;
  FrontendConfig config = base;
  config.spool_dir = dir.path;
  config.fs = &dir.disk;
  {
    ShufflerFrontend before(config);
    ASSERT_TRUE(before.Start().ok());
    ASSERT_TRUE(IngestReports(before, sealed).ok());
    ASSERT_TRUE(before.CutEpoch().ok());
  }
  const std::string marker = dir.path + "/epoch-0.sealed";
  auto frame = ReadFileBytes(&dir.disk, marker);
  ASSERT_TRUE(frame.has_value());
  auto payload = DecodeFrame(*frame);
  ASSERT_TRUE(payload.ok());
  // Epoch, generation list, then the u64 report count: swap the count for
  // the retired tail, a u32 shard count and that many u64 counts.
  Bytes header = payload.value();
  ASSERT_GE(header.size(), 8u);
  header.resize(header.size() - 8);
  Writer tail;
  tail.PutU32(4);
  for (uint64_t s = 0; s < 4; ++s) {
    tail.PutU64(sealed.size() / 4 + (s < sealed.size() % 4 ? 1 : 0));
  }
  const Bytes counts = tail.Take();
  header.insert(header.end(), counts.begin(), counts.end());
  ASSERT_TRUE(WriteFileBytes(&dir.disk, marker, EncodeFrame(header)).ok());
  const auto retired = DirImage(&dir.disk, dir.path);

  ShufflerFrontend after(config);
  Status started = after.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_NE(started.error().message.find("corrupt seal marker"), std::string::npos)
      << started.error().message;
  EXPECT_NE(started.error().message.find(marker), std::string::npos);
  EXPECT_EQ(DirImage(&dir.disk, dir.path), retired);
}

// --------------------------------------- group-commit fsync amortization

// N buffered reports, ONE barrier, ONE fsync — then the same under four
// concurrent clients, where barrier leadership amortizes across whoever
// piles in: the whole point of group commit.
TEST(ServiceWalTest, GroupCommitAmortizesFsyncsAcrossConcurrentClients) {
  FrontendConfig base = WalFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base, "wal-amortize");
  ASSERT_GE(sealed.size(), 48u);

  ShufflerFrontend frontend(base);
  ASSERT_TRUE(frontend.Start().ok());
  IngestWal* wal = frontend.wal();
  ASSERT_NE(wal, nullptr);
  // Startup fsyncs (fresh-generation durability) are not group commits;
  // measure deltas from here.
  const IngestWal::Stats baseline = wal->stats();

  // Phase 1 — deterministic floor: 16 buffered appends, one barrier.
  std::atomic<uint64_t> ok_count{0};
  for (size_t i = 0; i < 16; ++i) {
    const Bytes& report = sealed[i];
    size_t shard = ShardedIngest::ShardOfReport(report, frontend.num_shards());
    ASSERT_TRUE(frontend
                    .AcceptRoutedReportAsync(shard, report, ReportContext{1, i},
                                             [&ok_count](const Status& status) {
                                               if (status.ok()) {
                                                 ok_count.fetch_add(1);
                                               }
                                             })
                    .ok());
  }
  ASSERT_TRUE(frontend.BarrierIngest().ok());
  EXPECT_EQ(ok_count.load(), 16u);
  IngestWal::Stats after_batch = wal->stats();
  EXPECT_EQ(after_batch.appends, 16u);
  EXPECT_EQ(after_batch.fsyncs - baseline.fsyncs, 1u);  // 16 reports, ONE fsync

  // Phase 2 — four concurrent clients, each appending 8 reports and then
  // barriering.  Leadership election means at most one fsync per client
  // and usually fewer; never one per report.
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 8;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const size_t index = 16 + c * kPerClient + i;
        const Bytes& report = sealed[index];
        size_t shard = ShardedIngest::ShardOfReport(report, frontend.num_shards());
        ASSERT_TRUE(frontend
                        .AcceptRoutedReportAsync(shard, report, ReportContext{1, index},
                                                 [&ok_count](const Status& status) {
                                                   if (status.ok()) {
                                                     ok_count.fetch_add(1);
                                                   }
                                                 })
                        .ok());
      }
      ASSERT_TRUE(frontend.BarrierIngest().ok());
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  EXPECT_EQ(ok_count.load(), 16u + kClients * kPerClient);
  IngestWal::Stats stats = wal->stats();
  EXPECT_EQ(stats.appends, 16u + kClients * kPerClient);
  EXPECT_EQ(stats.records_flushed, stats.appends);
  EXPECT_EQ(stats.rolled_back_records, 0u);
  // Strictly amortized: fewer fsyncs than reports overall, and the
  // concurrent phase paid at most one fsync per barrier-holder.
  EXPECT_LE(stats.fsyncs - baseline.fsyncs, 1u + kClients);
  EXPECT_LT(stats.fsyncs - baseline.fsyncs, stats.appends);
}

// The batch shape of a busy frontend: 500 reports, a barrier after every
// 8, fsync on.  Group commit must amortize — strictly fewer fsyncs than
// reports; one fsync per report would mean the leader/follower protocol
// silently stopped batching.
TEST(ServiceWalTest, BarrierEveryEightReportsFsyncsLessThanOncePerReport) {
  FrontendConfig config = WalFrontendConfig("");
  config.fsync_spool = true;
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());
  const IngestWal::Stats baseline = frontend.wal()->stats();

  constexpr size_t kReports = 500;
  constexpr size_t kBatch = 8;
  std::atomic<uint64_t> committed{0};
  for (size_t i = 0; i < kReports; i += kBatch) {
    for (size_t j = i; j < std::min(i + kBatch, kReports); ++j) {
      Bytes report(64, static_cast<uint8_t>(j));
      for (int b = 0; b < 8; ++b) {
        report[b] = static_cast<uint8_t>(j >> (8 * b));
      }
      size_t shard = ShardedIngest::ShardOfReport(report, frontend.num_shards());
      ASSERT_TRUE(frontend
                      .AcceptRoutedReportAsync(shard, std::move(report), ReportContext{1, j},
                                               [&committed](const Status& status) {
                                                 if (status.ok()) {
                                                   committed.fetch_add(1);
                                                 }
                                               })
                      .ok());
    }
    ASSERT_TRUE(frontend.BarrierIngest().ok());
  }
  EXPECT_EQ(committed.load(), kReports);
  const IngestWal::Stats stats = frontend.wal()->stats();
  EXPECT_EQ(stats.records_flushed - baseline.records_flushed, kReports);
  EXPECT_GT(stats.fsyncs, baseline.fsyncs);
  EXPECT_LT(stats.fsyncs - baseline.fsyncs, kReports);
}

// ------------------------- the coupling: ENOSPC/EIO degradation books

// With the unified record there is no spool-succeeded/journal-failed
// middle state: a failed group commit rolls back BOTH the report bytes
// and the (session, seq) commit, the completion reports the failure (a
// NACK, never a degraded ack), the accounting is undone, and after a
// crash NEITHER half exists.  After the disk heals, the retry lands both
// halves atomically.
TEST(ServiceWalTest, FailedGroupCommitCouplesReportAndCommitLoss) {
  struct Mode {
    const char* name;
    void (FaultFs::*fail)(bool);
  };
  const Mode modes[] = {{"enospc-write", &FaultFs::FailWrites},
                        {"eio-fsync", &FaultFs::FailSyncs}};
  FrontendConfig base = WalFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base, "wal-coupling");

  for (const Mode& mode : modes) {
    SCOPED_TRACE(mode.name);
    TestSpool dir;
    FaultFs fault(&dir.disk);
    {
      FrontendConfig config = base;
      config.spool_dir = dir.path;
      config.fs = &fault;
      ShufflerFrontend frontend(config);
      ASSERT_TRUE(frontend.Start().ok());

      const Bytes& report = sealed[0];
      size_t shard = ShardedIngest::ShardOfReport(report, frontend.num_shards());
      Status verdict = Status::Ok();
      (fault.*mode.fail)(true);
      ASSERT_TRUE(frontend
                      .AcceptRoutedReportAsync(shard, report,
                                               ReportContext{/*session_id=*/0xAB, /*seq=*/1},
                                               [&verdict](const Status& status) {
                                                 verdict = status;
                                               })
                      .ok());
      EXPECT_FALSE(frontend.BarrierIngest().ok());
      EXPECT_FALSE(verdict.ok());  // NACK — never an ack on a weaker promise
      EXPECT_EQ(frontend.stats().reports_accepted.load(), 0u);  // undone
      EXPECT_EQ(frontend.wal()->stats().rolled_back_records, 1u);
      (fault.*mode.fail)(false);  // heal before teardown
    }  // crash with the failed record rolled back

    // Neither half survived: no report in the epoch, no session op to
    // replay.  "Commit lost" implied "report lost".
    {
      FrontendConfig config = base;
      config.spool_dir = dir.path;
      config.fs = &dir.disk;
      ShufflerFrontend after(config);
      ASSERT_TRUE(after.Start().ok());
      EXPECT_EQ(after.current_epoch_size(), 0u);
      EXPECT_EQ(after.stats().recovered_wal_reports.load(), 0u);
      EXPECT_EQ(after.stats().recovered_wal_session_ops.load(), 0u);

      // The healed retry lands both halves in one durable record.
      const Bytes& report = sealed[0];
      size_t shard = ShardedIngest::ShardOfReport(report, after.num_shards());
      Status verdict = Error{"unresolved"};
      ASSERT_TRUE(after
                      .AcceptRoutedReportAsync(shard, report,
                                               ReportContext{/*session_id=*/0xAB, /*seq=*/1},
                                               [&verdict](const Status& status) {
                                                 verdict = status;
                                               })
                      .ok());
      ASSERT_TRUE(after.BarrierIngest().ok());
      EXPECT_TRUE(verdict.ok());
      EXPECT_EQ(after.stats().reports_accepted.load(), 1u);
    }

    // And after ANOTHER crash, both halves exist — atomically together.
    FrontendConfig config = base;
    config.spool_dir = dir.path;
    config.fs = &dir.disk;
    ShufflerFrontend survivor(config);
    ASSERT_TRUE(survivor.Start().ok());
    EXPECT_EQ(survivor.current_epoch_size(), 1u);
    EXPECT_EQ(survivor.stats().recovered_wal_reports.load(), 1u);
    EXPECT_EQ(survivor.stats().recovered_wal_session_ops.load(), 1u);
  }
}

// ------------------------------------------------- seeded crash sweep

// The disk dies at a seeded syscall k while reports stream through the
// WAL.  Reports whose completion fired Ok were group-committed; none of
// them may be missing after recovery on a healthy disk — and the epoch
// still drains.  (The networked exactly-once drills — dedup of the
// rolled-back-but-landed tail by (session, seq) — live in
// service_durability_test.cc.)
TEST(ServiceWalTest, CrashSweepLosesNoGroupCommittedReport) {
  const uint64_t seed = SeedFromEnv();
  SCOPED_TRACE("PROCHLO_WAL_SEED=" + std::to_string(seed));
  FrontendConfig base = WalFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base, "wal-sweep");
  Rng rng(seed);

  for (int schedule = 0; schedule < 3; ++schedule) {
    const uint64_t crash_after = 1 + rng.NextBelow(16);
    SCOPED_TRACE("schedule=" + std::to_string(schedule) +
                 " crash_after=" + std::to_string(crash_after));
    TestSpool dir;
    FaultFs fault(&dir.disk);
    uint64_t committed = 0;
    {
      FrontendConfig config = base;
      config.spool_dir = dir.path;
      config.fs = &fault;
      ShufflerFrontend frontend(config);
      ASSERT_TRUE(frontend.Start().ok());
      fault.ArmCrash(crash_after);

      std::atomic<uint64_t> ok_count{0};
      for (size_t i = 0; i < sealed.size(); i += 8) {
        for (size_t j = i; j < std::min(i + 8, sealed.size()); ++j) {
          const Bytes& report = sealed[j];
          size_t shard = ShardedIngest::ShardOfReport(report, frontend.num_shards());
          // A buffered accept can itself fail once the disk is gone;
          // either way the completion carries the verdict.
          (void)frontend.AcceptRoutedReportAsync(shard, report, ReportContext{1, j},
                                                 [&ok_count](const Status& status) {
                                                   if (status.ok()) {
                                                     ok_count.fetch_add(1);
                                                   }
                                                 });
        }
        (void)frontend.BarrierIngest();  // group commit; fails once crashed
      }
      committed = ok_count.load();
    }  // the stack dies with the disk

    // A healthy disk: every group-committed report must be back.
    FrontendConfig config = base;
    config.spool_dir = dir.path;
    config.fs = &dir.disk;
    ShufflerFrontend after(config);
    ASSERT_TRUE(after.Start().ok());
    EXPECT_GE(after.current_epoch_size(), committed);
    EXPECT_LE(after.current_epoch_size(), sealed.size());
    ASSERT_TRUE(after.CutEpoch(/*seal_if_empty=*/true).ok());
    auto drained = after.DrainSealedEpochs();
    ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
  }
}

// ------------------------------------------ read errors and short reads

// Leaves `config`'s spool as a crash would: epoch 0 sealed with the first
// half of `sealed`, epoch 1 open with the rest in group-commit blocks of 8,
// and a torn half-frame at the end of the newest generation.
void BuildCrashedSpool(const FrontendConfig& config, const std::vector<Bytes>& sealed) {
  {
    ShufflerFrontend before(config);
    ASSERT_TRUE(before.Start().ok());
    const size_t half = sealed.size() / 2;
    for (size_t i = 0; i < sealed.size();) {
      const size_t end = std::min((i / 8 + 1) * 8, i < half ? half : sealed.size());
      ASSERT_TRUE(IngestReports(before, std::span(sealed).subspan(i, end - i), {1, i}).ok());
      if (end == half) {
        ASSERT_TRUE(before.CutEpoch().ok());
      }
      i = end;
    }
  }
  ASSERT_TRUE(TearNewestGeneration(config.fs, config.spool_dir, Bytes(300, 0xAB)).ok());
}

// Both epochs of a BuildCrashedSpool spool, restarted and drained: each
// report exactly once, bit-identical to the serial frontend.
void ExpectDrainsExactlyOnce(ShufflerFrontend& after, const FrontendConfig& base,
                             const std::vector<Bytes>& sealed) {
  const size_t half = sealed.size() / 2;
  EXPECT_EQ(after.stats().recovered_reports.load(), sealed.size());
  EXPECT_GT(after.stats().recovered_truncated_bytes.load(), 0u);
  ASSERT_TRUE(after.CutEpoch().ok());
  auto drained = after.DrainSealedEpochs();
  ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
  ASSERT_EQ(drained.results.size(), 2u);
  EXPECT_EQ(drained.results[0].reports, half);
  EXPECT_EQ(drained.results[1].reports, sealed.size() - half);
  const std::vector<Bytes> first(sealed.begin(), sealed.begin() + half);
  const std::vector<Bytes> second(sealed.begin() + half, sealed.end());
  EXPECT_EQ(drained.results[0].result.histogram, SerialHistogram(base, first));
  EXPECT_EQ(drained.results[1].result.histogram, SerialHistogram(base, second));
}

// A read error is neither the end of a file nor a torn write.  EIO on each
// read of the newest generation in turn — whose last block is whole and
// acknowledged, and which ends in a torn write — must refuse the start,
// naming the file and the offset, and leave every file byte-identical:
// taking the error for EOF would stop counting reports partway, and taking
// it for a bad block would truncate acknowledged reports.  Once the reads
// heal, every acked report drains exactly once.
TEST(ServiceWalTest, ReadErrorsAtStartRefuseAndNeverTruncate) {
  FrontendConfig base = WalFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base, "wal-read-eio");
  TestSpool dir;
  FrontendConfig config = base;
  config.spool_dir = dir.path;
  config.fs = &dir.disk;
  BuildCrashedSpool(config, sealed);

  FaultFs fault(&dir.disk);
  fault.ShortReads(97);  // many reads per block, so the faults land mid-block too
  config.fs = &fault;
  const std::string newest = NewestGeneration(&dir.disk, dir.path);
  uint64_t refused = 0;
  for (uint64_t k = 1;; ++k) {
    ASSERT_LT(k, 1000u) << "the start never got past its reads";
    SCOPED_TRACE("EIO on read k=" + std::to_string(k));
    const auto before = DirImage(&dir.disk, dir.path);
    const uint64_t faults = fault.read_faults();
    fault.FailReads([&](const std::string& path) { return path == newest; }, k, 1);
    ShufflerFrontend after(config);
    Status started = after.Start();
    fault.Heal();
    if (fault.read_faults() == faults) {
      // k is past the start's last read of the generation: nothing failed.
      ASSERT_TRUE(started.ok()) << started.error().message;
      ExpectDrainsExactlyOnce(after, base, sealed);
      break;
    }
    ASSERT_FALSE(started.ok());
    EXPECT_NE(started.error().message.find(newest + " at offset"), std::string::npos)
        << started.error().message;
    EXPECT_EQ(DirImage(&dir.disk, dir.path), before);  // byte-identical
    refused++;
  }
  EXPECT_GT(refused, 10u);
}

// Reads that return one byte at a time are legitimate: recovery from them
// ends in exactly the state a full-buffer recovery does — the same files,
// the same books, the same drained epochs.
TEST(ServiceWalTest, OneByteReadsRecoverBitIdentically) {
  FrontendConfig base = WalFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base, "wal-short-reads");
  TestSpool whole;
  TestSpool trickle;
  FaultFs one_byte(&trickle.disk);
  one_byte.ShortReads(1);
  FrontendConfig whole_config = base;
  whole_config.spool_dir = whole.path;
  whole_config.fs = &whole.disk;
  FrontendConfig trickle_config = base;
  trickle_config.spool_dir = trickle.path;
  trickle_config.fs = &trickle.disk;
  BuildCrashedSpool(whole_config, sealed);
  BuildCrashedSpool(trickle_config, sealed);
  ASSERT_EQ(DirImage(&whole.disk, whole.path), DirImage(&trickle.disk, trickle.path));

  trickle_config.fs = &one_byte;
  ShufflerFrontend reference(whole_config);
  ShufflerFrontend after(trickle_config);
  ASSERT_TRUE(reference.Start().ok());
  ASSERT_TRUE(after.Start().ok());
  EXPECT_EQ(DirImage(&trickle.disk, trickle.path), DirImage(&whole.disk, whole.path));
  EXPECT_EQ(after.stats().recovered_truncated_bytes.load(),
            reference.stats().recovered_truncated_bytes.load());
  EXPECT_EQ(after.current_epoch_size(), reference.current_epoch_size());
  ExpectDrainsExactlyOnce(after, base, sealed);
}

// EIO reading wal.ckpt is an I/O error, not a corrupt snapshot: Start()
// says it could not read the file, and changes nothing.
TEST(ServiceWalTest, SnapshotReadErrorIsAnIoErrorNotCorruption) {
  FrontendConfig base = WalFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base, "wal-ckpt-eio");
  TestSpool dir;
  FrontendConfig config = base;
  config.spool_dir = dir.path;
  config.fs = &dir.disk;
  BuildCrashedSpool(config, sealed);

  const std::string ckpt = dir.path + "/wal.ckpt";
  FaultFs fault(&dir.disk);
  fault.FailReads([&](const std::string& path) { return path == ckpt; });
  config.fs = &fault;
  const auto before = DirImage(&dir.disk, dir.path);
  ShufflerFrontend refused(config);
  Status started = refused.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_EQ(started.error().message.find("corrupt"), std::string::npos)
      << started.error().message;
  EXPECT_NE(started.error().message.find("cannot read " + ckpt), std::string::npos)
      << started.error().message;
  EXPECT_EQ(DirImage(&dir.disk, dir.path), before);

  fault.Heal();
  ShufflerFrontend after(config);
  ASSERT_TRUE(after.Start().ok());
  ExpectDrainsExactlyOnce(after, base, sealed);
}

}  // namespace
}  // namespace prochlo
