// The unified ingest WAL (src/service/wal.h) under test: torn-tail
// truncation to the clean prefix, bit rot refused rather than truncated,
// checkpoint + replay and multi-generation epochs bit-identical to the
// in-memory serial frontend, group-commit fsync amortization under
// concurrent clients, ENOSPC/EIO degradation books, and a seeded crash
// sweep.  The report↔commit atomicity COUPLING — a
// failed group commit loses both halves together, never one — is pinned
// here at the frontend level; the full networked exactly-once drills live
// in service_durability_test.cc.
//
// Set PROCHLO_WAL_SEED to reproduce a failing crash schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
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
#include "tests/support/fault_fs.h"

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

// The serial reference: same reports, same config, in-memory epochs.
std::map<std::string, uint64_t> SerialHistogram(const FrontendConfig& base,
                                                const std::vector<Bytes>& sealed) {
  FrontendConfig config = base;
  config.spool_dir.clear();
  ShufflerFrontend reference(config);
  EXPECT_TRUE(reference.Start().ok());
  for (const auto& report : sealed) {
    EXPECT_TRUE(reference.AcceptReport(report).ok());
  }
  EXPECT_TRUE(reference.CutEpoch().ok());
  auto drained = reference.DrainSealedEpochs();
  EXPECT_TRUE(drained.ok());
  if (drained.results.size() != 1) {
    return {};
  }
  return drained.results[0].result.histogram;
}

std::string NewestWalGen(const std::string& dir) {
  std::string victim;
  unsigned long best_gen = 0;
  for (const auto& entry : stdfs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    unsigned long gen = 0;
    if (std::sscanf(name.c_str(), "ingest-%lu.wal", &gen) == 1 && gen >= best_gen) {
      best_gen = gen;
      victim = entry.path().string();
    }
  }
  return victim;
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
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(before.AcceptReport(sealed[i]).ok());
    }
    ASSERT_TRUE(before.BarrierIngest().ok());  // the durability point
  }  // crash mid-epoch: no seal, no checkpoint

  // The write in flight at crash time: half a frame dangles off the tail.
  std::string victim = NewestWalGen(dir.path);
  ASSERT_FALSE(victim.empty());
  {
    std::FILE* f = std::fopen(victim.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    Bytes torn = EncodeFrame(Bytes(300, 0xAB));
    torn.resize(torn.size() / 2);
    std::fwrite(torn.data(), 1, torn.size(), f);
    std::fclose(f);
  }

  ShufflerFrontend after(config);
  ASSERT_TRUE(after.Start().ok());
  EXPECT_EQ(after.stats().recovered_wal_reports.load(), half);
  EXPECT_EQ(after.stats().recovered_reports.load(), half);
  EXPECT_GT(after.stats().recovered_truncated_bytes.load(), 0u);
  EXPECT_EQ(after.current_epoch(), 0u);  // resumes the interrupted epoch
  EXPECT_EQ(after.current_epoch_size(), half);

  for (size_t i = half; i < sealed.size(); ++i) {
    ASSERT_TRUE(after.AcceptReport(sealed[i]).ok());
  }
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
// in-memory serial frontend produces — at every thread count.
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
      for (size_t i = 0; i < third; ++i) {
        ASSERT_TRUE(before.AcceptReport(sealed[i]).ok());
      }
      ASSERT_TRUE(before.wal()->Checkpoint().ok());
      EXPECT_GE(before.wal()->stats().checkpoints, 1u);
      // Second third: lives only in the post-rotation WAL generation.
      for (size_t i = third; i < 2 * third; ++i) {
        ASSERT_TRUE(before.AcceptReport(sealed[i]).ok());
      }
      ASSERT_TRUE(before.BarrierIngest().ok());
    }  // crash: wal.ckpt covers the first third's generation, not the second's

    ShufflerFrontend after(config);
    ASSERT_TRUE(after.Start().ok());
    EXPECT_EQ(after.current_epoch_size(), 2 * third);
    EXPECT_EQ(after.stats().recovered_wal_reports.load(), third);

    for (size_t i = 2 * third; i < sealed.size(); ++i) {
      ASSERT_TRUE(after.AcceptReport(sealed[i]).ok());
    }
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

    ScratchDir dir("wal-span-" + std::to_string(threads));
    FrontendConfig config = base;
    config.spool_dir = dir.path;
    config.wal_checkpoint_threshold_bytes = 1;
    ShufflerFrontend frontend(config);
    ASSERT_TRUE(frontend.Start().ok());
    for (size_t i = 0; i < sealed.size(); ++i) {
      ASSERT_TRUE(frontend.AcceptReport(sealed[i]).ok());
      if ((i + 1) % third == 0) {
        ASSERT_TRUE(frontend.Tick().ok());  // checkpoint: a new generation
      }
    }
    ASSERT_TRUE(frontend.CutEpoch().ok());
    auto list = [&] {
      std::set<std::string> names;
      for (const auto& entry : stdfs::directory_iterator(dir.path)) {
        names.insert(entry.path().filename().string());
      }
      return names;
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
    const std::string active = stdfs::path(NewestWalGen(dir.path)).filename().string();
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
    ScratchDir dir("wal-rot-" + std::to_string(static_cast<int>(where)));
    FrontendConfig config = base;
    config.spool_dir = dir.path;
    std::string victim;
    {
      ShufflerFrontend before(config);
      ASSERT_TRUE(before.Start().ok());
      // 48 acked reports in 3 group-commit blocks; the older and sealed
      // cases close the first generation after one block.
      for (size_t block = 0; block < 3; ++block) {
        for (size_t i = 16 * block; i < 16 * (block + 1); ++i) {
          ASSERT_TRUE(before.AcceptReport(sealed[i]).ok());
        }
        ASSERT_TRUE(before.BarrierIngest().ok());
        if (block == 0 && where == Where::kOlder) {
          victim = NewestWalGen(dir.path);
          ASSERT_TRUE(before.wal()->Checkpoint().ok());
        }
      }
      if (where == Where::kSealed) {
        victim = NewestWalGen(dir.path);
        ASSERT_TRUE(before.CutEpoch().ok());
      } else if (where == Where::kNewest) {
        victim = NewestWalGen(dir.path);
      }
    }  // crash
    ASSERT_FALSE(victim.empty());
    const uint64_t size = stdfs::file_size(victim);
    {
      std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
      f.seekg(static_cast<std::streamoff>(size / 2));
      char byte = 0;
      f.read(&byte, 1);
      f.seekp(static_cast<std::streamoff>(size / 2));
      byte = static_cast<char>(byte ^ 0x40);
      f.write(&byte, 1);
    }
    auto snapshot = [&] {
      std::map<std::string, std::string> files;
      for (const auto& entry : stdfs::directory_iterator(dir.path)) {
        std::ifstream in(entry.path(), std::ios::binary);
        files[entry.path().filename().string()] =
            std::string(std::istreambuf_iterator<char>(in), {});
      }
      return files;
    };
    const auto rotted = snapshot();

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
    EXPECT_EQ(snapshot(), rotted);  // byte-identical: nothing truncated
  }
}

// --------------------------------------- group-commit fsync amortization

// N buffered reports, ONE barrier, ONE fsync — then the same under four
// concurrent clients, where barrier leadership amortizes across whoever
// piles in: the whole point of group commit.
TEST(ServiceWalTest, GroupCommitAmortizesFsyncsAcrossConcurrentClients) {
  FrontendConfig base = WalFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base, "wal-amortize");
  ASSERT_GE(sealed.size(), 48u);

  ScratchDir dir("wal-amortize");
  FrontendConfig config = base;
  config.spool_dir = dir.path;
  ShufflerFrontend frontend(config);
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
                    .AcceptRoutedReportAsync(shard, report, ReportContext{},
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
        const Bytes& report = sealed[16 + c * kPerClient + i];
        size_t shard = ShardedIngest::ShardOfReport(report, frontend.num_shards());
        ASSERT_TRUE(frontend
                        .AcceptRoutedReportAsync(shard, report, ReportContext{},
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
  ScratchDir dir("wal-batch-8");
  FrontendConfig config = WalFrontendConfig(dir.path);
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
                      .AcceptRoutedReportAsync(shard, std::move(report), ReportContext{},
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
    ScratchDir dir(std::string("wal-coupling-") + mode.name);
    FaultFs fault;
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
    ScratchDir dir("wal-sweep-" + std::to_string(schedule));
    FaultFs fault;
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
          (void)frontend.AcceptRoutedReportAsync(shard, report, ReportContext{},
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
    ShufflerFrontend after(config);
    ASSERT_TRUE(after.Start().ok());
    EXPECT_GE(after.current_epoch_size(), committed);
    EXPECT_LE(after.current_epoch_size(), sealed.size());
    ASSERT_TRUE(after.CutEpoch(/*seal_if_empty=*/true).ok());
    auto drained = after.DrainSealedEpochs();
    ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
  }
}

}  // namespace
}  // namespace prochlo
