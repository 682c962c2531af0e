// The disk-fault half of the exactly-once contract: every write-side
// syscall under the spool and its session snapshot routes through the
// injectable Fs seam, and this suite drives short writes, ENOSPC, fsync
// EIO, and crash-at-syscall-k schedules through exactly the production
// code — then proves the contract end-to-end across a full server restart:
// kill-after-ack, reopen the spool directory, replay the client, and the
// per-epoch histograms stay bit-identical to the serial frontend with zero
// re-ingested reports.
//
// Seeded like the network suite: set PROCHLO_DURABILITY_SEED to reproduce
// a failing crash schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/service/connection.h"
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

using Claim = AckRegistry::Claim;

uint64_t SeedFromEnv() {
  if (const char* env = std::getenv("PROCHLO_DURABILITY_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x44555242;  // "DURB"
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

// Client-side transport wrapper for the restart drills: optionally
// blackholes everything the server sends (acks die in flight while reports
// land durably), and Abort() models the client host vanishing mid-session.
class FlakyStream : public ByteStream {
 public:
  FlakyStream(std::unique_ptr<ByteStream> inner, bool blackhole_reads)
      : inner_(std::move(inner)), blackhole_reads_(blackhole_reads) {}

  Result<size_t> Read(std::span<uint8_t> out) override {
    if (blackhole_reads_) {
      std::unique_lock<std::mutex> lock(mu_);
      aborted_cv_.wait(lock, [&] { return aborted_; });
      return size_t{0};
    }
    return inner_->Read(out);
  }

  Status Write(ByteSpan data) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (aborted_) {
        return Error{"flaky: connection killed"};
      }
    }
    return inner_->Write(data);
  }

  void CloseWrite() override { inner_->CloseWrite(); }

  void Abort() override {
    std::lock_guard<std::mutex> lock(mu_);
    if (!aborted_) {
      aborted_ = true;
      inner_->Abort();
      aborted_cv_.notify_all();
    }
  }

 private:
  std::unique_ptr<ByteStream> inner_;
  std::mutex mu_;
  std::condition_variable aborted_cv_;
  bool blackhole_reads_;
  bool aborted_ = false;
};

// The full server stack, like the network suite's rig, plus the durable
// session plumbing: Start() binds the FrameServer's AckRegistry to the
// frontend's recovered sessions before the listener accepts anything.
struct DurabilityRig {
  explicit DurabilityRig(FrontendConfig config, size_t workers = 2, size_t ring = 64)
      : frontend(std::move(config)),
        pool(&frontend, WorkerPoolConfig{workers, ring}),
        server([this](Bytes report) { return pool.Enqueue(std::move(report)); },
               [this](Bytes report, ReportContext ctx, std::function<void(const Status&)> done) {
                 pool.EnqueueAsync(std::move(report), ctx, std::move(done));
               }),
        listener(&server) {}

  ~DurabilityRig() { Shutdown(); }

  void Start() {
    ASSERT_TRUE(frontend.Start().ok());
    ASSERT_TRUE(frontend.BindAckRegistry(&server.registry()).ok());
    pool.Start();
    drainer = std::make_unique<DrainScheduler>(&frontend);
    drainer->Start();
    server.BindFrontendStats(&frontend.stats());
    ASSERT_TRUE(listener.Start().ok());
  }

  void Shutdown() {
    if (shut_down_) {
      return;
    }
    shut_down_ = true;
    listener.Stop();
    (void)server.Shutdown();  // harness teardown; fault-injected errors expected
    if (drainer != nullptr) {
      drainer->Stop();
    }
    pool.Stop();
  }

  Result<std::unique_ptr<ByteStream>> Dial() {
    return TcpConnect("127.0.0.1", listener.port());
  }

  bool WaitForAccepted(uint64_t n, std::chrono::milliseconds timeout) {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (frontend.stats().reports_accepted.load() < n) {
      if (std::chrono::steady_clock::now() > deadline) {
        return false;
      }
      std::this_thread::yield();
    }
    return true;
  }

  ShufflerFrontend frontend;
  IngestWorkerPool pool;
  FrameServer server;
  TcpListener listener;
  std::unique_ptr<DrainScheduler> drainer;
  bool shut_down_ = false;
};

FrontendConfig DurabilityFrontendConfig(const std::string& spool_dir) {
  FrontendConfig config;
  config.pipeline.shuffler.threshold_mode = ThresholdMode::kNaive;
  config.pipeline.shuffler.policy = ThresholdPolicy{20, 10, 2};
  config.pipeline.num_threads = 0;
  config.pipeline.seed = "durability-e2e";
  config.ingest.num_shards = 4;
  config.spool_dir = spool_dir;
  return config;
}

// One sealed cohort, reused across restart drills: the same report bytes
// feed a serial reference frontend and the networked stacks, so histogram
// comparison is bit-exact.
std::vector<Bytes> SealCohort(const FrontendConfig& base) {
  std::vector<std::pair<std::string, std::string>> inputs;
  auto add = [&](const std::string& value, int count) {
    for (int i = 0; i < count; ++i) {
      inputs.emplace_back(value, value);
    }
  };
  add("durable-heavy", 30);
  add("durable-mid", 22);
  add("durable-rare", 4);  // below T=20: must vanish from the histogram
  ShufflerFrontend key_holder(base);
  const Encoder encoder = key_holder.MakeEncoder();
  SecureRandom rng(ToBytes("durability-cohort"));
  auto sealed = encoder.BatchSealReports(inputs, rng);
  EXPECT_TRUE(sealed.ok());
  return std::move(sealed).value();
}

// The serial reference: one epoch, drained inline, no network, no faults.
std::map<uint64_t, std::map<std::string, uint64_t>> SerialHistograms(
    const FrontendConfig& base, const std::vector<Bytes>& sealed) {
  ScratchDir dir("durability-serial");
  FrontendConfig config = base;
  config.spool_dir = dir.path;
  ShufflerFrontend serial(config);
  EXPECT_TRUE(serial.Start().ok());
  for (const auto& report : sealed) {
    EXPECT_TRUE(serial.AcceptReport(report).ok());
  }
  EXPECT_TRUE(serial.CutEpoch().ok());
  auto drained = serial.DrainSealedEpochs();
  EXPECT_TRUE(drained.ok());
  std::map<uint64_t, std::map<std::string, uint64_t>> expected;
  for (const auto& result : drained.results) {
    expected[result.epoch] = result.result.histogram;
  }
  return expected;
}

Bytes SyntheticReport(uint64_t client, uint64_t index) {
  Bytes report(48, static_cast<uint8_t>(0xD0 + client));
  for (int b = 0; b < 8; ++b) {
    report[8 + b] = static_cast<uint8_t>(index >> (8 * b));
  }
  return report;
}

void ExpectAckBooksBalance(const DurabilityRig& rig, uint64_t unique_reports) {
  ConnectionAckBook book = rig.server.ack_book();
  FrameStreamStats frames = rig.server.stats();
  EXPECT_EQ(frames.frames_report, book.acked + book.nacked + book.duplicates_suppressed);
  EXPECT_EQ(rig.frontend.stats().reports_accepted.load(), unique_reports);
  EXPECT_EQ(rig.frontend.stats().acks_sent.load(), book.acked);
  EXPECT_EQ(rig.frontend.stats().nacks_sent.load(), book.nacked);
  EXPECT_EQ(rig.frontend.stats().duplicates_suppressed.load(), book.duplicates_suppressed);
}

// ----------------------------------------- kill-after-ack, restart, replay

// The tentpole scenario: every report lands durably and is ACKed, but the
// client never sees an ack (blackholed) and its host dies.  The server is
// then killed and rebuilt on the same spool directory.  The restarted
// server must re-ACK the client's full replay from the recovered sessions
// WITHOUT re-ingesting a single report, and the drained histogram
// must be bit-identical to the serial frontend.
TEST(ServiceDurabilityTest, RestartAfterLostAcksSuppressesFullReplay) {
  FrontendConfig base = DurabilityFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base);
  ASSERT_FALSE(sealed.empty());
  const auto expected = SerialHistograms(base, sealed);
  ASSERT_EQ(expected.size(), 1u);

  ScratchDir dir("durability-restart");
  FrameClient client(FrameClientConfig{/*session_id=*/0xA11CEull});

  {
    FrontendConfig config = base;
    config.spool_dir = dir.path;
    DurabilityRig rig(config);
    rig.Start();

    auto stream = rig.Dial();
    ASSERT_TRUE(stream.ok());
    auto flaky = std::make_unique<FlakyStream>(std::move(stream).value(),
                                               /*blackhole_reads=*/true);
    FlakyStream* kill = flaky.get();
    ASSERT_TRUE(client.Connect(std::move(flaky)).ok());
    for (const auto& report : sealed) {
      ASSERT_TRUE(client.SendReport(report).ok());
    }
    // Server side: everything ingested, committed, and ACKed into the
    // blackhole.  Client side: nothing confirmed, everything outstanding.
    ASSERT_TRUE(rig.WaitForAccepted(sealed.size(), std::chrono::milliseconds(30000)));
    EXPECT_FALSE(client.WaitForAcks(std::chrono::milliseconds(50)));
    EXPECT_EQ(client.outstanding(), sealed.size());
    kill->Abort();
    ASSERT_TRUE(rig.server.Shutdown().ok());
    EXPECT_EQ(rig.server.ack_book().acked, sealed.size());
  }  // the whole stack dies: frontend, WAL, registry, listener

  FrontendConfig config = base;
  config.spool_dir = dir.path;
  DurabilityRig rig(config);
  rig.Start();

  // The survivor replayed both halves of the durable state.
  EXPECT_EQ(rig.frontend.stats().recovered_reports.load(), sealed.size());
  EXPECT_EQ(rig.frontend.stats().recovered_sessions.load(), 1u);
  for (uint64_t seq = 0; seq < sealed.size(); ++seq) {
    EXPECT_TRUE(rig.server.registry().IsDurable(0xA11CEull, seq)) << "seq " << seq;
  }
  EXPECT_EQ(rig.server.registry().sessions(), 1u);

  // Full replay: the client resends every report.  Every one must be
  // re-ACKed as a duplicate; none may be re-ingested.
  auto stream = rig.Dial();
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(client.Connect(std::move(stream).value()).ok());
  ASSERT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
  EXPECT_EQ(client.stats().acked, sealed.size());
  EXPECT_EQ(client.stats().session_rotations, 0u);
  client.Close();

  EXPECT_EQ(rig.frontend.stats().reports_accepted.load(), 0u);

  // And the epoch those reports live in drains bit-identically.
  ASSERT_TRUE(rig.pool.Flush().ok());
  ASSERT_TRUE(rig.frontend.CutEpoch().ok());
  ASSERT_TRUE(rig.drainer->WaitForDrainedEpochs(1, std::chrono::milliseconds(30000)));
  ASSERT_TRUE(rig.server.Shutdown().ok());
  rig.drainer->Stop();
  auto results = rig.drainer->TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].reports, sealed.size());
  auto it = expected.find(results[0].epoch);
  ASSERT_NE(it, expected.end());
  EXPECT_EQ(results[0].result.histogram, it->second);  // bit-identical

  ConnectionAckBook book = rig.server.ack_book();
  EXPECT_EQ(book.acked, 0u);
  EXPECT_EQ(book.duplicates_suppressed, sealed.size());
  EXPECT_EQ(book.goodbyes_acked, 1u);
  EXPECT_EQ(rig.server.registry().sessions(), 0u);  // goodbye freed it
}

// ------------------------------------------------- crash-at-syscall-k sweep

// The disk dies at syscall k — mid-group-commit, mid-checkpoint,
// mid-fsync, anywhere — while a client is streaming reports.  The client
// quiesces (everything the dead server will ever ACK has been ACKed), the
// stack is discarded, and a healthy server reopens the directory.  The
// client's replay of its unACKed remainder must land exactly-once: the
// drained epoch holds each report exactly one time, bit-identical to the
// serial reference, for every seeded schedule.
TEST(ServiceDurabilityTest, CrashAtSyscallKStaysExactlyOnce) {
  const uint64_t seed = SeedFromEnv();
  SCOPED_TRACE("PROCHLO_DURABILITY_SEED=" + std::to_string(seed));
  FrontendConfig base = DurabilityFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base);
  const auto expected = SerialHistograms(base, sealed);
  Rng rng(seed);

  for (int schedule = 0; schedule < 3; ++schedule) {
    const uint64_t crash_after = 25 + rng.NextBelow(260);
    SCOPED_TRACE("schedule=" + std::to_string(schedule) +
                 " crash_after=" + std::to_string(crash_after));
    ScratchDir dir("durability-crash-" + std::to_string(schedule));
    FaultFs fault;
    FrameClientConfig client_config{/*session_id=*/1000 + static_cast<uint64_t>(schedule)};
    client_config.nack_retry_delay = std::chrono::milliseconds(1);
    client_config.nack_retry_max_delay = std::chrono::milliseconds(8);
    FrameClient client(client_config);

    {
      FrontendConfig config = base;
      config.spool_dir = dir.path;
      config.fs = &fault;
      DurabilityRig rig(config);
      rig.Start();
      fault.ArmCrash(crash_after);

      auto stream = rig.Dial();
      ASSERT_TRUE(stream.ok());
      auto flaky = std::make_unique<FlakyStream>(std::move(stream).value(),
                                                 /*blackhole_reads=*/false);
      FlakyStream* kill = flaky.get();
      ASSERT_TRUE(client.Connect(std::move(flaky)).ok());
      for (const auto& report : sealed) {
        ASSERT_TRUE(client.SendReport(report).ok());
      }
      // Quiesce: either everything converged (the crash landed after the
      // last report's syscalls) or the ACK stream has gone stable under a
      // dead disk.  Waiting for stability matters: an ACK still in flight
      // here would be a report the client never replays.  Once ACKs have
      // drained, every ACKed report's fused WAL record (report + commit)
      // is on disk, and every unACKed one either is too — its replay is
      // suppressed as a duplicate — or was lost whole, so the replay stays
      // exactly-once.
      uint64_t last_acked = ~uint64_t{0};
      int stable_rounds = 0;
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (!client.WaitForAcks(std::chrono::milliseconds(250))) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "client never quiesced; outstanding=" << client.outstanding();
        uint64_t acked = client.stats().acked;
        stable_rounds = (acked == last_acked) ? stable_rounds + 1 : 0;
        last_acked = acked;
        if (stable_rounds >= 6 && fault.crashed()) {
          break;
        }
      }
      kill->Abort();
    }  // stack A dies with the disk

    // A healthy disk and a fresh stack on the same directory.
    FrontendConfig config = base;
    config.spool_dir = dir.path;
    DurabilityRig rig(config);
    rig.Start();

    auto stream = rig.Dial();
    ASSERT_TRUE(stream.ok());
    ASSERT_TRUE(client.Connect(std::move(stream).value()).ok());
    ASSERT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
    client.Close();

    ASSERT_TRUE(rig.pool.Flush().ok());
    ASSERT_TRUE(rig.frontend.CutEpoch().ok());
    ASSERT_TRUE(rig.drainer->WaitForDrainedEpochs(1, std::chrono::milliseconds(30000)));
    ASSERT_TRUE(rig.server.Shutdown().ok());
    rig.drainer->Stop();
    auto results = rig.drainer->TakeResults();
    ASSERT_EQ(results.size(), 1u);
    // Zero lost, zero duplicated, bit-identical — across the crash.
    EXPECT_EQ(results[0].reports, sealed.size());
    auto it = expected.find(results[0].epoch);
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(results[0].result.histogram, it->second);
  }
}

// --------------------------------------------- ENOSPC: NACK, back off, heal

// A full disk must degrade gracefully: reports are NACKed retryable (never
// aborting the connection), the client backs off and retries, and once the
// disk heals every report lands exactly once.
TEST(ServiceDurabilityTest, SpoolWriteFailureNacksRetryableUntilHealed) {
  ScratchDir dir("durability-enospc");
  FaultFs fault;
  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  config.fs = &fault;
  DurabilityRig rig(config);
  rig.Start();

  constexpr uint64_t kReports = 24;
  FrameClientConfig client_config{/*session_id=*/0xE05ull};
  client_config.nack_retry_delay = std::chrono::milliseconds(1);
  client_config.nack_retry_max_delay = std::chrono::milliseconds(8);
  FrameClient client(client_config);
  auto stream = rig.Dial();
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(client.Connect(std::move(stream).value()).ok());

  fault.FailWrites(true);  // the disk fills up
  for (uint64_t i = 0; i < kReports; ++i) {
    ASSERT_TRUE(client.SendReport(SyntheticReport(1, i)).ok());
  }
  // Every report bounces (NACK kRetryable) and the client keeps retrying.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (client.stats().nacked < kReports) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(client.stats().acked, 0u);
  // Nothing became durable.  (reports_accepted is no witness here: a retry
  // buffered in the WAL counts until its failed group commit rolls it back.)
  EXPECT_EQ(rig.frontend.wal()->stats().records_flushed, 0u);
  EXPECT_GT(fault.write_faults(), 0u);

  fault.FailWrites(false);  // the disk heals
  ASSERT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
  EXPECT_EQ(client.stats().acked, kReports);
  EXPECT_GT(client.stats().retransmitted, 0u);
  EXPECT_EQ(client.stats().session_rotations, 0u);
  client.Close();
  ASSERT_TRUE(rig.server.Shutdown().ok());

  ExpectAckBooksBalance(rig, kReports);
  EXPECT_EQ(rig.server.ack_book().acked, kReports);
}

// -------------------- the spool↔journal atomicity window, probed exactly

// One report through a server whose process dies at EXACTLY syscall k (the
// response — ack or NACK — dies with it), then a healthy stack reopens the
// directory and the client replays its unconfirmed report.  Returns how
// many copies of that report the drained epoch holds: 1 is exactly-once,
// 2 is the window — a crash that landed between the spool append and the
// journal commit made the report durable without its (session, seq), so
// the replay re-ingested it.
uint64_t ReportCopiesAfterExactCrash(FrontendConfig base, const std::string& tag,
                                     uint64_t k) {
  ScratchDir dir("durability-window-" + tag + "-" + std::to_string(k));
  base.spool_dir = dir.path;
  FrameClientConfig client_config{/*session_id=*/0xD00Dull};
  client_config.nack_retry_delay = std::chrono::milliseconds(1);
  client_config.nack_retry_max_delay = std::chrono::milliseconds(8);
  FrameClient client(client_config);
  FaultFs fault;
  {
    FrontendConfig config = base;
    config.fs = &fault;
    DurabilityRig rig(config);
    rig.Start();
    auto stream = rig.Dial();
    EXPECT_TRUE(stream.ok());
    if (!stream.ok()) {
      return 0;
    }
    auto flaky = std::make_unique<FlakyStream>(std::move(stream).value(),
                                               /*blackhole_reads=*/true);
    FlakyStream* kill = flaky.get();
    EXPECT_TRUE(client.Connect(std::move(flaky)).ok());
    fault.ArmCrashExactly(k);
    EXPECT_TRUE(client.SendReport(SyntheticReport(9, 1)).ok());
    // Quiesce: the ingest pool has resolved the report (accepted or failed;
    // the response went into the blackhole either way).  A k beyond the
    // report's syscall footprint resolves normally and merely probes
    // nothing.  (The server's ack book only folds at connection close, so
    // the pool's books are the live signal here.)
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      WorkerPoolStats pool_stats = rig.pool.stats();
      if (pool_stats.accepted + pool_stats.accept_failures >= 1) {
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    (void)rig.pool.Flush();  // harness quiesce; a faulted flush is expected
    kill->Abort();
  }  // the PROCESS dies; bytes already written survive (page-cache crash model)

  DurabilityRig rig(base);  // a healthy disk, the same directory
  rig.Start();
  auto stream = rig.Dial();
  EXPECT_TRUE(stream.ok());
  if (!stream.ok()) {
    return 0;
  }
  EXPECT_TRUE(client.Connect(std::move(stream).value()).ok());
  EXPECT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
  client.Close();
  EXPECT_TRUE(rig.pool.Flush().ok());
  EXPECT_TRUE(rig.frontend.CutEpoch().ok());
  EXPECT_TRUE(rig.drainer->WaitForDrainedEpochs(1, std::chrono::milliseconds(30000)));
  EXPECT_TRUE(rig.server.Shutdown().ok());
  rig.drainer->Stop();
  auto results = rig.drainer->TakeResults();
  if (results.size() != 1) {
    return 0;
  }
  return results[0].reports;
}

// The regression the WAL exists for: with the unified record, EVERY exact
// crash point k yields exactly one copy — "report durable" and "(session,
// seq) committed" can no longer come apart.  Against the retired
// spool-then-journal path this failed at the k that landed between the
// spool append and the journal commit, with two copies after replay.
TEST(ServiceDurabilityTest, WalClosesTheSpoolJournalAtomicityWindowAtEveryCrashPoint) {
  FrontendConfig base = DurabilityFrontendConfig("");
  for (uint64_t k = 1; k <= 12; ++k) {
    SCOPED_TRACE("crash exactly at syscall k=" + std::to_string(k));
    EXPECT_EQ(ReportCopiesAfterExactCrash(base, "wal", k), 1u);
  }
}

// ----------------------- lost dirents: the durable-rename discipline, pinned

// A crash may lose any dirent whose parent directory was never fsynced —
// a freshly created file or a just-renamed marker silently reverts.  The
// production discipline is that every recovery-critical metadata step
// (seal markers, generation creates, the wal.ckpt snapshot's rename) is
// followed by a parent-dir fsync.  This test pins
// it: every create/rename NOT followed by a SyncDir is revoked at the
// crash, and recovery must still come back bit-identical.  Remove any of
// the production SyncDirs and the corresponding marker/segment vanishes
// here — sealed epochs unseal, checkpoints un-happen, replay duplicates.
TEST(ServiceDurabilityTest, SealedAndCheckpointedMetadataSurvivesLostDirents) {
  FrontendConfig base = DurabilityFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base);
  ASSERT_GE(sealed.size(), 8u);
  const auto expected = SerialHistograms(base, sealed);  // epoch 0 reference
  const size_t half = sealed.size() / 2;

  ScratchDir dir("durability-dirents");
  FaultFs fault;
  fault.TrackDirents(true);
  {
    FrontendConfig config = base;
    config.spool_dir = dir.path;
    config.fs = &fault;
    ShufflerFrontend frontend(config);
    ASSERT_TRUE(frontend.Start().ok());
    for (const auto& report : sealed) {
      ASSERT_TRUE(frontend.AcceptReport(report).ok());
    }
    // Seal epoch 0: the WAL checkpoint (rotation + wal.ckpt rename)
    // followed by the epoch's seal marker, each dir-fsynced.
    ASSERT_TRUE(frontend.CutEpoch().ok());
    // Epoch 1 accumulates un-checkpointed reports in the live WAL gen.
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(frontend.AcceptReport(sealed[i]).ok());
    }
    ASSERT_TRUE(frontend.BarrierIngest().ok());
    EXPECT_GT(fault.syncdirs(), 0u);
  }  // crash

  // The crash's metadata toll: whatever was never dir-fsynced vanishes.
  // The discipline means nothing recovery depends on is in that set.
  (void)fault.DropUnsyncedDirents();

  FrontendConfig config = base;
  config.spool_dir = dir.path;
  ShufflerFrontend after(config);
  ASSERT_TRUE(after.Start().ok());
  EXPECT_EQ(after.current_epoch(), 1u);          // the seal marker survived
  EXPECT_EQ(after.current_epoch_size(), half);   // the WAL replay is intact
  auto drained = after.DrainSealedEpochs();      // sealed epoch 0, still whole
  ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
  ASSERT_EQ(drained.results.size(), 1u);
  EXPECT_EQ(drained.results[0].epoch, 0u);
  EXPECT_EQ(drained.results[0].reports, sealed.size());
  auto it = expected.find(0);
  ASSERT_NE(it, expected.end());
  EXPECT_EQ(drained.results[0].result.histogram, it->second);
}

// ------------------------------------- post-drain cleanup retries, bounded

// RemoveEpoch failures after a successful drain are retried a bounded
// number of times; a transient failure heals invisibly (only the retry
// counter moves), a persistent one surfaces as a counted leak — never as a
// lost epoch.
TEST(ServiceDurabilityTest, RemoveEpochFailuresRetryBoundedThenSurface) {
  FrontendConfig base = DurabilityFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base);
  const auto expected = SerialHistograms(base, sealed);

  ScratchDir dir("durability-remove");
  FaultFs fault;
  FrontendConfig config = base;
  config.spool_dir = dir.path;
  config.fs = &fault;
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());

  // Epoch 0: one transient unlink failure, healed by the retry.
  for (const auto& report : sealed) {
    ASSERT_TRUE(frontend.AcceptReport(report).ok());
  }
  ASSERT_TRUE(frontend.CutEpoch().ok());
  fault.FailRemoves(1);
  auto drained = frontend.DrainSealedEpochs();
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained.results.size(), 1u);
  EXPECT_EQ(drained.results[0].result.histogram, expected.begin()->second);
  EXPECT_GE(frontend.stats().remove_retries.load(), 1u);
  EXPECT_EQ(frontend.stats().remove_failures.load(), 0u);

  // Epoch 1: the unlink failure persists past every retry.  The drain
  // still succeeds — the reports are in the result — but the leak is
  // surfaced for operators.
  for (const auto& report : sealed) {
    ASSERT_TRUE(frontend.AcceptReport(report).ok());
  }
  ASSERT_TRUE(frontend.CutEpoch().ok());
  fault.FailRemoves(1'000'000);
  drained = frontend.DrainSealedEpochs();
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained.results.size(), 1u);
  EXPECT_EQ(frontend.stats().remove_failures.load(), 1u);
  fault.FailRemoves(0);
}

// ----------------------- a drained epoch's removal, crashed at every step

// Removing a drained epoch unlinks its generations, then its seal marker.
// A crash part-way must never let a restart drain what is left: a second,
// thinner release of the same epoch differs from the first by crowds
// smaller than T, exactly what thresholding hides.  The epoch spans three
// generations; the process dies at every syscall k of the removal, and the
// restart drains the whole epoch again, bit-identically, only when nothing
// was removed — otherwise it finishes the removal and drains nothing.  The
// power-loss passes also forget unlinks whose directory was never fsynced
// afterwards: all of them, or all but the marker's (the disk reordered
// them).  Each unlink waits for the ones before it to be durable, so the
// loss can only take back the last one, never leave a generation without
// its marker.
TEST(ServiceDurabilityTest, CrashDuringDrainedEpochRemovalNeverRedrainsAPartialEpoch) {
  FrontendConfig base = DurabilityFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base);
  const auto expected = SerialHistograms(base, sealed);
  ASSERT_EQ(expected.count(0), 1u);
  const size_t third = sealed.size() / 3;

  // Three generation unlinks and the marker's, each after a dir fsync:
  // eight syscalls, so k = 9 lands after them all.  Unlink i (1-based) is
  // syscall 2i; it is durable once syscall 2i + 1 succeeds.
  constexpr uint64_t kRemovalOps = 8;
  enum class Loss { kProcessCrash, kPowerLoss, kPowerLossKeepingMarkerUnlink };
  for (Loss loss : {Loss::kProcessCrash, Loss::kPowerLoss, Loss::kPowerLossKeepingMarkerUnlink}) {
    const bool power_loss = loss != Loss::kProcessCrash;
    for (uint64_t k = 1; k <= kRemovalOps + 1; ++k) {
      SCOPED_TRACE("loss mode " + std::to_string(static_cast<int>(loss)) +
                   " at removal syscall k=" + std::to_string(k));
      ScratchDir dir("durability-removal-" + std::to_string(static_cast<int>(loss)) + "-" +
                     std::to_string(k));
      FrontendConfig config = base;
      config.spool_dir = dir.path;
      FaultFs fault;
      {
        FrontendConfig faulty = config;
        faulty.fs = &fault;
        ShufflerFrontend frontend(faulty);
        ASSERT_TRUE(frontend.Start().ok());
        for (size_t i = 0; i < sealed.size(); ++i) {
          ASSERT_TRUE(frontend.AcceptReport(sealed[i]).ok());
          if (i + 1 == third || i + 1 == 2 * third) {
            ASSERT_TRUE(frontend.wal()->Checkpoint().ok());  // the next generation
          }
        }
        ASSERT_TRUE(frontend.CutEpoch().ok());
        fault.TrackDirents(true);
        fault.ArmCrash(k);
        auto drained = frontend.DrainSealedEpochs();
        ASSERT_TRUE(drained.ok());
        ASSERT_EQ(drained.results.size(), 1u);
        EXPECT_EQ(drained.results[0].result.histogram, expected.at(0));
        EXPECT_EQ(frontend.stats().remove_failures.load(), k <= kRemovalOps ? 1u : 0u);
      }  // the process dies with the removal wherever it stopped
      if (loss == Loss::kPowerLoss) {
        fault.DropUnsyncedDirents();
      } else if (loss == Loss::kPowerLossKeepingMarkerUnlink) {
        fault.DropUnsyncedDirents(
            [](const std::string& path) { return path.find(".sealed") == std::string::npos; });
      }

      // The first unlink happened at syscall 2 and is durable from syscall 3.
      const bool nothing_removed = k <= (power_loss ? 3u : 2u);
      // The marker's unlink, the last syscall, is never followed by a fsync.
      const bool marker_survived = k <= kRemovalOps || loss == Loss::kPowerLoss;
      ShufflerFrontend after(config);
      ASSERT_TRUE(after.Start().ok());
      auto again = after.DrainSealedEpochs();
      ASSERT_TRUE(again.ok()) << again.failure->error.message;
      EXPECT_FALSE(stdfs::exists(dir.path + "/epoch-0.sealed"));
      if (nothing_removed) {
        // Nothing went: the whole epoch drains again, bit-identically.
        ASSERT_EQ(again.results.size(), 1u);
        EXPECT_EQ(again.results[0].reports, sealed.size());
        EXPECT_EQ(again.results[0].result.histogram, expected.at(0));
        EXPECT_EQ(after.stats().recovered_removals.load(), 0u);
      } else {
        EXPECT_TRUE(again.results.empty());
        EXPECT_EQ(after.stats().recovered_reports.load(), 0u);
        EXPECT_EQ(after.stats().recovered_removals.load(), marker_survived ? 1u : 0u);
      }
    }
  }
}

// A marker whose missing generations are not a prefix of the ones it names
// is no interrupted removal: Start() refuses, naming the missing file, and
// leaves every file as it was rather than drop the acknowledged reports
// the surviving generations hold.
TEST(ServiceDurabilityTest, MarkerMissingAMiddleGenerationIsRefused) {
  FrontendConfig base = DurabilityFrontendConfig("");
  const std::vector<Bytes> sealed = SealCohort(base);
  const size_t third = sealed.size() / 3;
  ScratchDir dir("durability-removal-hole");
  FrontendConfig config = base;
  config.spool_dir = dir.path;
  std::vector<uint64_t> gens;
  {
    ShufflerFrontend frontend(config);
    ASSERT_TRUE(frontend.Start().ok());
    for (size_t i = 0; i < sealed.size(); ++i) {
      ASSERT_TRUE(frontend.AcceptReport(sealed[i]).ok());
      if (i + 1 == third || i + 1 == 2 * third) {
        ASSERT_TRUE(frontend.wal()->Checkpoint().ok());
      }
    }
    ASSERT_TRUE(frontend.CutEpoch().ok());
  }
  for (const auto& entry : stdfs::directory_iterator(dir.path)) {
    unsigned long gen = 0;
    if (std::sscanf(entry.path().filename().c_str(), "ingest-%lu.wal", &gen) == 1) {
      gens.push_back(gen);
    }
  }
  std::sort(gens.begin(), gens.end());
  ASSERT_GE(gens.size(), 4u);  // the epoch's three, and the active one
  const std::string hole = dir.path + "/ingest-" + std::to_string(gens[1]) + ".wal";
  ASSERT_TRUE(stdfs::remove(hole));
  auto snapshot = [&] {
    std::map<std::string, std::string> files;
    for (const auto& entry : stdfs::directory_iterator(dir.path)) {
      std::ifstream in(entry.path(), std::ios::binary);
      files[entry.path().filename().string()] = std::string(std::istreambuf_iterator<char>(in), {});
    }
    return files;
  };
  const auto before = snapshot();

  ShufflerFrontend after(config);
  Status started = after.Start();
  ASSERT_FALSE(started.ok());
  EXPECT_NE(started.error().message.find(hole), std::string::npos) << started.error().message;
  EXPECT_EQ(snapshot(), before);  // byte-identical: nothing dropped
}

// ------------------------------------------- eviction → rotation, end-to-end

// A capped registry evicts the stalest idle session; the evicted client's
// next reports draw kSessionExpired, and the client rotates: fresh id,
// re-HELLO, replay under new seqs — exactly once, with no double-rotation
// from the stale expired NACKs still in the pipe (the session stamp on the
// NACK is what keeps the second generation from rotating again).
TEST(ServiceDurabilityTest, EvictedClientRotatesSessionExactlyOnce) {
  ScratchDir dir("durability-rotate");
  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  config.max_sessions = 1;
  DurabilityRig rig(config);
  rig.Start();

  constexpr uint64_t kBatch = 8;
  FrameClientConfig config_a{/*session_id=*/1};
  config_a.nack_retry_delay = std::chrono::milliseconds(1);
  FrameClient client_a(config_a);
  auto stream_a = rig.Dial();
  ASSERT_TRUE(stream_a.ok());
  ASSERT_TRUE(client_a.Connect(std::move(stream_a).value()).ok());
  for (uint64_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(client_a.SendReport(SyntheticReport(0xA, i)).ok());
  }
  ASSERT_TRUE(client_a.WaitForAcks(std::chrono::milliseconds(30000)));

  // A second session crowds out the first (cap 1, session 1 idle).
  FrameClient client_b(FrameClientConfig{/*session_id=*/2});
  auto stream_b = rig.Dial();
  ASSERT_TRUE(stream_b.ok());
  ASSERT_TRUE(client_b.Connect(std::move(stream_b).value()).ok());
  for (uint64_t i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(client_b.SendReport(SyntheticReport(0xB, i)).ok());
  }
  ASSERT_TRUE(client_b.WaitForAcks(std::chrono::milliseconds(30000)));
  EXPECT_GE(rig.server.registry().evictions(), 1u);
  EXPECT_EQ(rig.server.registry().tombstones(), 1u);

  // The evicted client sends again: expired NACKs, one rotation, replay.
  for (uint64_t i = kBatch; i < 2 * kBatch; ++i) {
    ASSERT_TRUE(client_a.SendReport(SyntheticReport(0xA, i)).ok());
  }
  ASSERT_TRUE(client_a.WaitForAcks(std::chrono::milliseconds(30000)));
  EXPECT_EQ(client_a.stats().session_rotations, 1u);
  EXPECT_EQ(client_a.stats().acked, 2 * kBatch);
  EXPECT_GE(client_a.stats().nacked, 1u);
  EXPECT_NE(client_a.session_id(), 1u);

  client_a.Close();
  client_b.Close();
  ASSERT_TRUE(rig.server.Shutdown().ok());

  // Exactly once through the whole dance: 3 batches ingested, every
  // expired frame NACKed, books balanced.
  ExpectAckBooksBalance(rig, 3 * kBatch);
  ConnectionAckBook book = rig.server.ack_book();
  EXPECT_EQ(book.acked, 3 * kBatch);
  EXPECT_EQ(book.duplicates_suppressed, 0u);
  EXPECT_GE(book.expired_nacked, 1u);
  EXPECT_EQ(book.nacked, book.expired_nacked);
  EXPECT_EQ(rig.server.registry().evictions(), 2u);  // session 1, then 2
  EXPECT_EQ(rig.server.registry().sessions(), 0u);
}

// ------------------------------------------------------- 10k-session churn

// One (session, seq) report through the production ack wiring, the way a
// FrameConnection drives it: claim, buffer the fused report+commit record
// in the WAL, group-commit, then Commit (ACK) or Release (NACK) from the
// completion.
void AckedIngest(ShufflerFrontend& frontend, AckRegistry& registry, uint64_t session,
                 uint64_t seq) {
  ASSERT_EQ(registry.TryClaim(session, seq), Claim::kNew);
  const Bytes report = SyntheticReport(session, seq);
  Status verdict = Error{"unresolved"};
  ASSERT_TRUE(frontend
                  .AcceptRoutedReportAsync(
                      ShardedIngest::ShardOfReport(report, frontend.num_shards()), report,
                      ReportContext{session, seq},
                      [&](const Status& status) {
                        verdict = status;
                        if (status.ok()) {
                          registry.Commit(session, seq);
                        } else {
                          registry.Release(session, seq);
                        }
                      })
                  .ok());
  ASSERT_TRUE(frontend.BarrierIngest().ok());
  ASSERT_TRUE(verdict.ok()) << verdict.error().message;
}

// The registry's memory must stay bounded under session churn: live
// sessions never exceed the cap, evicted ids become tombstones, and a
// checkpoint writes the whole final state into the wal.ckpt snapshot, from
// which a restarted server restores it.
TEST(ServiceDurabilityTest, SessionChurnStaysBoundedAtCap) {
  ScratchDir dir("durability-churn");
  constexpr size_t kCap = 64;
  constexpr uint64_t kSessions = 10'000;

  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  config.fsync_spool = false;  // buffered: the churn would drown in fsyncs
  config.max_sessions = kCap;
  {
    ShufflerFrontend frontend(config);
    ASSERT_TRUE(frontend.Start().ok());
    AckRegistry registry;
    ASSERT_TRUE(frontend.BindAckRegistry(&registry).ok());
    for (uint64_t s = 1; s <= kSessions; ++s) {
      AckedIngest(frontend, registry, s, 0);
      ASSERT_LE(registry.sessions(), kCap);
    }
    EXPECT_EQ(registry.sessions(), kCap);
    EXPECT_EQ(registry.evictions(), kSessions - kCap);
    EXPECT_EQ(registry.tombstones(), kSessions - kCap);
    ASSERT_TRUE(frontend.wal()->Checkpoint().ok());
  }

  // The restarted server finds the final shape in the snapshot alone.
  ShufflerFrontend after(config);
  ASSERT_TRUE(after.Start().ok());
  EXPECT_EQ(after.stats().recovered_wal_session_ops.load(), 0u);
  EXPECT_EQ(after.stats().recovered_sessions.load(), kCap);
  AckRegistry registry;
  ASSERT_TRUE(after.BindAckRegistry(&registry).ok());
  EXPECT_EQ(registry.sessions(), kCap);
  EXPECT_EQ(registry.tombstones(), kSessions - kCap);
  // Evicted sessions answer expired, not duplicate-or-reingest.
  EXPECT_EQ(registry.TryClaim(1, 1), Claim::kSessionExpired);
  EXPECT_EQ(registry.TryClaim(kSessions, 0), Claim::kDuplicate);
}

// ----------------------------------------------- watermark edge behaviors

TEST(ServiceDurabilityTest, WatermarkSurvivesReleaseCommitInterleavings) {
  AckRegistry registry;
  for (uint64_t s = 0; s <= 5; ++s) {
    ASSERT_EQ(registry.TryClaim(5, s), Claim::kNew);
  }
  EXPECT_EQ(registry.TryClaim(5, 3), Claim::kInFlight);

  registry.Commit(5, 2);  // sparse {2}, watermark still 0
  EXPECT_TRUE(registry.IsDurable(5, 2));
  EXPECT_FALSE(registry.IsDurable(5, 0));
  EXPECT_EQ(registry.TryClaim(5, 2), Claim::kDuplicate);

  registry.Release(5, 0);  // NACKed: claimable again
  ASSERT_EQ(registry.TryClaim(5, 0), Claim::kNew);
  registry.Commit(5, 0);  // watermark 1
  EXPECT_EQ(registry.TryClaim(5, 0), Claim::kDuplicate);
  EXPECT_FALSE(registry.IsDurable(5, 1));

  registry.Commit(5, 1);  // watermark sweeps through sparse {2} → 3
  EXPECT_TRUE(registry.IsDurable(5, 2));
  EXPECT_EQ(registry.TryClaim(5, 1), Claim::kDuplicate);

  registry.Commit(5, 4);  // sparse {4}
  registry.Commit(5, 3);  // watermark sweeps to 5
  registry.Commit(5, 5);  // watermark 6, sparse empty
  for (uint64_t s = 0; s <= 5; ++s) {
    EXPECT_EQ(registry.TryClaim(5, s), Claim::kDuplicate) << "seq " << s;
  }
  // A released-then-reclaimed seq past the watermark still works.
  ASSERT_EQ(registry.TryClaim(5, 6), Claim::kNew);
  registry.Release(5, 6);
  ASSERT_EQ(registry.TryClaim(5, 6), Claim::kNew);
  EXPECT_EQ(registry.sessions(), 1u);
}

// An out-of-order commit burst must fold entirely into the contiguous
// watermark — in the registry, and in the snapshot, whose fold applies the
// same sweep: the recovered session has an empty sparse set.
TEST(ServiceDurabilityTest, OutOfOrderCommitBurstCompactsIntoWatermark) {
  ScratchDir dir("durability-ooo");
  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  config.fsync_spool = false;
  constexpr uint64_t kBurst = 64;
  {
    ShufflerFrontend frontend(config);
    ASSERT_TRUE(frontend.Start().ok());
    AckRegistry registry;
    ASSERT_TRUE(frontend.BindAckRegistry(&registry).ok());
    for (uint64_t s = 0; s < kBurst; ++s) {
      ASSERT_EQ(registry.TryClaim(7, s), Claim::kNew);
    }
    for (uint64_t s = kBurst; s-- > 0;) {  // logged and committed in strict reverse order
      const Bytes report = SyntheticReport(7, s);
      ASSERT_TRUE(frontend
                      .AcceptRoutedReportAsync(
                          ShardedIngest::ShardOfReport(report, frontend.num_shards()), report,
                          ReportContext{7, s},
                          [&registry, s](const Status& status) {
                            EXPECT_TRUE(status.ok());
                            registry.Commit(7, s);
                          })
                      .ok());
    }
    ASSERT_TRUE(frontend.BarrierIngest().ok());
    for (uint64_t s = 0; s < kBurst; ++s) {
      EXPECT_EQ(registry.TryClaim(7, s), Claim::kDuplicate);
    }
    ASSERT_TRUE(frontend.wal()->Checkpoint().ok());
  }
  IngestWalConfig wal_config;
  wal_config.dir = dir.path;
  wal_config.fsync = false;
  IngestWal reopened(wal_config);
  auto recovery = reopened.Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  EXPECT_EQ(recovery.value().replayed_session_ops, 0u);  // all in the snapshot
  ASSERT_EQ(recovery.value().sessions.live.size(), 1u);
  const SessionSnapshot& session = recovery.value().sessions.live.at(7);
  EXPECT_EQ(session.watermark, kBurst);
  EXPECT_TRUE(session.sparse.empty());
}

// Sequence numbers near the top of the space must saturate, never wrap: a
// wrapped watermark would mark the whole space durable and suppress every
// future report as a duplicate of nothing.
TEST(ServiceDurabilityTest, SeqSpaceSaturatesInsteadOfWrapping) {
  constexpr uint64_t kMax = ~uint64_t{0};
  // A session whose watermark sits one below the top (restored, since
  // getting there organically takes 2^64 commits).
  SessionImage image;
  image.live[/*session_id=*/9] = SessionSnapshot{kMax - 1, {}};
  AckRegistry registry;
  registry.RestoreFromRecovery(image);

  EXPECT_EQ(registry.TryClaim(9, kMax), Claim::kSessionExpired);  // reserved
  ASSERT_EQ(registry.TryClaim(9, kMax - 1), Claim::kNew);
  registry.Commit(9, kMax - 1);  // watermark saturates at kMax
  EXPECT_EQ(registry.TryClaim(9, kMax - 1), Claim::kDuplicate);
  EXPECT_TRUE(registry.IsDurable(9, kMax - 2));
  // No wrap: low seqs read as durable (below the saturated watermark),
  // not as fresh claims on a zeroed counter.
  EXPECT_EQ(registry.TryClaim(9, 0), Claim::kDuplicate);
  EXPECT_EQ(registry.TryClaim(9, kMax), Claim::kSessionExpired);

  // Even a crafted snapshot holding the reserved seq must not wrap the
  // sweep loop: kMax stays parked in the sparse set forever.
  SessionImage forced;
  forced.live[/*session_id=*/11] = SessionSnapshot{kMax, {kMax}};
  AckRegistry registry2;
  registry2.RestoreFromRecovery(forced);
  EXPECT_TRUE(registry2.IsDurable(11, kMax));
  EXPECT_EQ(registry2.TryClaim(11, 3), Claim::kDuplicate);
  EXPECT_EQ(registry2.sessions(), 1u);
}

// ------------------------------------------------- goodbye drops everything

TEST(ServiceDurabilityTest, GoodbyeErasesDurableSessionState) {
  ScratchDir dir("durability-goodbye");
  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  {
    ShufflerFrontend frontend(config);
    ASSERT_TRUE(frontend.Start().ok());
    AckRegistry registry;
    ASSERT_TRUE(frontend.BindAckRegistry(&registry).ok());
    for (uint64_t s = 0; s < 10; ++s) {
      AckedIngest(frontend, registry, 7, s);
    }
    EXPECT_EQ(registry.sessions(), 1u);

    registry.Terminate(7);
    EXPECT_EQ(registry.sessions(), 0u);
    EXPECT_EQ(registry.tombstones(), 0u);
    registry.Terminate(7);  // idempotent
    // A reused id starts over as a brand-new session, not as a ghost.
    EXPECT_EQ(registry.TryClaim(7, 0), Claim::kNew);
    registry.Release(7, 0);
    ASSERT_TRUE(frontend.wal()->Checkpoint().ok());
  }
  // The checkpoint folded the goodbye into the snapshot: the restarted
  // server has no trace of the session.
  ShufflerFrontend after(config);
  ASSERT_TRUE(after.Start().ok());
  EXPECT_EQ(after.stats().recovered_wal_session_ops.load(), 0u);
  EXPECT_EQ(after.stats().recovered_sessions.load(), 0u);
  AckRegistry registry;
  ASSERT_TRUE(after.BindAckRegistry(&registry).ok());
  EXPECT_EQ(registry.sessions(), 0u);
  EXPECT_EQ(registry.tombstones(), 0u);
  EXPECT_EQ(registry.TryClaim(7, 0), Claim::kNew);
}

// ------------------------------------------ the wal.ckpt session snapshot

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// Every file in `dir`, name -> bytes.
std::map<std::string, std::string> DirContents(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : stdfs::directory_iterator(dir)) {
    files[entry.path().filename().string()] = ReadFile(entry.path().string());
  }
  return files;
}

// wal.ckpt is published by rename, so a flipped byte or a short file is
// damage, never a torn write: Start() refuses it, names the file, and
// changes nothing on disk.  A stale wal.ckpt.tmp — a publish that died
// before its rename — is garbage that the next clean start removes.
TEST(ServiceDurabilityTest, CorruptSnapshotIsRefusedAndStaleTempRemoved) {
  ScratchDir dir("durability-corrupt-ckpt");
  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  {
    ShufflerFrontend frontend(config);
    ASSERT_TRUE(frontend.Start().ok());
    AckRegistry registry;
    ASSERT_TRUE(frontend.BindAckRegistry(&registry).ok());
    for (uint64_t s = 0; s < 5; ++s) {
      AckedIngest(frontend, registry, 1, s);
    }
    ASSERT_TRUE(frontend.wal()->Checkpoint().ok());
  }
  const std::string ckpt = dir.path + "/wal.ckpt";
  WriteFile(ckpt + ".tmp", "junk");
  const std::string good = ReadFile(ckpt);
  // The header frame: covered generation, live and tombstone counts.
  const size_t header_frame = FrameWireSize(3 * sizeof(uint64_t));
  ASSERT_GT(good.size(), header_frame);
  std::string flipped = good;
  flipped.back() ^= 0x01;
  for (const std::string& bad :
       {flipped, good.substr(0, good.size() - 1), good.substr(0, header_frame)}) {
    WriteFile(ckpt, bad);
    const auto before = DirContents(dir.path);
    ShufflerFrontend refused(config);
    Status started = refused.Start();
    ASSERT_FALSE(started.ok());
    EXPECT_NE(started.error().message.find(ckpt), std::string::npos) << started.error().message;
    EXPECT_EQ(DirContents(dir.path), before);  // byte-identical, the stale temp included
  }

  WriteFile(ckpt, good);
  ShufflerFrontend after(config);
  ASSERT_TRUE(after.Start().ok());
  EXPECT_FALSE(stdfs::exists(ckpt + ".tmp"));
  EXPECT_EQ(after.stats().recovered_sessions.load(), 1u);
  AckRegistry registry;
  ASSERT_TRUE(after.BindAckRegistry(&registry).ok());
  for (uint64_t s = 0; s < 5; ++s) {
    EXPECT_EQ(registry.TryClaim(1, s), Claim::kDuplicate) << "seq " << s;
  }
  EXPECT_EQ(registry.TryClaim(1, 5), Claim::kNew);
}

// A checkpoint whose fsyncs fail publishes nothing: it is counted, the old
// wal.ckpt stays byte-for-byte authoritative, and the WAL keeps its old
// image.  A restart rebuilds exactly the acked sessions from the old
// snapshot plus the session ops logged after it, and a failed publish
// followed by a healthy checkpoint folds each op exactly once.
TEST(ServiceDurabilityTest, FailedCheckpointKeepsTheOldSnapshotAuthoritative) {
  ScratchDir dir("durability-ckpt-fail");
  FaultFs fault;
  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  config.fs = &fault;
  const std::string ckpt = dir.path + "/wal.ckpt";
  {
    ShufflerFrontend frontend(config);
    ASSERT_TRUE(frontend.Start().ok());
    AckRegistry registry;
    ASSERT_TRUE(frontend.BindAckRegistry(&registry).ok());
    AckedIngest(frontend, registry, 1, 0);
    ASSERT_TRUE(frontend.wal()->Checkpoint().ok());
    const std::string old_snapshot = ReadFile(ckpt);
    const SessionImage old_image = frontend.wal()->sessions();

    AckedIngest(frontend, registry, 1, 1);
    AckedIngest(frontend, registry, 2, 0);
    registry.Terminate(1);
    fault.FailSyncs(true);
    EXPECT_FALSE(frontend.wal()->Checkpoint().ok());
    fault.FailSyncs(false);
    EXPECT_EQ(frontend.wal()->stats().checkpoint_failures, 1u);
    EXPECT_EQ(ReadFile(ckpt), old_snapshot);
    EXPECT_EQ(frontend.wal()->sessions(), old_image);
  }  // crash before any checkpoint succeeds again

  SessionImage acked;
  acked.live[2] = SessionSnapshot{1, {}};
  ShufflerFrontend after(config);
  ASSERT_TRUE(after.Start().ok());
  EXPECT_EQ(after.stats().recovered_wal_session_ops.load(), 3u);  // 2 commits + goodbye
  EXPECT_EQ(after.wal()->sessions(), acked);
  AckRegistry registry;
  ASSERT_TRUE(after.BindAckRegistry(&registry).ok());
  EXPECT_EQ(registry.sessions(), 1u);
  EXPECT_EQ(registry.TryClaim(2, 0), Claim::kDuplicate);
  EXPECT_EQ(registry.TryClaim(1, 0), Claim::kNew);  // the goodbye held
  registry.Release(1, 0);

  // The rotation writes nothing, so failing writes fails the publish: the
  // folded image must not be adopted, and the retry folds the op once.
  AckedIngest(after, registry, 2, 1);
  fault.FailWrites(true);
  EXPECT_FALSE(after.wal()->Checkpoint().ok());
  fault.FailWrites(false);
  EXPECT_EQ(after.wal()->stats().checkpoint_failures, 1u);
  EXPECT_EQ(after.wal()->sessions(), acked);
  ASSERT_TRUE(after.wal()->Checkpoint().ok());
  acked.live[2] = SessionSnapshot{2, {}};
  EXPECT_EQ(after.wal()->sessions(), acked);
}

// The snapshot is an image, not a log: 500 commits on one session fold
// into one watermark, so wal.ckpt stays a few dozen bytes however long the
// session runs.
TEST(ServiceDurabilityTest, SnapshotStaysBoundedUnderCommitChurn) {
  ScratchDir dir("durability-snapshot-bound");
  FrontendConfig config = DurabilityFrontendConfig(dir.path);
  config.fsync_spool = false;
  constexpr uint64_t kCommits = 500;
  {
    ShufflerFrontend frontend(config);
    ASSERT_TRUE(frontend.Start().ok());
    AckRegistry registry;
    ASSERT_TRUE(frontend.BindAckRegistry(&registry).ok());
    for (uint64_t s = 0; s < kCommits; ++s) {
      AckedIngest(frontend, registry, 3, s);
      ASSERT_TRUE(frontend.wal()->Checkpoint().ok());
      ASSERT_LT(stdfs::file_size(dir.path + "/wal.ckpt"), 1024u) << "after commit " << s;
    }
  }
  ShufflerFrontend after(config);
  ASSERT_TRUE(after.Start().ok());
  const SessionImage image = after.wal()->sessions();
  ASSERT_EQ(image.live.size(), 1u);
  EXPECT_EQ(image.live.at(3).watermark, kCommits);
  EXPECT_TRUE(image.live.at(3).sparse.empty());
}

// One checkpoint over 3 live sessions and 1 tombstone, crashed at every
// write-side syscall k it makes.  After each crash the disk keeps every
// dirent, loses every unsynced one, or loses only wal.ckpt's rename.  Every
// restart must restore the same session image: the old snapshot plus the
// generations past it until the new snapshot is durable, the new one after.
// The checkpoint closes a generation holding nothing but a goodbye and
// unlinks it once covered, so unlinking it before the rename is durable
// resurrects the session.
TEST(ServiceDurabilityTest, CheckpointCrashAtEverySyscallRestoresTheSameImage) {
  FrontendConfig base = DurabilityFrontendConfig("");
  base.max_sessions = 4;
  SessionImage expected;
  for (uint64_t s : {2, 3, 4}) {
    expected.live[s] = SessionSnapshot{2, {}};
  }
  expected.evicted[1] = 2;

  enum class Lost { kNothing, kUnsyncedDirents, kSnapshotRename };
  for (Lost lost : {Lost::kNothing, Lost::kUnsyncedDirents, Lost::kSnapshotRename}) {
    bool finished = false;
    for (uint64_t k = 1; !finished; ++k) {
      ASSERT_LT(k, 32u) << "the checkpoint never completed";
      SCOPED_TRACE("lost=" + std::to_string(static_cast<int>(lost)) + " k=" + std::to_string(k));
      ScratchDir dir("durability-ckpt-crash");
      FaultFs fault;
      {
        FrontendConfig config = base;
        config.spool_dir = dir.path;
        config.fs = &fault;
        ShufflerFrontend frontend(config);
        ASSERT_TRUE(frontend.Start().ok());
        AckRegistry registry;
        ASSERT_TRUE(frontend.BindAckRegistry(&registry).ok());
        for (uint64_t session = 1; session <= 5; ++session) {  // admitting 5 evicts 1
          AckedIngest(frontend, registry, session, 0);
          AckedIngest(frontend, registry, session, 1);
        }
        ASSERT_TRUE(frontend.wal()->Checkpoint().ok());
        registry.Terminate(5);  // alone in the fresh generation
        fault.TrackDirents(true);
        fault.ArmCrash(k);
        // Done once a checkpoint made every syscall before the crash point.
        finished = frontend.wal()->Checkpoint().ok() && !fault.crashed();
      }  // the process dies at syscall k, or just after a clean checkpoint
      if (lost == Lost::kUnsyncedDirents) {
        fault.DropUnsyncedDirents();
      } else if (lost == Lost::kSnapshotRename) {
        const std::string ckpt = dir.path + "/wal.ckpt";
        fault.DropUnsyncedDirents([&](const std::string& path) { return path == ckpt; });
      }

      FrontendConfig config = base;
      config.spool_dir = dir.path;
      ShufflerFrontend after(config);
      Status started = after.Start();
      ASSERT_TRUE(started.ok()) << started.error().message;
      EXPECT_EQ(after.wal()->sessions(), expected);
      AckRegistry registry;
      ASSERT_TRUE(after.BindAckRegistry(&registry).ok());
      EXPECT_EQ(registry.sessions(), 3u);
      EXPECT_EQ(registry.tombstones(), 1u);
      EXPECT_EQ(registry.TryClaim(1, 2), Claim::kSessionExpired);
      EXPECT_EQ(registry.TryClaim(4, 1), Claim::kDuplicate);
      EXPECT_EQ(registry.TryClaim(5, 0), Claim::kNew);  // the goodbye held
    }
  }
}

}  // namespace
}  // namespace prochlo
