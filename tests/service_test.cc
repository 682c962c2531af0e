// The shuffler-frontend ingestion subsystem end to end: content-hash
// sharding, epoch-cut policy, the spool (sealed epochs as WAL generations)
// and torn-tail recovery, the
// batch encoder fast path, streaming stash-shuffle input, and the
// acceptance scenario — reports framed, ingested across >= 4 shards,
// spooled to disk, epoch-cut, shuffled, and analyzed to a histogram
// bit-identical to the equivalent one-shot Pipeline::Run, at thread counts
// {0, 4}, including after a simulated crash/reopen mid-epoch.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>

#include "src/core/pipeline.h"
#include "src/core/report.h"
#include "src/service/frontend.h"
#include "src/service/ingest.h"
#include "src/service/spool.h"
#include "src/service/wal.h"
#include "src/service/wire.h"
#include "src/sgx/attestation.h"
#include "src/shuffle/stash_shuffle.h"
#include "src/util/rng.h"

namespace prochlo {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test; removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() / ("prochlo-" + name)).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

// Thread counts for the end-to-end matrix.  PROCHLO_STASH_THREADS (a comma
// list, as the benches use) overrides, so scripts/check.sh can pin the
// matrix externally; default covers sequential and 4 workers.
std::vector<size_t> ThreadMatrix() {
  const char* env = std::getenv("PROCHLO_STASH_THREADS");
  if (env == nullptr) {
    return {0, 4};
  }
  std::vector<size_t> threads;
  std::string spec = env;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    threads.push_back(std::strtoull(spec.substr(pos, comma - pos).c_str(), nullptr, 10));
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return threads;
}

std::vector<std::pair<std::string, std::string>> CohortInputs() {
  // Crowd ID = value, so results are interleaving-invariant even under
  // randomized thresholding (see Pipeline::MergePartials).
  std::vector<std::pair<std::string, std::string>> inputs;
  auto add = [&](const std::string& value, int count) {
    for (int i = 0; i < count; ++i) {
      inputs.emplace_back(value, value);
    }
  };
  add("app-alpha", 90);
  add("app-beta", 60);
  add("app-gamma", 35);
  add("app-rare", 5);  // below T=20: must not reach the analyzer
  return inputs;
}

PipelineConfig ServicePipelineConfig(size_t threads) {
  PipelineConfig config;
  config.shuffler.threshold_mode = ThresholdMode::kNaive;
  config.shuffler.policy = ThresholdPolicy{20, 10, 2};
  config.num_threads = threads;
  config.seed = "service-e2e";
  return config;
}

// ---------------------------------------------------------------- sharding

TEST(ServiceTest, ShardAssignmentIsStableAndSpreads) {
  Rng rng(0x5348);
  std::set<size_t> seen;
  for (int i = 0; i < 256; ++i) {
    Bytes report(64);
    for (auto& byte : report) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    size_t shard = ShardedIngest::ShardOfReport(report, 4);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, ShardedIngest::ShardOfReport(report, 4));  // stable
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), 4u);  // 256 random reports hit every shard
}

// ------------------------------------------------------------- epoch cuts

Bytes NumberedReport(uint64_t i) {
  Bytes report(32, 0);
  for (int b = 0; b < 8; ++b) {
    report[b] = static_cast<uint8_t>(i >> (8 * b));
  }
  return report;
}

// A WAL over `dir` (the spool root), recovered and open for appends.
std::unique_ptr<IngestWal> OpenWal(const std::string& dir) {
  IngestWalConfig config;
  config.dir = dir;
  config.fsync = false;
  auto wal = std::make_unique<IngestWal>(config);
  EXPECT_TRUE(wal->Recover().ok());
  return wal;
}

// Appends half of one more frame to the newest WAL generation: the group
// commit a crash tore.
void TearNewestGeneration(const std::string& dir, const Bytes& payload) {
  std::string victim;
  unsigned long best_gen = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    unsigned long gen = 0;
    if (std::sscanf(name.c_str(), "ingest-%lu.wal", &gen) == 1 && gen >= best_gen) {
      best_gen = gen;
      victim = entry.path().string();
    }
  }
  ASSERT_FALSE(victim.empty());
  std::FILE* f = std::fopen(victim.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  Bytes torn = EncodeFrame(payload);
  torn.resize(torn.size() / 2);
  std::fwrite(torn.data(), 1, torn.size(), f);
  std::fclose(f);
}

uint64_t Total(const std::vector<uint64_t>& counts) {
  uint64_t total = 0;
  for (uint64_t count : counts) {
    total += count;
  }
  return total;
}

TEST(ServiceTest, SizeTriggerSealsEpochs) {
  IngestConfig config;
  config.num_shards = 4;
  config.max_epoch_reports = 10;
  ShardedIngest ingest(config);
  for (uint64_t i = 0; i < 25; ++i) {
    ASSERT_TRUE(ingest.Accept(NumberedReport(i)).ok());
  }
  EXPECT_EQ(ingest.stats().epochs_sealed, 2u);
  EXPECT_EQ(ingest.current_epoch_size(), 5u);

  auto first = ingest.PopSealedEpoch();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->epoch, 0u);
  EXPECT_EQ(first->total, 10u);
  size_t sum = 0;
  for (size_t s = 0; s < first->shard_reports.size(); ++s) {
    EXPECT_EQ(first->shard_reports[s].size(), first->shard_counts[s]);
    sum += first->shard_counts[s];
  }
  EXPECT_EQ(sum, 10u);
  auto second = ingest.PopSealedEpoch();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->epoch, 1u);
  EXPECT_FALSE(ingest.PopSealedEpoch().has_value());
}

TEST(ServiceTest, AgeTriggerWaitsForAnonymityFloor) {
  IngestConfig config;
  config.num_shards = 2;
  config.max_epoch_age = 2;
  config.min_epoch_reports = 5;
  ShardedIngest ingest(config);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(ingest.Accept(NumberedReport(i)).ok());
  }
  ASSERT_TRUE(ingest.Tick().ok());
  ASSERT_TRUE(ingest.Tick().ok());
  ASSERT_TRUE(ingest.Tick().ok());
  // Old but thin: the batch keeps waiting (§4.2's minimum-batch floor).
  EXPECT_EQ(ingest.stats().epochs_sealed, 0u);
  for (uint64_t i = 3; i < 5; ++i) {
    ASSERT_TRUE(ingest.Accept(NumberedReport(i)).ok());
  }
  ASSERT_TRUE(ingest.Tick().ok());
  EXPECT_EQ(ingest.stats().epochs_sealed, 1u);
  EXPECT_EQ(ingest.stats().age_cuts, 1u);
}

TEST(ServiceTest, TickSurfacesAndCountsSealFailures) {
  // A spool whose directory vanishes mid-epoch: the age-cut's seal cannot
  // open the epoch's next generation.  The failure must not vanish with it
  // — Tick returns the error, stats record it, and the epoch stays open for
  // a retry.
  ScratchDir dir("seal-failure");
  auto wal = OpenWal(dir.path);
  IngestConfig config;
  config.num_shards = 2;
  config.max_epoch_age = 1;
  ShardedIngest ingest(config);
  ingest.SetWal(wal.get());
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ingest.Accept(NumberedReport(i)).ok());
  }
  fs::remove_all(dir.path);  // wedge the spool: the seal can't rotate or mark

  Status tick = ingest.Tick();
  EXPECT_FALSE(tick.ok());
  IngestStats stats = ingest.stats();
  EXPECT_EQ(stats.seal_failures, 1u);
  EXPECT_FALSE(stats.last_seal_error.empty());
  EXPECT_EQ(stats.age_cuts, 0u);
  EXPECT_EQ(stats.epochs_sealed, 0u);
  EXPECT_EQ(ingest.current_epoch_size(), 4u);  // the epoch is still open

  // Restore the directory: the next tick's retry seals cleanly, and the
  // retried batch still carries the full per-shard accounting (the failed
  // seal must not have zeroed the shard counts).
  fs::create_directories(dir.path);
  EXPECT_TRUE(ingest.Tick().ok());
  stats = ingest.stats();
  EXPECT_EQ(stats.seal_failures, 1u);
  EXPECT_EQ(stats.age_cuts, 1u);
  EXPECT_EQ(stats.epochs_sealed, 1u);
  auto batch = ingest.PopSealedEpoch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->total, 4u);
  size_t shard_sum = 0;
  for (size_t count : batch->shard_counts) {
    shard_sum += count;
  }
  EXPECT_EQ(shard_sum, 4u);
  EXPECT_EQ(wal->OpenEpochStream(0)->size(), 4u);  // the marker names all four
}

// ------------------------------------------------------------------ spool

TEST(ServiceTest, SpoolRoundTripAndTornTailRecovery) {
  ScratchDir dir("spool-recovery");
  std::vector<Bytes> epoch0;
  {
    auto wal = OpenWal(dir.path);
    for (uint64_t i = 0; i < 5; ++i) {
      epoch0.push_back(NumberedReport(i));
      ASSERT_TRUE(wal->AppendReport(/*shard=*/0, /*epoch=*/0, epoch0.back(), 0, 0, nullptr).ok());
    }
    for (uint64_t i = 5; i < 8; ++i) {
      epoch0.push_back(NumberedReport(i));
      ASSERT_TRUE(wal->AppendReport(/*shard=*/1, /*epoch=*/0, epoch0.back(), 0, 0, nullptr).ok());
    }
    ASSERT_TRUE(wal->SealEpoch(0).ok());
    ASSERT_TRUE(wal->AppendReport(0, 1, NumberedReport(100), 0, 0, nullptr).ok());
    ASSERT_TRUE(wal->AppendReport(0, 1, NumberedReport(101), 0, 0, nullptr).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  // Crash: a torn half-frame at the end of epoch 1's generation.
  TearNewestGeneration(dir.path, NumberedReport(102));

  IngestWalConfig config;
  config.dir = dir.path;
  IngestWal reopened(config);
  auto recovery = reopened.Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  ASSERT_EQ(recovery.value().epochs.size(), 2u);
  const IngestWal::RecoveredEpoch& sealed = recovery.value().epochs.at(0);
  EXPECT_TRUE(sealed.sealed);
  EXPECT_EQ(sealed.shard_counts, (std::vector<uint64_t>{5, 3}));
  const IngestWal::RecoveredEpoch& open = recovery.value().epochs.at(1);
  EXPECT_FALSE(open.sealed);
  EXPECT_EQ(Total(open.shard_counts), 2u);  // torn record discarded
  EXPECT_GT(recovery.value().truncated_bytes, 0u);

  auto stream = reopened.OpenEpochStream(0);
  ASSERT_EQ(stream->size(), 8u);
  std::vector<Bytes> yielded;
  while (auto record = stream->Next()) {
    yielded.push_back(std::move(*record));
  }
  EXPECT_EQ(yielded, epoch0);  // append order

  // Reset rewinds for shuffle retries.
  stream->Reset();
  size_t again = 0;
  while (stream->Next()) {
    again++;
  }
  EXPECT_EQ(again, 8u);

  ASSERT_TRUE(reopened.RemoveEpoch(0).ok());
  EXPECT_EQ(reopened.OpenEpochStream(0)->size(), 0u);
  EXPECT_FALSE(fs::exists(dir.path + "/epoch-0.sealed"));
  EXPECT_FALSE(fs::exists(dir.path + "/ingest-1.wal"));  // epoch 0's generation
}

TEST(ServiceTest, RecoveryResumesEpochWhoseOnlySegmentWasTorn) {
  ScratchDir dir("zero-frame-resume");
  {
    auto wal = OpenWal(dir.path);
    for (uint64_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(wal->AppendReport(0, 0, NumberedReport(i), 0, 0, nullptr).ok());
    }
    ASSERT_TRUE(wal->SealEpoch(0).ok());
  }
  // Epoch 1 crashed so early that its only generation is a single torn
  // frame; recovery truncates it to nothing.
  TearNewestGeneration(dir.path, NumberedReport(50));

  IngestWalConfig wal_config;
  wal_config.dir = dir.path;
  IngestWal reopened(wal_config);
  auto recovery = reopened.Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  EXPECT_GT(recovery.value().truncated_bytes, 0u);
  IngestConfig config;
  config.num_shards = 4;
  ShardedIngest ingest(config);
  ingest.RestoreFromRecovery(recovery.value());
  ingest.SetWal(&reopened);

  // The report-less epoch 1 must still be the resume point: new reports may
  // never be appended to epoch 0, whose seal marker already exists.
  EXPECT_EQ(ingest.current_epoch(), 1u);
  EXPECT_EQ(ingest.current_epoch_size(), 0u);
  ASSERT_TRUE(ingest.Accept(NumberedReport(60)).ok());
  ASSERT_TRUE(ingest.CutEpoch().ok());
  EXPECT_EQ(reopened.OpenEpochStream(0)->size(), 6u);  // sealed epoch untouched
  EXPECT_EQ(reopened.OpenEpochStream(1)->size(), 1u);
  auto first = ingest.PopSealedEpoch();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->epoch, 0u);
  EXPECT_EQ(first->total, 6u);
}

TEST(ServiceTest, FailedDrainKeepsEpochQueued) {
  for (bool spooled : {false, true}) {
    SCOPED_TRACE(spooled ? "spooled" : "in-memory");
    ScratchDir dir("drain-keeps-epoch");
    FrontendConfig config;
    config.pipeline = ServicePipelineConfig(0);
    // Force the drain to fail: the merge refuses batches this small.
    config.pipeline.shuffler.min_batch_size = 1000;
    config.ingest.num_shards = 2;
    if (spooled) {
      config.spool_dir = dir.path;
    }
    std::string message;
    {
      ShufflerFrontend frontend(config);
      ASSERT_TRUE(frontend.Start().ok());
      const Encoder encoder = frontend.MakeEncoder();
      SecureRandom client_rng(ToBytes("requeue-clients"));
      for (int i = 0; i < 10; ++i) {
        auto report = encoder.EncodeValue("value", "value", client_rng);
        ASSERT_TRUE(report.ok());
        ASSERT_TRUE(frontend.AcceptReport(std::move(report).value()).ok());
      }
      ASSERT_TRUE(frontend.CutEpoch().ok());
      auto first = frontend.DrainSealedEpochs();
      ASSERT_FALSE(first.ok());
      EXPECT_EQ(first.failure->epoch, 0u);
      // The epoch went back on the queue: a retry sees it again rather than
      // silently succeeding over nothing.
      auto second = frontend.DrainSealedEpochs();
      ASSERT_FALSE(second.ok());
      EXPECT_EQ(second.failure->error.message, first.failure->error.message);
      message = first.failure->error.message;
      EXPECT_EQ(frontend.stats().epochs_drained, 0u);
    }
    EXPECT_EQ(message, "batch below the minimum cardinality; keep batching");
    if (!spooled) {
      continue;
    }
    // The failed merge left the spooled epoch intact on disk, and a
    // restarted frontend finds it sealed and drains all of it.
    config.pipeline.shuffler.min_batch_size = 0;
    ShufflerFrontend restarted(config);
    ASSERT_TRUE(restarted.Start().ok());
    EXPECT_EQ(restarted.stats().recovered_reports, 10u);
    EXPECT_EQ(restarted.current_epoch(), 1u);  // epoch 0 is sealed, not resumed
    auto drained = restarted.DrainSealedEpochs();
    ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
    ASSERT_EQ(drained.results.size(), 1u);
    EXPECT_EQ(drained.results[0].epoch, 0u);
    EXPECT_EQ(drained.results[0].reports, 10u);
    EXPECT_EQ(drained.results[0].result.shuffler_stats.received, 10u);
  }
}

// The PR's headline regression: a transiently failing drain must not consume
// the in-memory batch — before the fix, the reports were moved out before
// the pipeline ran, the empty shell was requeued, and the retry "drained"
// zero reports while claiming the original count.  The injected fault fails
// the pipeline run exactly where a real shuffle failure lands.
void RunFailedDrainRetryTest(bool spooled) {
  auto inputs = CohortInputs();
  Pipeline one_shot(ServicePipelineConfig(0));
  auto expected = one_shot.Run(inputs);
  ASSERT_TRUE(expected.ok());

  ScratchDir dir(spooled ? "drain-retry-spooled" : "drain-retry-memory");
  FrontendConfig config;
  config.pipeline = ServicePipelineConfig(0);
  config.ingest.num_shards = 4;
  if (spooled) {
    config.spool_dir = dir.path;
  }
  config.inject_drain_failure = FrontendConfig::DrainFaultInjection{/*epoch=*/0, /*times=*/1};
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());

  const Encoder encoder = frontend.MakeEncoder();
  SecureRandom client_rng(ToBytes("drain-retry-clients"));
  for (const auto& [crowd, value] : inputs) {
    auto report = encoder.EncodeValue(value, crowd, client_rng);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(frontend.AcceptReport(std::move(report).value()).ok());
  }
  ASSERT_TRUE(frontend.CutEpoch().ok());

  auto failed = frontend.DrainSealedEpochs();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.failure->epoch, 0u);
  EXPECT_TRUE(failed.results.empty());
  EXPECT_EQ(frontend.stats().epochs_drained, 0u);

  // The retry must see the complete epoch again: every report preserved,
  // histogram bit-identical to the one-shot pipeline over the same inputs.
  auto retried = frontend.DrainSealedEpochs();
  ASSERT_TRUE(retried.ok()) << retried.failure->error.message;
  ASSERT_EQ(retried.results.size(), 1u);
  EXPECT_EQ(retried.results[0].reports, inputs.size());
  EXPECT_EQ(retried.results[0].result.histogram, expected.value().histogram);
}

TEST(ServiceTest, FailedDrainRetryPreservesEveryReportInMemory) {
  RunFailedDrainRetryTest(/*spooled=*/false);
}

TEST(ServiceTest, FailedDrainRetryPreservesEveryReportSpooled) {
  RunFailedDrainRetryTest(/*spooled=*/true);
}

TEST(ServiceTest, DrainReturnsPartialProgressAlongsideFailure) {
  // Two sealed epochs; the drain of the second fails once.  The first
  // epoch's result must ride along with the failure instead of being
  // discarded by an error return, and the retry finishes the second.
  auto inputs = CohortInputs();
  Pipeline one_shot(ServicePipelineConfig(0));
  auto expected = one_shot.Run(inputs);
  ASSERT_TRUE(expected.ok());

  FrontendConfig config;
  config.pipeline = ServicePipelineConfig(0);
  config.ingest.num_shards = 4;
  config.inject_drain_failure = FrontendConfig::DrainFaultInjection{/*epoch=*/1, /*times=*/1};
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());

  const Encoder encoder = frontend.MakeEncoder();
  SecureRandom client_rng(ToBytes("partial-progress-clients"));
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (const auto& [crowd, value] : inputs) {
      auto report = encoder.EncodeValue(value, crowd, client_rng);
      ASSERT_TRUE(report.ok());
      ASSERT_TRUE(frontend.AcceptReport(std::move(report).value()).ok());
    }
    ASSERT_TRUE(frontend.CutEpoch().ok());
  }

  auto partial = frontend.DrainSealedEpochs();
  ASSERT_FALSE(partial.ok());
  EXPECT_EQ(partial.failure->epoch, 1u);
  ASSERT_EQ(partial.results.size(), 1u);  // epoch 0 drained before the failure
  EXPECT_EQ(partial.results[0].epoch, 0u);
  EXPECT_EQ(partial.results[0].result.histogram, expected.value().histogram);

  auto rest = frontend.DrainSealedEpochs();
  ASSERT_TRUE(rest.ok()) << rest.failure->error.message;
  ASSERT_EQ(rest.results.size(), 1u);
  EXPECT_EQ(rest.results[0].epoch, 1u);
  EXPECT_EQ(rest.results[0].result.histogram, expected.value().histogram);
}

TEST(ServiceTest, SizeCutSealFailureStillAcceptsTheReport) {
  // The duplicate-accept regression: the report that trips the size trigger
  // is durably appended *before* the seal runs.  A seal failure used to
  // surface as the Accept's error — the client, told "not ingested", would
  // retry and inject a duplicate.  Accept must return Ok (and count the
  // report); the seal failure stays visible in seal_failures.
  ScratchDir dir("size-cut-seal-failure");
  FrontendConfig config;
  config.pipeline = ServicePipelineConfig(0);
  config.ingest.num_shards = 1;
  config.ingest.max_epoch_reports = 4;
  config.spool_dir = dir.path;
  config.fsync_spool = false;
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(frontend.AcceptReport(NumberedReport(i)).ok());
  }
  fs::remove_all(dir.path);  // wedge the spool: the seal can't rotate or mark

  // The size-cut's seal flushes the 4th report with the others to the open
  // generation's fd, then fails to open the next generation.  That is the
  // epoch's problem, not this report's: Accept returns Ok and the report is
  // counted once.
  Status accepted = frontend.AcceptReport(NumberedReport(3));
  EXPECT_TRUE(accepted.ok()) << accepted.error().message;
  EXPECT_EQ(frontend.stats().reports_accepted, 4u);

  IngestStats stats = frontend.ingest_stats();
  EXPECT_EQ(stats.seal_failures, 1u);
  EXPECT_FALSE(stats.last_seal_error.empty());
  EXPECT_EQ(stats.epochs_sealed, 0u);
  EXPECT_EQ(stats.size_cuts, 0u);
  EXPECT_EQ(frontend.current_epoch_size(), 4u);  // epoch open, nothing lost

  // Restore the spool: the operator flush retries the seal and the batch
  // carries the full (non-duplicated) accounting.
  fs::create_directories(dir.path);
  ASSERT_TRUE(frontend.CutEpoch().ok());
  stats = frontend.ingest_stats();
  EXPECT_EQ(stats.epochs_sealed, 1u);
  EXPECT_EQ(stats.accepted, 4u);
}

// ------------------------------------------------------- batch encoder path

TEST(ServiceTest, BatchSealReportsOpensLikeSealReport) {
  SecureRandom rng(ToBytes("batch-seal"));
  KeyPair shuffler_keys = KeyPair::Generate(rng);
  KeyPair analyzer_keys = KeyPair::Generate(rng);
  EncoderConfig config;
  config.shuffler_public = shuffler_keys.public_key;
  config.analyzer_public = analyzer_keys.public_key;
  config.payload_size = 64;
  Encoder encoder(config);

  std::vector<std::pair<std::string, std::string>> inputs;
  for (int i = 0; i < 40; ++i) {
    inputs.emplace_back("crowd-" + std::to_string(i % 5), "value-" + std::to_string(i));
  }
  auto batch = encoder.BatchSealReports(inputs, rng);
  ASSERT_TRUE(batch.ok()) << batch.error().message;
  ASSERT_EQ(batch.value().size(), inputs.size());

  for (size_t i = 0; i < inputs.size(); ++i) {
    const Bytes& report = batch.value()[i];
    EXPECT_EQ(report.size(), ReportWireSize(64, CrowdIdMode::kPlainHash));
    auto view = OpenReport(shuffler_keys, report);
    ASSERT_TRUE(view.has_value()) << "report " << i;
    EXPECT_EQ(view->crowd.plain_hash, CrowdIdHash(inputs[i].first));
    auto padded = OpenInnerBox(analyzer_keys, view->inner_box);
    ASSERT_TRUE(padded.has_value());
    auto payload = UnpadPayload(*padded);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(ToString(*payload), inputs[i].second);
  }
}

// ------------------------------------------------- streaming stash shuffle

TEST(ServiceTest, StashShuffleStreamsFromSpoolBitIdentically) {
  ScratchDir dir("stash-stream");
  SecureRandom setup_rng(ToBytes("stash-stream"));
  IntelRootAuthority intel(setup_rng);
  auto platform = intel.ProvisionPlatform(setup_rng);
  Enclave enclave(EnclaveConfig{}, platform, setup_rng);

  std::vector<Bytes> records;
  for (uint64_t i = 0; i < 400; ++i) {
    Bytes record = NumberedReport(i);
    record.resize(64, static_cast<uint8_t>(i % 251));
    records.push_back(std::move(record));
  }
  Spool spool(SpoolConfig{dir.path, false});
  ASSERT_TRUE(spool.Open().ok());
  for (const auto& record : records) {
    ASSERT_TRUE(spool.Append(0, 0, record).ok());
  }
  ASSERT_TRUE(spool.SealEpoch(0).ok());

  auto run_vector = [&]() {
    StashShuffler shuffler(enclave, StashShuffler::Options{});
    SecureRandom rng(ToBytes("stash-stream-run"));
    return shuffler.Shuffle(records, rng);
  };
  auto run_stream = [&]() {
    StashShuffler shuffler(enclave, StashShuffler::Options{});
    SecureRandom rng(ToBytes("stash-stream-run"));
    auto stream = spool.OpenEpochStream(0);
    return shuffler.ShuffleStream(*stream, rng);
  };
  auto from_vector = run_vector();
  auto from_stream = run_stream();
  ASSERT_TRUE(from_vector.ok()) << from_vector.error().message;
  ASSERT_TRUE(from_stream.ok()) << from_stream.error().message;
  // Same rng, same input order => the emitted permutation is bit-identical
  // whether records came from memory or streamed off disk.
  EXPECT_EQ(from_vector.value(), from_stream.value());
}

// ----------------------------------------------------------- end to end

// Encodes the cohort with the frontend's keys and frames each report.
std::vector<Bytes> EncodeCohortFrames(const ShufflerFrontend& frontend,
                                      const std::vector<std::pair<std::string, std::string>>& inputs,
                                      const std::string& client_seed) {
  const Encoder encoder = frontend.MakeEncoder();
  SecureRandom client_rng(ToBytes(client_seed));
  auto sealed = encoder.BatchSealReports(inputs, client_rng);
  EXPECT_TRUE(sealed.ok());
  std::vector<Bytes> frames;
  frames.reserve(sealed.value().size());
  for (const auto& report : sealed.value()) {
    frames.push_back(EncodeFrame(report));
  }
  return frames;
}

TEST(ServiceTest, EndToEndMatchesOneShotPipelineAcrossThreads) {
  auto inputs = CohortInputs();
  for (size_t threads : ThreadMatrix()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));

    Pipeline one_shot(ServicePipelineConfig(threads));
    auto expected = one_shot.Run(inputs);
    ASSERT_TRUE(expected.ok()) << expected.error().message;
    ASSERT_FALSE(expected.value().histogram.empty());
    ASSERT_EQ(expected.value().histogram.count("app-rare"), 0u);

    ScratchDir dir("e2e-" + std::to_string(threads));
    FrontendConfig config;
    config.pipeline = ServicePipelineConfig(threads);
    config.ingest.num_shards = 4;
    config.spool_dir = dir.path;
    ShufflerFrontend frontend(config);
    ASSERT_TRUE(frontend.Start().ok());

    auto frames = EncodeCohortFrames(frontend, inputs, "clients-" + std::to_string(threads));
    // The cohort must actually spread across all 4 ingestion shards.
    std::set<size_t> shards;
    for (const auto& frame : frames) {
      auto report = DecodeFrame(frame);
      ASSERT_TRUE(report.ok());
      shards.insert(ShardedIngest::ShardOfReport(report.value(), 4));
    }
    ASSERT_EQ(shards.size(), 4u);

    // Staggered arrival: clients deliver in an order unrelated to encode
    // order, in bursts of several frames per network buffer.
    Rng arrival(0xA11 + threads);
    arrival.Shuffle(frames);
    size_t i = 0;
    while (i < frames.size()) {
      Bytes burst;
      for (size_t k = 0; k < 7 && i < frames.size(); ++k, ++i) {
        burst.insert(burst.end(), frames[i].begin(), frames[i].end());
      }
      ASSERT_TRUE(frontend.AcceptFrameStream(burst).ok());
      ASSERT_TRUE(frontend.Tick().ok());
    }
    EXPECT_EQ(frontend.stats().frames_ok, frames.size());
    EXPECT_EQ(frontend.stats().frames_corrupt, 0u);

    ASSERT_TRUE(frontend.CutEpoch().ok());
    auto drained = frontend.DrainSealedEpochs();
    ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
    ASSERT_EQ(drained.results.size(), 1u);
    EXPECT_EQ(drained.results[0].reports, inputs.size());
    EXPECT_EQ(drained.results[0].result.histogram, expected.value().histogram);
  }
}

TEST(ServiceTest, EndToEndSurvivesCrashAndReopenMidEpoch) {
  auto inputs = CohortInputs();
  for (size_t threads : ThreadMatrix()) {
    SCOPED_TRACE("threads=" + std::to_string(threads));

    Pipeline one_shot(ServicePipelineConfig(threads));
    auto expected = one_shot.Run(inputs);
    ASSERT_TRUE(expected.ok());

    ScratchDir dir("crash-" + std::to_string(threads));
    FrontendConfig config;
    config.pipeline = ServicePipelineConfig(threads);
    config.ingest.num_shards = 4;
    config.spool_dir = dir.path;

    std::vector<Bytes> frames;
    size_t half = 0;
    {
      ShufflerFrontend before(config);
      ASSERT_TRUE(before.Start().ok());
      frames = EncodeCohortFrames(before, inputs, "crash-clients");
      half = frames.size() / 2;
      for (size_t i = 0; i < half; ++i) {
        ASSERT_TRUE(before.AcceptFrameStream(frames[i]).ok());
      }
      ASSERT_TRUE(before.BarrierIngest().ok());  // the durability point
      // Crash: `before` is dropped mid-epoch, no seal, no drain.
    }
    // A torn half-frame from a group commit in flight at crash time.  Before
    // a checkpoint the reports live in the newest WAL generation, so that is
    // where a crashed append tears.
    {
      std::string victim;
      unsigned long best_gen = 0;
      for (const auto& entry : fs::directory_iterator(dir.path)) {
        const std::string name = entry.path().filename().string();
        unsigned long gen = 0;
        if (std::sscanf(name.c_str(), "ingest-%lu.wal", &gen) == 1 && gen >= best_gen) {
          best_gen = gen;
          victim = entry.path().string();
        }
      }
      ASSERT_FALSE(victim.empty());
      std::FILE* f = std::fopen(victim.c_str(), "ab");
      ASSERT_NE(f, nullptr);
      Bytes torn = EncodeFrame(Bytes(300, 0xAB));
      torn.resize(torn.size() / 2);
      std::fwrite(torn.data(), 1, torn.size(), f);
      std::fclose(f);
    }

    ShufflerFrontend after(config);
    ASSERT_TRUE(after.Start().ok());
    EXPECT_EQ(after.stats().recovered_reports, half);
    EXPECT_GT(after.stats().recovered_truncated_bytes, 0u);
    EXPECT_EQ(after.current_epoch(), 0u);  // resumes the interrupted epoch
    EXPECT_EQ(after.current_epoch_size(), half);

    for (size_t i = half; i < frames.size(); ++i) {
      ASSERT_TRUE(after.AcceptFrameStream(frames[i]).ok());
    }
    ASSERT_TRUE(after.CutEpoch().ok());
    auto drained = after.DrainSealedEpochs();
    ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
    ASSERT_EQ(drained.results.size(), 1u);
    EXPECT_EQ(drained.results[0].reports, inputs.size());
    EXPECT_EQ(drained.results[0].result.histogram, expected.value().histogram);
  }
}

TEST(ServiceTest, HistogramIsInterleavingInvariantUnderRandomizedThresholding) {
  auto inputs = CohortInputs();
  auto run = [&](uint64_t arrival_seed) {
    ScratchDir dir("interleave-" + std::to_string(arrival_seed));
    FrontendConfig config;
    config.pipeline = ServicePipelineConfig(0);
    config.pipeline.shuffler.threshold_mode = ThresholdMode::kRandomized;
    config.ingest.num_shards = 4;
    config.spool_dir = dir.path;
    ShufflerFrontend frontend(config);
    EXPECT_TRUE(frontend.Start().ok());
    auto frames = EncodeCohortFrames(frontend, inputs, "interleave-clients");
    Rng arrival(arrival_seed);
    arrival.Shuffle(frames);
    for (const auto& frame : frames) {
      EXPECT_TRUE(frontend.AcceptFrameStream(frame).ok());
    }
    EXPECT_TRUE(frontend.CutEpoch().ok());
    auto drained = frontend.DrainSealedEpochs();
    EXPECT_TRUE(drained.ok());
    return drained.ok() && !drained.results.empty() ? drained.results[0].result.histogram
                                                    : std::map<std::string, uint64_t>{};
  };
  auto histogram_a = run(1);
  auto histogram_b = run(2);
  // Same seed, same epoch membership, different arrival interleaving:
  // bit-identical analyzer output (crowd ID = value, so even randomized
  // drops are value-consistent).
  EXPECT_FALSE(histogram_a.empty());
  EXPECT_EQ(histogram_a, histogram_b);
}

TEST(ServiceTest, InMemoryModeDrainsWithoutSpool) {
  auto inputs = CohortInputs();
  Pipeline one_shot(ServicePipelineConfig(0));
  auto expected = one_shot.Run(inputs);
  ASSERT_TRUE(expected.ok());

  FrontendConfig config;
  config.pipeline = ServicePipelineConfig(0);
  config.ingest.num_shards = 4;  // no spool_dir: epochs accumulate in RAM
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());
  const Encoder encoder = frontend.MakeEncoder();
  SecureRandom client_rng(ToBytes("in-memory-clients"));
  for (const auto& [crowd, value] : inputs) {
    auto report = encoder.EncodeValue(value, crowd, client_rng);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(frontend.AcceptReport(std::move(report).value()).ok());
  }
  ASSERT_TRUE(frontend.CutEpoch().ok());
  auto drained = frontend.DrainSealedEpochs();
  ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
  ASSERT_EQ(drained.results.size(), 1u);
  EXPECT_EQ(drained.results[0].result.histogram, expected.value().histogram);
}

TEST(ServiceTest, MultiEpochAgeCutsProduceIndependentResults) {
  ScratchDir dir("multi-epoch");
  FrontendConfig config;
  config.pipeline = ServicePipelineConfig(0);
  config.pipeline.shuffler.policy.threshold = 10;
  config.ingest.num_shards = 4;
  config.ingest.max_epoch_age = 1;
  config.ingest.min_epoch_reports = 1;
  config.spool_dir = dir.path;
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());

  std::vector<std::pair<std::string, std::string>> wave;
  for (int i = 0; i < 30; ++i) {
    wave.emplace_back("epoch-value", "epoch-value");
  }
  size_t total = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    auto frames = EncodeCohortFrames(frontend, wave, "wave-" + std::to_string(epoch));
    for (const auto& frame : frames) {
      ASSERT_TRUE(frontend.AcceptFrameStream(frame).ok());
    }
    total += frames.size();
    ASSERT_TRUE(frontend.Tick().ok());  // age trigger seals each wave as its own epoch
  }
  auto drained = frontend.DrainSealedEpochs();
  ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
  ASSERT_EQ(drained.results.size(), 3u);
  size_t seen = 0;
  for (const auto& epoch_result : drained.results) {
    EXPECT_EQ(epoch_result.result.histogram.at("epoch-value"), 30u);
    seen += epoch_result.reports;
  }
  EXPECT_EQ(seen, total);
}

}  // namespace
}  // namespace prochlo
