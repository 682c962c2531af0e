// The concurrent accept/drain ingestion runtime end to end: N producer
// threads enqueue framed reports through FrameConnection/FrameServer and
// the IngestWorkerPool's lock-free rings, a background DrainScheduler
// overlaps draining epoch e with accumulating e+1, and every per-epoch
// histogram is pinned bit-identical to the single-threaded serial frontend
// for the same seed and report set — at worker counts {0, 2, 8}, across
// ring sizes, and across a simulated mid-epoch crash/reopen.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pipeline.h"
#include "src/service/connection.h"
#include "src/service/frontend.h"
#include "src/service/ingest.h"
#include "src/service/runtime.h"
#include "src/service/wire.h"
#include "src/util/rng.h"

namespace prochlo {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() / ("prochlo-" + name)).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

PipelineConfig RuntimePipelineConfig() {
  PipelineConfig config;
  config.shuffler.threshold_mode = ThresholdMode::kNaive;
  config.shuffler.policy = ThresholdPolicy{20, 10, 2};
  config.num_threads = 0;
  config.seed = "runtime-e2e";
  return config;
}

std::vector<std::pair<std::string, std::string>> WaveInputs(int wave) {
  // Crowd ID = value => interleaving-invariant per-epoch histograms.
  std::vector<std::pair<std::string, std::string>> inputs;
  auto add = [&](const std::string& value, int count) {
    for (int i = 0; i < count; ++i) {
      inputs.emplace_back(value, value);
    }
  };
  add("wave" + std::to_string(wave) + "-common", 70);
  add("wave" + std::to_string(wave) + "-mid", 40);
  add("shared-heavy", 30);
  add("wave" + std::to_string(wave) + "-rare", 4);  // below T=20: must vanish
  return inputs;
}

// Seals each wave with the frontend's keys; one vector of sealed reports
// per wave (identical bytes for the serial and concurrent runs).
std::vector<std::vector<Bytes>> SealWaves(const ShufflerFrontend& frontend, int waves,
                                          const std::string& client_seed) {
  const Encoder encoder = frontend.MakeEncoder();
  SecureRandom client_rng(ToBytes(client_seed));
  std::vector<std::vector<Bytes>> sealed;
  for (int wave = 0; wave < waves; ++wave) {
    auto batch = encoder.BatchSealReports(WaveInputs(wave), client_rng);
    EXPECT_TRUE(batch.ok());
    sealed.push_back(std::move(batch).value());
  }
  return sealed;
}

// Serial reference: one single-threaded frontend ingests the waves in
// order, cutting an epoch per wave, and drains everything at the end.
std::map<uint64_t, std::map<std::string, uint64_t>> SerialEpochHistograms(
    const FrontendConfig& base, const std::vector<std::vector<Bytes>>& waves,
    const std::string& spool_dir) {
  FrontendConfig config = base;
  config.spool_dir = spool_dir;
  ShufflerFrontend frontend(config);
  EXPECT_TRUE(frontend.Start().ok());
  for (const auto& wave : waves) {
    for (const auto& report : wave) {
      EXPECT_TRUE(frontend.AcceptReport(report).ok());
    }
    EXPECT_TRUE(frontend.CutEpoch().ok());
  }
  auto drained = frontend.DrainSealedEpochs();
  EXPECT_TRUE(drained.ok());
  std::map<uint64_t, std::map<std::string, uint64_t>> histograms;
  for (const auto& epoch_result : drained.results) {
    histograms[epoch_result.epoch] = epoch_result.result.histogram;
  }
  return histograms;
}

// -------------------------------------------------------------- worker pool

TEST(ServiceRuntimeTest, WorkerPoolIngestsEverythingAcrossWorkerCounts) {
  for (size_t workers : {size_t{0}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    FrontendConfig config;
    config.pipeline = RuntimePipelineConfig();
    config.ingest.num_shards = 4;  // in-memory
    ShufflerFrontend frontend(config);
    ASSERT_TRUE(frontend.Start().ok());

    IngestWorkerPool pool(&frontend, WorkerPoolConfig{workers, /*ring_capacity=*/64});
    pool.Start();
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 250;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&pool, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          Bytes report(48, static_cast<uint8_t>(p));
          for (int b = 0; b < 4; ++b) {
            report[8 + b] = static_cast<uint8_t>(i >> (8 * b));
          }
          ASSERT_TRUE(pool.Enqueue(std::move(report)).ok());
        }
      });
    }
    for (auto& producer : producers) {
      producer.join();
    }
    ASSERT_TRUE(pool.Flush().ok());

    WorkerPoolStats stats = pool.stats();
    EXPECT_EQ(stats.enqueued, static_cast<uint64_t>(kProducers * kPerProducer));
    EXPECT_EQ(stats.accepted, stats.enqueued);
    EXPECT_EQ(stats.accept_failures, 0u);
    EXPECT_EQ(frontend.current_epoch_size(), static_cast<size_t>(kProducers * kPerProducer));
    pool.Stop();
  }
}

TEST(ServiceRuntimeTest, TinyRingBackpressuresInsteadOfDropping) {
  FrontendConfig config;
  config.pipeline = RuntimePipelineConfig();
  config.ingest.num_shards = 4;
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());

  // ring_capacity=2: producers outrun the workers constantly; every report
  // must still land exactly once.
  IngestWorkerPool pool(&frontend, WorkerPoolConfig{/*workers=*/2, /*ring_capacity=*/2});
  pool.Start();
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, p] {
      for (int i = 0; i < 200; ++i) {
        Bytes report(40, static_cast<uint8_t>(0xC0 + p));
        report[0] = static_cast<uint8_t>(i);
        report[1] = static_cast<uint8_t>(i >> 8);
        ASSERT_TRUE(pool.Enqueue(std::move(report)).ok());
      }
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  ASSERT_TRUE(pool.Flush().ok());
  EXPECT_EQ(frontend.current_epoch_size(), 800u);
  EXPECT_EQ(pool.stats().accepted, 800u);
  pool.Stop();
}

// ------------------------------------------------- concurrent e2e bit-identity

// The acceptance scenario: kProducers threads deliver each wave through
// frame connections into the worker pool while the background drain thread
// overlaps draining sealed epochs with the next wave's accumulation.  Epoch
// membership is fixed by flushing before each cut, so every per-epoch
// histogram must be bit-identical to the serial frontend's.
void RunConcurrentE2E(size_t workers, size_t ring_capacity, bool crash_mid_epoch) {
  constexpr int kWaves = 3;
  constexpr int kProducers = 4;

  FrontendConfig base;
  base.pipeline = RuntimePipelineConfig();
  base.ingest.num_shards = 4;

  ScratchDir serial_dir("runtime-serial-" + std::to_string(workers) +
                        (crash_mid_epoch ? "-crash" : ""));
  ScratchDir concurrent_dir("runtime-concurrent-" + std::to_string(workers) + "-" +
                            std::to_string(ring_capacity) + (crash_mid_epoch ? "-crash" : ""));

  // Seal every wave once: pipeline keys are derived from the seed, so the
  // serial and concurrent frontends open the same sealed bytes.
  std::vector<std::vector<Bytes>> waves;
  {
    FrontendConfig config = base;
    ShufflerFrontend key_holder(config);
    waves = SealWaves(key_holder, kWaves, "runtime-clients");
  }
  auto expected = SerialEpochHistograms(base, waves, serial_dir.path);
  ASSERT_EQ(expected.size(), static_cast<size_t>(kWaves));

  FrontendConfig config = base;
  config.spool_dir = concurrent_dir.path;
  auto frontend = std::make_unique<ShufflerFrontend>(config);
  ASSERT_TRUE(frontend->Start().ok());
  auto pool = std::make_unique<IngestWorkerPool>(frontend.get(),
                                                 WorkerPoolConfig{workers, ring_capacity});
  pool->Start();
  auto drainer = std::make_unique<DrainScheduler>(frontend.get(),
                                                  DrainSchedulerConfig{std::chrono::milliseconds(1)});
  drainer->Start();

  std::vector<EpochResult> results;
  uint64_t delivered_frames = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    // Crash drill: after wave 1's producers delivered half their frames, the
    // process "dies" (frontend dropped mid-epoch with a torn tail) and a new
    // frontend recovers the spool, resumes the epoch, and finishes the wave.
    const bool crash_this_wave = crash_mid_epoch && wave == 1;

    FrameServer server([&](Bytes report) { return pool->Enqueue(std::move(report)); });
    std::vector<std::thread> producers;
    Rng arrival(0xA5 + wave);
    std::vector<Bytes> frames;
    const auto& sealed = waves[wave];
    const size_t limit = crash_this_wave ? sealed.size() / 2 : sealed.size();
    for (size_t i = 0; i < limit; ++i) {
      frames.push_back(EncodeFrame(sealed[i]));
    }
    arrival.Shuffle(frames);
    delivered_frames += frames.size();
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&server, &frames, p] {
        auto connection = server.Connect(/*capacity_bytes=*/512);
        // Interleaved slice, written in deliberately awkward chunk sizes so
        // frames split across reads and connections interleave at the pool.
        size_t chunk = 3 + static_cast<size_t>(p) * 7;
        for (size_t i = static_cast<size_t>(p); i < frames.size(); i += kProducers) {
          const Bytes& frame = frames[i];
          for (size_t off = 0; off < frame.size(); off += chunk) {
            size_t len = std::min(chunk, frame.size() - off);
            ASSERT_TRUE(connection->Write(ByteSpan(frame.data() + off, len)).ok());
          }
        }
        connection->CloseWrite();
      });
    }
    for (auto& producer : producers) {
      producer.join();
    }
    ASSERT_TRUE(server.Shutdown().ok());
    EXPECT_EQ(server.stats().frames_ok, frames.size());
    EXPECT_EQ(server.stats().frames_corrupt, 0u);
    ASSERT_TRUE(pool->Flush().ok());

    if (crash_this_wave) {
      // Tear down the runtime around the frontend, then the frontend itself
      // (no seal for the in-flight epoch), and corrupt a segment tail as a
      // crashed append would.  Stop before TakeResults: Stop's final drain
      // pass may complete epoch 0, whose spool segments are then removed —
      // losing that result here would mis-count, not the crash.
      drainer->Stop();
      for (auto& result : drainer->TakeResults()) {
        results.push_back(std::move(result));
      }
      drainer.reset();
      pool.reset();
      ASSERT_TRUE(frontend->BarrierIngest().ok());
      size_t resume_size = frontend->current_epoch_size();
      frontend.reset();
      {
        // Epoch 1's reports have not been checkpointed yet, so they sit in
        // the newest WAL generation — tear its tail as a crashed group
        // commit would.
        std::string victim;
        unsigned long best_gen = 0;
        for (const auto& entry : fs::directory_iterator(concurrent_dir.path)) {
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
        Bytes torn = EncodeFrame(Bytes(200, 0xEE));
        torn.resize(torn.size() / 2);
        std::fwrite(torn.data(), 1, torn.size(), f);
        std::fclose(f);
      }
      frontend = std::make_unique<ShufflerFrontend>(config);
      ASSERT_TRUE(frontend->Start().ok());
      EXPECT_EQ(frontend->current_epoch(), 1u);  // resumes the torn epoch
      EXPECT_EQ(frontend->current_epoch_size(), resume_size);
      EXPECT_GT(frontend->stats().recovered_truncated_bytes, 0u);
      pool = std::make_unique<IngestWorkerPool>(frontend.get(),
                                                WorkerPoolConfig{workers, ring_capacity});
      pool->Start();
      drainer = std::make_unique<DrainScheduler>(
          frontend.get(), DrainSchedulerConfig{std::chrono::milliseconds(1)});
      drainer->Start();

      // Deliver the second half of the wave into the recovered epoch.
      FrameServer resumed_server([&](Bytes report) { return pool->Enqueue(std::move(report)); });
      std::vector<Bytes> rest;
      for (size_t i = limit; i < sealed.size(); ++i) {
        rest.push_back(EncodeFrame(sealed[i]));
      }
      delivered_frames += rest.size();
      auto connection = resumed_server.Connect();
      for (const auto& frame : rest) {
        ASSERT_TRUE(connection->Write(frame).ok());
      }
      connection->CloseWrite();
      connection.reset();
      ASSERT_TRUE(resumed_server.Shutdown().ok());
      ASSERT_TRUE(pool->Flush().ok());
    }

    // Cut at a quiescent point (fixing the epoch's membership) and let the
    // background drainer overlap this epoch's drain with the next wave.
    ASSERT_TRUE(frontend->CutEpoch().ok());
    drainer->RequestDrain();
  }

  ASSERT_TRUE(drainer->WaitForDrainedEpochs(
      static_cast<size_t>(kWaves) - results.size(), std::chrono::milliseconds(30000)));
  drainer->Stop();
  for (auto& result : drainer->TakeResults()) {
    results.push_back(std::move(result));
  }
  pool->Stop();

  EXPECT_EQ(pool->stats().accept_failures, 0u);
  EXPECT_EQ(drainer->stats().drain_failures, 0u);
  ASSERT_EQ(results.size(), static_cast<size_t>(kWaves));
  uint64_t drained_reports = 0;
  for (const auto& epoch_result : results) {
    SCOPED_TRACE("epoch=" + std::to_string(epoch_result.epoch));
    auto it = expected.find(epoch_result.epoch);
    ASSERT_NE(it, expected.end());
    // The determinism contract: bit-identical per-epoch histograms vs the
    // serial frontend, regardless of workers/ring size/drain interleaving.
    EXPECT_EQ(epoch_result.result.histogram, it->second);
    drained_reports += epoch_result.reports;
  }
  EXPECT_EQ(drained_reports, delivered_frames);
}

TEST(ServiceRuntimeTest, ConcurrentE2EMatchesSerialAtZeroWorkers) {
  RunConcurrentE2E(/*workers=*/0, /*ring_capacity=*/64, /*crash_mid_epoch=*/false);
}

TEST(ServiceRuntimeTest, ConcurrentE2EMatchesSerialAtTwoWorkers) {
  RunConcurrentE2E(/*workers=*/2, /*ring_capacity=*/8, /*crash_mid_epoch=*/false);
}

TEST(ServiceRuntimeTest, ConcurrentE2EMatchesSerialAtEightWorkers) {
  RunConcurrentE2E(/*workers=*/8, /*ring_capacity=*/256, /*crash_mid_epoch=*/false);
}

TEST(ServiceRuntimeTest, ConcurrentE2ESurvivesCrashAndReopenMidEpoch) {
  RunConcurrentE2E(/*workers=*/2, /*ring_capacity=*/32, /*crash_mid_epoch=*/true);
}

// ------------------------------------------------------- drain-retry overlap

TEST(ServiceRuntimeTest, BackgroundDrainRetriesFailedEpochWithoutLosingIt) {
  // The drain thread hits the injected failure on epoch 0, requeues it
  // intact, and its next poll retries to success — the overlap runtime
  // inherits the fixed failure semantics.
  FrontendConfig config;
  config.pipeline = RuntimePipelineConfig();
  config.ingest.num_shards = 4;  // in-memory: the queue holds the only copy
  config.inject_drain_failure = FrontendConfig::DrainFaultInjection{/*epoch=*/0, /*times=*/2};
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());

  auto inputs = WaveInputs(0);
  Pipeline one_shot(RuntimePipelineConfig());
  auto expected = one_shot.Run(inputs);
  ASSERT_TRUE(expected.ok());

  const Encoder encoder = frontend.MakeEncoder();
  SecureRandom client_rng(ToBytes("retry-overlap-clients"));
  for (const auto& [crowd, value] : inputs) {
    auto report = encoder.EncodeValue(value, crowd, client_rng);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(frontend.AcceptReport(std::move(report).value()).ok());
  }
  ASSERT_TRUE(frontend.CutEpoch().ok());

  DrainScheduler drainer(&frontend, DrainSchedulerConfig{std::chrono::milliseconds(1)});
  drainer.Start();
  ASSERT_TRUE(drainer.WaitForDrainedEpochs(1, std::chrono::milliseconds(30000)));
  drainer.Stop();

  DrainSchedulerStats stats = drainer.stats();
  EXPECT_EQ(stats.drain_failures, 2u);  // both injected failures observed
  EXPECT_FALSE(stats.last_drain_error.empty());
  auto results = drainer.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].reports, inputs.size());
  EXPECT_EQ(results[0].result.histogram, expected.value().histogram);
}

// ------------------------------------------------------------- frame server

TEST(ServiceRuntimeTest, FrameConnectionSkipsCorruptFramesAndKeepsBooks) {
  std::vector<Bytes> delivered;
  std::mutex mu;
  FrameServer server([&](Bytes report) {
    std::lock_guard<std::mutex> lock(mu);
    delivered.push_back(std::move(report));
    return Status::Ok();
  });
  auto connection = server.Connect();

  Bytes stream;
  AppendFrame(stream, ToBytes("first"));
  size_t corrupt_at = stream.size();
  AppendFrame(stream, ToBytes("mangled"));
  stream[corrupt_at + kFrameHeaderSize] ^= 0x01;  // flip a payload bit: CRC fails
  stream.insert(stream.end(), {0xDE, 0xAD, 0xBE, 0xEF});  // inter-frame garbage
  AppendFrame(stream, ToBytes("second"));

  // Dribble the stream one byte at a time: worst-case reassembly.
  for (uint8_t byte : stream) {
    ASSERT_TRUE(connection->Write(ByteSpan(&byte, 1)).ok());
  }
  connection->CloseWrite();
  ASSERT_TRUE(server.Shutdown().ok());

  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(ToString(delivered[0]), "first");
  EXPECT_EQ(ToString(delivered[1]), "second");
  FrameStreamStats stats = server.stats();
  EXPECT_EQ(stats.frames_ok, 2u);
  EXPECT_EQ(stats.frames_corrupt, 1u);
  // Balance: every byte is a good frame, a corrupt frame's magic, or skipped
  // garbage — the FrameReader invariant holds across chunked delivery too.
  EXPECT_EQ(stream.size(), FrameWireSize(5) + FrameWireSize(6) + stats.bytes_skipped);
}

}  // namespace
}  // namespace prochlo
