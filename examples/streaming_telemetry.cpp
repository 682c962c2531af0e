// Streaming telemetry: the PROCHLO deployment as the paper runs it — a
// standing shuffler frontend receiving sealed reports from clients that
// arrive staggered over time, not as one prepared batch.
//
// Client cohorts come online in waves (think: devices checking in around
// the top of the hour).  Each wave's simulator seals its reports through
// the batch encoder fast path (Encoder::BatchSealReports — one BatchBaseMult
// for all ephemeral keys) and sends them, in shuffled arrival order, over a
// FrameClient: HELLO with its session id, one REPORT frame per report, and
// an ACK back only once the report is durable.  The server — a ShardGroup:
// frame server, ingest worker pool and frontend — shards by ciphertext
// hash, spools every report to disk, cuts an epoch when it is both old
// enough and large enough to lose reports in a crowd (§4.2), and drains
// each sealed epoch through shuffle -> threshold -> analyze.
//
//   build/examples/streaming_telemetry
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/service/cluster/shard_group.h"
#include "src/util/rng.h"

int main() {
  using namespace prochlo;

  // 1. A standing server: 4 ingestion shards, epochs cut when they hold
  //    >= 300 reports and at least two scheduler ticks have passed, spooled
  //    under a scratch directory so epochs survive restarts.
  std::string spool_dir =
      (std::filesystem::temp_directory_path() / "prochlo-streaming-telemetry").string();
  std::filesystem::remove_all(spool_dir);

  ShardGroupConfig config;
  config.frontend.pipeline.shuffler.threshold_mode = ThresholdMode::kRandomized;
  config.frontend.pipeline.shuffler.policy = ThresholdPolicy{20, 10, 2};
  config.frontend.pipeline.seed = "streaming-telemetry";
  config.frontend.ingest.num_shards = 4;
  config.frontend.ingest.max_epoch_age = 2;
  config.frontend.ingest.min_epoch_reports = 300;
  config.frontend.spool_dir = spool_dir;
  config.workers = WorkerPoolConfig{/*workers=*/2, /*ring_capacity=*/256};

  ShardGroup server(config);
  if (auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", status.error().message.c_str());
    return 1;
  }
  ShufflerFrontend& frontend = server.frontend();

  // 2. Five waves of clients report which codec their calls negotiated.
  //    Each wave is a cohort sealed in one batch pass; the rare codec
  //    should never clear the crowd threshold.
  const Encoder encoder = frontend.MakeEncoder();
  SecureRandom client_rng(ToBytes("telemetry-clients"));
  Rng arrival_rng(0x7e1e);
  uint64_t delivered = 0;

  for (int wave = 0; wave < 5; ++wave) {
    std::vector<std::pair<std::string, std::string>> cohort;
    for (int i = 0; i < 110; ++i) cohort.emplace_back("codec-opus", "codec-opus");
    for (int i = 0; i < 60; ++i) cohort.emplace_back("codec-aac", "codec-aac");
    for (int i = 0; i < (wave % 2 ? 4 : 2); ++i) {
      cohort.emplace_back("codec-exotic", "codec-exotic");
    }

    auto sealed = encoder.BatchSealReports(cohort, client_rng);
    if (!sealed.ok()) {
      std::fprintf(stderr, "cohort seal failed: %s\n", sealed.error().message.c_str());
      return 1;
    }
    // Staggered arrival: reports reach the server in no particular order,
    // from one client session per wave.
    std::vector<Bytes> reports = std::move(sealed).value();
    arrival_rng.Shuffle(reports);
    FrameClient client(FrameClientConfig{/*session_id=*/static_cast<uint64_t>(wave + 1)});
    if (auto status = client.Connect(server.Connect()); !status.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", status.error().message.c_str());
      return 1;
    }
    for (auto& report : reports) {
      if (auto status = client.SendReport(std::move(report)); !status.ok()) {
        std::fprintf(stderr, "send failed: %s\n", status.error().message.c_str());
        return 1;
      }
    }
    if (!client.WaitForAcks(std::chrono::seconds(30))) {
      std::fprintf(stderr, "wave %d: %zu reports never acknowledged\n", wave,
                   client.outstanding());
      return 1;
    }
    client.Close();
    delivered += reports.size();
    // The scheduler's cadence; age-cuts ripe epochs.  A failed cut means a
    // wedged spool — exactly the error Tick() now surfaces.
    if (auto status = frontend.Tick(); !status.ok()) {
      std::fprintf(stderr, "epoch cut failed: %s\n", status.error().message.c_str());
      return 1;
    }

    std::printf("wave %d acknowledged: %3zu reports (epoch %lu holds %zu)\n", wave,
                reports.size(), static_cast<unsigned long>(frontend.current_epoch()),
                frontend.current_epoch_size());
  }
  if (auto status = server.Stop(); !status.ok()) {
    std::fprintf(stderr, "server stop failed: %s\n", status.error().message.c_str());
    return 1;
  }
  if (auto status = frontend.CutEpoch(); !status.ok()) {  // end-of-day flush
    std::fprintf(stderr, "final epoch cut failed: %s\n", status.error().message.c_str());
    return 1;
  }

  // 3. Drain every sealed epoch through shuffle -> threshold -> analyze.
  auto drained = frontend.DrainSealedEpochs();
  if (!drained.ok()) {
    std::fprintf(stderr, "drain failed: %s\n", drained.failure->error.message.c_str());
    return 1;
  }
  std::printf("\ndelivered %lu reports across %zu epoch(s)\n",
              static_cast<unsigned long>(delivered), drained.results.size());
  for (const auto& epoch : drained.results) {
    std::printf("\nepoch %lu (%zu reports) analyzer histogram:\n",
                static_cast<unsigned long>(epoch.epoch), epoch.reports);
    for (const auto& [codec, count] : epoch.result.histogram) {
      std::printf("  %-14s %lu\n", codec.c_str(), static_cast<unsigned long>(count));
    }
    if (epoch.result.histogram.count("codec-exotic") == 0) {
      std::printf("  (codec-exotic stayed below the crowd threshold — never materialized)\n");
    }
  }

  const FrameStreamStats frames = server.server().stats();
  std::printf("\nserver: %lu report frames, %lu corrupt, %lu acks sent, %lu epochs drained\n",
              static_cast<unsigned long>(frames.frames_report),
              static_cast<unsigned long>(frames.frames_corrupt),
              static_cast<unsigned long>(frontend.stats().acks_sent.load()),
              static_cast<unsigned long>(frontend.stats().epochs_drained.load()));
  std::filesystem::remove_all(spool_dir);
  return 0;
}
