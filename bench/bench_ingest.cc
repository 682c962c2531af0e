// Ingestion-tier throughput: the shuffler frontend's cost per report from
// the wire to a sealed epoch, component by component, plus the batch
// encoder fast path that feeds it.
//
//   * wire       — frame encode + streaming decode (CRC-checked)
//   * ingest     — buffer into a MemFs-backed WAL, then one group commit
//   * recovery   — the WAL's recovery vs. the live sessions in its wal.ckpt
//                  snapshot (what a restart pays before the dedup registry
//                  can serve)
//   * checkpoint — one WAL checkpoint publishing that snapshot
//   * pool       — concurrent accept through the worker rings
//   * seal       — per-report vs batch cohort sealing (BatchSealReports
//                  amortizes fixed-base mults and affine conversions)
//
// The durable path is measured by esabench (esabench/README.md): its ACK
// rows time send -> ACK over TCP, its traced replay the WAL group commit
// (wal.commit_us), the checkpoint (wal.checkpoint_ms) and the drain's read
// of a sealed epoch (spool.replay_us), and its `drain`, `cluster` and
// `mixed` workloads the drain and the cluster merge end to end.
//
// PROCHLO_INGEST_N scales the report count (default 2000; the paper's
// shuffler handles millions — this tracks per-report cost, which is what
// must stay flat).  Results land in BENCH_ingest.json.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_out.h"
#include "bench/table.h"
#include "src/core/pipeline.h"
#include "src/service/frontend.h"
#include "src/service/fs.h"
#include "src/service/ingest.h"
#include "src/service/runtime.h"
#include "src/service/wal.h"
#include "src/service/wire.h"

namespace prochlo {
namespace {

namespace fs = std::filesystem;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// A bench that silently drops an error measures nothing: fail fast instead.
void BenchCheck(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench_ingest: %s: %s\n", what, status.error().message.c_str());
    std::abort();
  }
}
template <typename T>
void BenchCheck(const Result<T>& result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "bench_ingest: %s: %s\n", what, result.error().message.c_str());
    std::abort();
  }
}

std::string PerReport(double seconds, uint64_t n) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2f us", 1e6 * seconds / static_cast<double>(n));
  return buffer;
}

std::string Seconds(double seconds) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f s", seconds);
  return buffer;
}

void Run() {
  uint64_t n = 2000;
  if (const char* env = std::getenv("PROCHLO_INGEST_N")) {
    n = std::strtoull(env, nullptr, 10);
  }
  std::printf("=== Shuffler-frontend ingestion (N=%llu reports of 64B payload) ===\n\n",
              static_cast<unsigned long long>(n));

  BenchJsonWriter json("ingest");
  TablePrinter table({"Stage", "N", "Total", "Per report"});

  SecureRandom rng(ToBytes("bench-ingest"));
  KeyPair shuffler_keys = KeyPair::Generate(rng);
  KeyPair analyzer_keys = KeyPair::Generate(rng);
  EncoderConfig encoder_config;
  encoder_config.shuffler_public = shuffler_keys.public_key;
  encoder_config.analyzer_public = analyzer_keys.public_key;
  encoder_config.payload_size = 64;
  Encoder encoder(encoder_config);

  // ---- seal: per-report loop vs batch cohort ----
  std::vector<std::pair<std::string, std::string>> inputs;
  inputs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::string value = "value-" + std::to_string(i % 97);
    inputs.emplace_back(value, value);
  }
  auto t0 = std::chrono::steady_clock::now();
  std::vector<Bytes> sealed_single;
  sealed_single.reserve(n);
  for (const auto& [crowd, value] : inputs) {
    auto report = encoder.EncodeValue(value, crowd, rng);
    if (report.ok()) {
      sealed_single.push_back(std::move(report).value());
    }
  }
  double single_seconds = SecondsSince(t0);
  table.AddRow({"seal/per-report", std::to_string(n), Seconds(single_seconds),
                PerReport(single_seconds, n)});
  json.Add("seal_per_report", n, 1e9 * single_seconds / static_cast<double>(n),
           static_cast<double>(n) / single_seconds);

  t0 = std::chrono::steady_clock::now();
  auto sealed_batch = encoder.BatchSealReports(inputs, rng);
  double batch_seconds = SecondsSince(t0);
  if (!sealed_batch.ok()) {
    std::fprintf(stderr, "batch seal failed: %s\n", sealed_batch.error().message.c_str());
    return;
  }
  table.AddRow({"seal/batch-cohort", std::to_string(n),
                Seconds(batch_seconds), PerReport(batch_seconds, n)});
  json.Add("seal_batch_cohort", n, 1e9 * batch_seconds / static_cast<double>(n),
           static_cast<double>(n) / batch_seconds);
  std::printf("batch seal speedup over per-report: %.2fx\n\n", single_seconds / batch_seconds);

  const std::vector<Bytes>& reports = sealed_batch.value();

  // ---- wire: frame + streaming decode ----
  t0 = std::chrono::steady_clock::now();
  Bytes stream;
  stream.reserve(n * FrameWireSize(reports[0].size()));
  for (const auto& report : reports) {
    AppendFrame(stream, report);
  }
  double frame_seconds = SecondsSince(t0);
  table.AddRow({"wire/encode", std::to_string(n), Seconds(frame_seconds),
                PerReport(frame_seconds, n)});
  json.Add("wire_encode", n, 1e9 * frame_seconds / static_cast<double>(n),
           static_cast<double>(n) / frame_seconds);

  t0 = std::chrono::steady_clock::now();
  FrameReader reader(stream);
  uint64_t decoded = 0;
  while (reader.Next()) {
    decoded++;
  }
  double decode_seconds = SecondsSince(t0);
  table.AddRow({"wire/decode", std::to_string(decoded),
                Seconds(decode_seconds), PerReport(decode_seconds, n)});
  json.Add("wire_decode", n, 1e9 * decode_seconds / static_cast<double>(n),
           static_cast<double>(n) / decode_seconds);

  // ---- ingest: buffer into the WAL, then one group commit ----
  // The WAL lives on a MemFs, so the row is the accept path's CPU cost:
  // record encoding and one group commit, no disk.  The shard is only the
  // worker pool's routing key (the pool rows below), so no shard count
  // changes this path.
  {
    MemFs mem;
    IngestWalConfig mem_wal_config;
    mem_wal_config.dir = "/bench";
    mem_wal_config.fs = &mem;
    IngestWal mem_wal(mem_wal_config);
    BenchCheck(mem_wal.Recover(), "mem_wal.Recover");
    ShardedIngest ingest(IngestConfig{}, &mem_wal);
    t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < reports.size(); ++i) {
      BenchCheck(ingest.Accept(reports[i], ReportContext{1, i}, nullptr), "ingest.Accept");
    }
    BenchCheck(mem_wal.Sync(), "mem_wal.Sync");
    double ingest_seconds = SecondsSince(t0);
    table.AddRow({"ingest", std::to_string(n), Seconds(ingest_seconds),
                  PerReport(ingest_seconds, n)});
    json.Add("ingest", n, 1e9 * ingest_seconds / static_cast<double>(n),
             static_cast<double>(n) / ingest_seconds);
  }

  // ---- recovery and checkpoint: the wal.ckpt snapshot vs. session count ----
  // What a restart pays before it can serve — the WAL's one-call recovery
  // over a snapshot of N live sessions — and what one checkpoint pays to
  // publish that snapshot.  One commit per session models the worst shape
  // (no contiguity to sweep, maximal map churn); per-session cost should
  // stay flat as the session count grows.
  const Bytes session_report(64, 0x5A);
  for (uint64_t sessions : {uint64_t{100}, uint64_t{1000}, uint64_t{10000}, uint64_t{100000}}) {
    IngestWalConfig wal_config;
    wal_config.dir = (fs::temp_directory_path() / "prochlo-bench-recovery").string();
    fs::remove_all(wal_config.dir);
    {
      IngestWal wal(wal_config);
      BenchCheck(wal.Recover(), "wal.Recover");
      for (uint64_t s = 1; s <= sessions; ++s) {
        BenchCheck(wal.AppendReport(/*epoch=*/0, session_report, s, /*seq=*/0, nullptr),
                   "wal.AppendReport");
      }
      // The seal folds every commit into wal.ckpt and names the generation,
      // so recovery trusts it without a scan: the row times the snapshot.
      BenchCheck(wal.SealEpoch(0), "wal.SealEpoch");
    }
    IngestWal reopened(wal_config);
    t0 = std::chrono::steady_clock::now();
    auto recovered = reopened.Recover();
    double recover_seconds = SecondsSince(t0);
    BenchCheck(recovered, "reopened.Recover");
    if (recovered.value().sessions.live.size() != sessions) {
      std::fprintf(stderr, "bench_ingest: recovered %zu of %llu sessions\n",
                   recovered.value().sessions.live.size(),
                   static_cast<unsigned long long>(sessions));
      std::abort();
    }
    std::string label = "recovery/sessions=" + std::to_string(sessions);
    table.AddRow({label, std::to_string(sessions), Seconds(recover_seconds),
                  PerReport(recover_seconds, sessions)});
    json.Add(label, sessions, 1e9 * recover_seconds / static_cast<double>(sessions),
             static_cast<double>(sessions) / recover_seconds);
    if (sessions >= 10000) {
      // One more commit, so the checkpoint has an op to fold and a
      // generation to cover.
      BenchCheck(reopened.AppendReport(/*epoch=*/1, session_report, sessions + 1, 0, nullptr),
                 "reopened.AppendReport");
      BenchCheck(reopened.Sync(), "reopened.Sync");
      t0 = std::chrono::steady_clock::now();
      BenchCheck(reopened.Checkpoint(), "reopened.Checkpoint");
      double checkpoint_seconds = SecondsSince(t0);
      label = "checkpoint/sessions=" + std::to_string(sessions);
      table.AddRow({label, std::to_string(sessions), Seconds(checkpoint_seconds),
                    PerReport(checkpoint_seconds, sessions)});
      json.Add(label, sessions, 1e9 * checkpoint_seconds / static_cast<double>(sessions),
               static_cast<double>(sessions) / checkpoint_seconds);
    }
    fs::remove_all(wal_config.dir);
  }

  // ---- pool: concurrent accept via lock-free rings, workers x ring size ----
  // 4 producer threads enqueue the cohort; the grid shows where ring size
  // stops mattering (once workers keep up) and what worker fan-out buys on
  // the accept path.  No spool_dir: the WAL lives on the frontend's MemFs,
  // so each worker's run still ends in a group commit, without a disk.
  for (size_t workers : {size_t{0}, size_t{2}, size_t{4}}) {
    for (size_t ring : {size_t{256}, size_t{4096}}) {
      if (workers == 0 && ring != 256) {
        continue;  // synchronous mode has no ring; bench it once
      }
      FrontendConfig pool_front_config;
      pool_front_config.pipeline.seed = "bench-ingest-pool";
      pool_front_config.ingest.num_shards = 4;
      ShufflerFrontend pool_frontend(pool_front_config);
      BenchCheck(pool_frontend.Start(), "pool_frontend.Start");
      IngestWorkerPool pool(&pool_frontend, WorkerPoolConfig{workers, ring});
      pool.Start();
      constexpr size_t kProducers = 4;
      t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> producers;
      for (size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&pool, &reports, p] {
          for (size_t i = p; i < reports.size(); i += kProducers) {
            pool.EnqueueAsync(Bytes(reports[i]), ReportContext{1, i}, nullptr);
          }
        });
      }
      for (auto& producer : producers) {
        producer.join();
      }
      BenchCheck(pool.Flush(), "pool.Flush");
      double pool_seconds = SecondsSince(t0);
      pool.Stop();
      if (pool.stats().accept_failures != 0) {
        std::fprintf(stderr, "bench_ingest: pool: %s\n", pool.stats().last_accept_error.c_str());
        std::abort();
      }
      std::string label = "pool/workers=" + std::to_string(workers) +
                          ",ring=" + std::to_string(ring);
      table.AddRow({label, std::to_string(n), Seconds(pool_seconds),
                    PerReport(pool_seconds, n)});
      json.Add(label, n, 1e9 * pool_seconds / static_cast<double>(n),
               static_cast<double>(n) / pool_seconds, /*groups=*/1, workers);
    }
  }

  table.Print();
  json.Write();
  std::printf(
      "\nShape checks: wire is tens of ns per report and ingest (shard + a group commit\n"
      "into a MemFs WAL) a few us, never the bottleneck; seal dominates client-side cost\n"
      "and the batch path amortizes its EC work.  Snapshot\n"
      "recovery and checkpoint per session fall to a flat floor once the fixed fsyncs\n"
      "amortize.  The pool grid should stay flat across ring sizes (accept is cheap;\n"
      "rings only buffer bursts).\n");
}

}  // namespace
}  // namespace prochlo

int main() {
  prochlo::Run();
  return 0;
}
