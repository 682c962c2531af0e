// Layer replay for the traced run: the drain of one epoch, re-run layer by
// layer through each layer's public calls, plus the per-call costs of the
// ingest-side layers.
//
// The real drain runs inside Pipeline::RunReports, which the benchmark cannot
// split without spans inside the library.  The replay therefore rebuilds an
// epoch of the same shape (same values, same size, same 2-thread pool),
// sealed to keys the benchmark generates, and times spool read, outer open,
// threshold + shuffle, analyzer decrypt and histogram one call at a time.
// The cluster rows reuse the service's own sealed reports: a Pipeline built
// from the service's PipelineConfig derives the same keys.
#ifndef PROCHLO_ESABENCH_ESA_REPLAY_H_
#define PROCHLO_ESABENCH_ESA_REPLAY_H_

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "esa/cohort.h"
#include "esa/stats.h"
#include "esa/trace.h"
#include "src/core/analyzer.h"
#include "src/core/pipeline.h"
#include "src/core/shuffler.h"
#include "src/service/cluster/group_map.h"
#include "src/service/frontend.h"
#include "src/service/ingest.h"
#include "src/service/spool.h"
#include "src/service/wire.h"

namespace prochlo::esa {

struct ReplayInput {
  std::vector<std::string> values;       // the epoch's report values
  std::vector<Bytes> service_reports;    // the same values sealed to the service
  PipelineConfig pipeline;               // the service's pipeline config
  std::string work_dir;                  // temporary; removed by the caller
  uint64_t seed = 0;
};

struct ReplayResult {
  std::vector<Metric> metrics;
  double forwarded_frac = 0;
  // Inner boxes the analyzer decrypted per report in a crowd >= T.
  double serial_decrypts_per_survivor = 0;
  double cluster_decrypts_per_survivor = 0;
  std::string error;                   // empty when every replay output checked out

  bool ok() const { return error.empty(); }
};

namespace internal {

inline double SpanSeconds(Tracer& tracer, int64_t start_ns, const char* name, uint32_t parent) {
  int64_t end_ns = NowNs();
  tracer.Record(name, start_ns, end_ns, parent, 0);
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// Median per-item cost of `reps` timed calls of fn over `items` items.
template <typename Fn>
double MedianPerItem(int reps, size_t items, Fn fn) {
  std::vector<double> per_item;
  for (int r = 0; r < reps; ++r) {
    int64_t start = NowNs();
    fn();
    per_item.push_back(static_cast<double>(NowNs() - start) / static_cast<double>(items));
  }
  return Median(per_item);
}

inline uint64_t Threshold(const ReplayInput& in) {
  return static_cast<uint64_t>(in.pipeline.shuffler.policy.threshold);
}

}  // namespace internal

// The serial drain, layer by layer.
inline void ReplaySerialDrain(const ReplayInput& in, Tracer& tracer, ReplayResult& out) {
  using internal::SpanSeconds;
  SecureRandom key_rng(ToBytes("esabench-replay-keys-" + std::to_string(in.seed)));
  KeyPair shuffler_keys = KeyPair::Generate(key_rng);
  KeyPair analyzer_keys = KeyPair::Generate(key_rng);
  EncoderConfig encoder_config;
  encoder_config.shuffler_public = shuffler_keys.public_key;
  encoder_config.analyzer_public = analyzer_keys.public_key;
  encoder_config.payload_size = in.pipeline.payload_size;
  Encoder encoder(encoder_config);

  uint32_t root = tracer.Begin("replay.drain");
  // Client side, one thread: the per-report cost a cohort seal pays.
  size_t seal_n = std::min<size_t>(1024, in.values.size());
  std::vector<std::pair<std::string, std::string>> seal_inputs;
  for (size_t i = 0; i < seal_n; ++i) {
    seal_inputs.emplace_back(in.values[i], in.values[i]);
  }
  SecureRandom seal_rng(ToBytes("esabench-replay-seal"));
  int64_t t = NowNs();
  auto single = encoder.BatchSealReports(seal_inputs, seal_rng);
  double seal_s = SpanSeconds(tracer, t, "encoder.seal", root);
  auto sealed = SealParallel(encoder, in.values, in.seed + 7, 4);
  if (!single.ok() || !sealed.ok()) {
    out.error = "replay: cohort seal failed";
    tracer.End(root);
    return;
  }
  out.metrics.push_back({"encoder.seal_us", 1e6 * seal_s / static_cast<double>(seal_n), "us"});

  // Spool: the epoch as the drain finds it, then the streaming read.
  std::string spool_dir = in.work_dir + "/replay-spool";
  Spool spool(SpoolConfig{spool_dir, /*fsync_on_seal=*/true});
  bool spooled = spool.Open().ok();
  for (const Bytes& report : sealed.value()) {
    spooled = spooled && spool.Append(ShardedIngest::ShardOfReport(report, 4), 0, report).ok();
  }
  spooled = spooled && spool.SealEpoch(0).ok();
  if (!spooled) {
    out.error = "replay: spool write failed";
    tracer.End(root);
    return;
  }
  std::vector<Bytes> epoch;
  epoch.reserve(sealed.value().size());
  t = NowNs();
  auto stream = spool.OpenEpochStream(0);
  while (auto record = stream->Next()) {
    epoch.push_back(std::move(*record));
  }
  double spool_s = SpanSeconds(tracer, t, "spool.replay", root);

  // Threshold + shuffle is only reachable inside ProcessBatch, so it is
  // ProcessBatch minus the open.  OpenStream opens exactly as ProcessBatch
  // does (BatchOpenReports over the same chunks); both run kShufflerReps
  // times, interleaved, and each layer takes its median.
  constexpr int kShufflerReps = 3;
  ThreadPool pool(2);
  std::vector<double> open_s;
  std::vector<double> process_s;
  Result<std::vector<ShufflerView>> opened = Error{"not run"};
  Result<std::vector<Bytes>> inner = Error{"not run"};
  Shuffler shuffler(shuffler_keys, in.pipeline.shuffler);
  for (int r = 0; r < kShufflerReps; ++r) {
    VectorRecordStream open_stream(epoch);
    t = NowNs();
    opened = shuffler.OpenStream(open_stream, &pool);
    open_s.push_back(SpanSeconds(tracer, t, "shuffler.open", root));
    shuffler.ResetStats();
    SecureRandom shuffle_rng = DeriveEpochRng(in.pipeline.seed, 0);
    Rng noise_rng = DeriveEpochNoiseRng(in.pipeline.seed, 0);
    t = NowNs();
    inner = shuffler.ProcessBatch(epoch, shuffle_rng, noise_rng, &pool);
    process_s.push_back(SpanSeconds(tracer, t, "shuffler.process_batch", root));
    if (!inner.ok()) {
      out.error = "replay: ProcessBatch failed: " + inner.error().message;
      tracer.End(root);
      return;
    }
  }

  Analyzer analyzer(analyzer_keys);
  t = NowNs();
  std::vector<Bytes> payloads = analyzer.DecryptBatch(inner.value(), &pool);
  double decrypt_s = SpanSeconds(tracer, t, "analyzer.decrypt", root);
  t = NowNs();
  Histogram histogram = Analyzer::HistogramOfValues(payloads);
  double histogram_s = SpanSeconds(tracer, t, "analyzer.histogram", root);
  tracer.End(root);

  size_t n = epoch.size();
  Histogram reference = ThresholdedReference(CountValues(in.values), internal::Threshold(in));
  if (n != in.values.size() || !opened.ok() || opened.value().size() != n ||
      histogram != reference) {
    out.error = "replay: serial drain output differs from the reference";
  }
  const ShufflerStats& stats = shuffler.stats();
  out.forwarded_frac =
      Ratio(static_cast<double>(stats.forwarded), static_cast<double>(stats.received));
  out.serial_decrypts_per_survivor = Ratio(static_cast<double>(inner.value().size()),
                                           static_cast<double>(HistogramTotal(reference)));
  auto per = [](double seconds, size_t items) {
    return Ratio(1e6 * seconds, static_cast<double>(items));
  };
  out.metrics.push_back({"spool.replay_us", per(spool_s, n), "us"});
  out.metrics.push_back({"shuffler.open_us", per(Median(open_s), n), "us"});
  out.metrics.push_back({"shuffler.process_batch_us", per(Median(process_s), n), "us"});
  // A difference of two medians: within the host's noise, and it can read
  // below zero.
  out.metrics.push_back(
      {"shuffler.threshold_shuffle_us", per(Median(process_s) - Median(open_s), n), "us"});
  out.metrics.push_back({"analyzer.decrypt_us", per(decrypt_s, inner.value().size()), "us"});
  out.metrics.push_back({"analyzer.histogram_us", 1e6 * histogram_s, "us"});

  // Wire: the server's StreamingFrameDecoder over the epoch's report frames,
  // fed in the 16 KiB reads FrameConnection uses.
  Bytes frames;
  for (size_t i = 0; i < epoch.size(); ++i) {
    AppendFrame(frames, FrameType::kReport, i, epoch[i]);
  }
  std::vector<Frame> decoded;
  decoded.reserve(epoch.size());
  t = NowNs();
  double decode_ns = internal::MedianPerItem(5, epoch.size(), [&] {
    StreamingFrameDecoder decoder;
    decoded.clear();
    for (size_t off = 0; off < frames.size(); off += 16384) {
      size_t len = std::min<size_t>(16384, frames.size() - off);
      decoder.Feed(ByteSpan(frames.data() + off, len), decoded);
    }
  });
  SpanSeconds(tracer, t, "wire.decode", 0);
  if (decoded.size() != epoch.size()) {
    out.error = "replay: frame decoder lost frames";
  }
  out.metrics.push_back({"wire.decode_ns", decode_ns, "ns"});

  // WAL: the unified group commit a worker pays per ring run (batch 64,
  // fsync on), then the checkpoint that writes the backlog through.
  std::vector<double> commit_us;
  std::vector<double> checkpoint_ms;
  const size_t wal_n = std::min<size_t>(4096, epoch.size());
  for (int round = 0; round < 3; ++round) {
    FrontendConfig wal_config;
    wal_config.pipeline = in.pipeline;
    wal_config.ingest.num_shards = 4;
    wal_config.spool_dir = in.work_dir + "/replay-wal-" + std::to_string(round);
    wal_config.fsync_spool = true;
    // Checkpoints only where this replay times them.
    wal_config.wal_checkpoint_threshold_bytes = 1ull << 40;
    ShufflerFrontend frontend(wal_config);
    if (!frontend.Start().ok()) {
      out.error = "replay: WAL frontend failed to start";
      return;
    }
    std::atomic<size_t> committed{0};
    bool ok = true;
    t = NowNs();
    for (size_t i = 0; i < wal_n && ok; i += 64) {
      for (size_t j = i; j < std::min(i + 64, wal_n); ++j) {
        auto done = [&committed](const Status& status) {
          committed += status.ok() ? 1 : 0;
        };
        ok = ok && frontend
                       .AcceptRoutedReportAsync(ShardedIngest::ShardOfReport(epoch[j], 4),
                                                epoch[j], ReportContext{1, j}, done)
                       .ok();
      }
      ok = ok && frontend.BarrierIngest().ok();
    }
    commit_us.push_back(1e6 * SpanSeconds(tracer, t, "wal.commit", 0) / static_cast<double>(wal_n));
    t = NowNs();
    ok = ok && frontend.wal()->Checkpoint().ok();
    checkpoint_ms.push_back(1e3 * SpanSeconds(tracer, t, "wal.checkpoint", 0));
    if (!ok || committed != wal_n) {
      out.error = "replay: WAL commit or checkpoint failed";
      return;
    }
  }
  out.metrics.push_back({"wal.commit_us", Median(commit_us), "us"});
  out.metrics.push_back({"wal.checkpoint_ms", Median(checkpoint_ms), "ms"});
}

// The cluster drain over two groups' routed shares of the service's reports.
inline void ReplayClusterDrain(const ReplayInput& in, Tracer& tracer, ReplayResult& out) {
  using internal::SpanSeconds;
  Pipeline pipeline(in.pipeline);
  GroupMap map(1, {1, 2});
  std::vector<std::vector<Bytes>> shares(2);
  for (const Bytes& report : in.service_reports) {
    shares[map.OwnerOfReport(report) - 1].push_back(report);
  }
  uint32_t root = tracer.Begin("replay.cluster");
  std::vector<EpochPartial> partials;
  double partial_s = 0;
  uint64_t decrypted = 0;
  for (size_t g = 0; g < shares.size(); ++g) {
    VectorRecordStream stream(shares[g]);
    int64_t t = NowNs();
    auto partial = pipeline.RunReportsPartial(stream);
    const char* span = g == 0 ? "cluster.partial.g1" : "cluster.partial.g2";
    double seconds = SpanSeconds(tracer, t, span, root);
    if (!partial.ok()) {
      out.error = "replay: RunReportsPartial failed: " + partial.error().message;
      tracer.End(root);
      return;
    }
    partial_s += seconds;
    decrypted += partial.value().reports - partial.value().malformed;
    partials.push_back(std::move(partial).value());
  }
  Rng noise_rng = DeriveEpochNoiseRng(in.pipeline.seed, 0);
  int64_t t = NowNs();
  auto merged = pipeline.MergePartials(partials, noise_rng);
  double merge_s = SpanSeconds(tracer, t, "cluster.merge", root);
  tracer.End(root);
  Histogram reference = ThresholdedReference(CountValues(in.values), internal::Threshold(in));
  if (!merged.ok() || merged.value().histogram != reference) {
    out.error = "replay: merged cluster histogram differs from the reference";
    return;
  }
  out.cluster_decrypts_per_survivor =
      Ratio(static_cast<double>(decrypted), static_cast<double>(HistogramTotal(reference)));
  out.metrics.push_back({"cluster.partial_us",
                         Ratio(1e6 * partial_s, static_cast<double>(in.service_reports.size())),
                         "us"});
  out.metrics.push_back({"cluster.merge_ms", 1e3 * merge_s, "ms"});
}

// P-256 batch primitives behind the outer open, the analyzer decrypt and
// the client seal, at the 256-item batch the report open uses.
inline void ReplayP256(uint64_t seed, Tracer& tracer, ReplayResult& out) {
  const P256& curve = P256::Get();
  SecureRandom rng(ToBytes("esabench-p256-" + std::to_string(seed)));
  std::vector<U256> scalars;
  std::vector<U256> bases;
  for (int i = 0; i < 256; ++i) {
    scalars.push_back(rng.RandomScalar(curve.order()));
    bases.push_back(rng.RandomScalar(curve.order()));
  }
  std::vector<EcPoint> points = curve.BatchBaseMult(bases);
  std::vector<EcPoint> sink;
  int64_t t = NowNs();
  double base_ns = internal::MedianPerItem(7, 256, [&] { sink = curve.BatchBaseMult(scalars); });
  internal::SpanSeconds(tracer, t, "p256.batch_base_mult", 0);
  t = NowNs();
  double mult_ns =
      internal::MedianPerItem(7, 256, [&] { sink = curve.BatchScalarMult(points, scalars); });
  internal::SpanSeconds(tracer, t, "p256.batch_scalar_mult", 0);
  if (sink.size() != 256 || sink[0] != curve.ScalarMult(points[0], scalars[0])) {
    out.error = "replay: BatchScalarMult disagrees with ScalarMult";
  }
  out.metrics.push_back({"p256.batch_scalar_mult_us", 1e-3 * mult_ns, "us"});
  out.metrics.push_back({"p256.batch_base_mult_us", 1e-3 * base_ns, "us"});
}

inline ReplayResult Replay(const ReplayInput& in, Tracer& tracer) {
  ReplayResult out;
  std::filesystem::create_directories(in.work_dir);
  ReplayP256(in.seed, tracer, out);
  if (out.ok()) {
    ReplaySerialDrain(in, tracer, out);
  }
  if (out.ok()) {
    ReplayClusterDrain(in, tracer, out);
  }
  return out;
}

}  // namespace prochlo::esa

#endif  // PROCHLO_ESABENCH_ESA_REPLAY_H_
