// bench_esa: the ESA service benchmark.  One process runs one workload
// against the production service path — sealed reports over TCP into
// ShardGroups (WAL on, fsync on, 4 shards, 2 ingest workers per group),
// epochs cut and drained to a naive-thresholded (T = 20) histogram — checks
// every output against a reference computed from the generated inputs, and
// prints every metric by name with its unit.
//
//   bench_esa --workload <ingest|drain|cluster|mixed> --seed <n>
//             [--seconds <s>] [--trace 0|1|<trace file>] [--out <path>]
//             [--work-dir <dir>]
//
// Output: one "<workload> <metric> <value> <unit>" line per metric, a
// results file (BENCH_esa_<workload>.json, or BENCH_esa_<workload>.traced.json
// for a traced run), and, as the last line of stdout, one JSON object with
// the keys correct / attempted / failed / metrics.  With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones, taken
// from spans recorded around public calls (written as Chrome trace events to
// the trace file, by default TRACE_esa_<workload>.json) and from a
// layer-by-layer replay of the drain.
// Exit status: 0 when every check passed, 1 when an output was wrong, 2 on a
// usage or set-up error (no result line).
//
// esabench/README.md documents each workload, metric and the calibration.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "esa/cohort.h"
#include "esa/loadgen.h"
#include "esa/replay.h"
#include "esa/stats.h"
#include "esa/trace.h"
#include "src/crypto/sha256.h"
#include "src/service/cluster/coordinator.h"
#include "src/service/cluster/merge.h"
#include "src/service/cluster/router.h"
#include "src/service/cluster/shard_group.h"
#include "src/service/runtime.h"
#include "src/util/thread_annotations.h"

namespace prochlo::esa {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kThreshold = 20;
// set-up is repeated and its median reported, so one slow start cannot move it
constexpr int kSetupRepeats = 3;
constexpr double kIngestEpochShare = 0.4;
constexpr double kMixedCutEvery_s = 2.0;
constexpr double kWarmupRate = 20000;
constexpr auto kAnswerTimeout = std::chrono::milliseconds(60000);

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// How a workload spends its measured time.
enum class Flow {
  // Epochs as in kEpochs for the first kIngestEpochShare of the time, then
  // open-loop ingest with no drain for the rest.
  kIngest,
  // Per epoch: the whole pool open-loop until ACKed, then cut + drain.
  kEpochs,
  // Open-loop ingest while a DrainScheduler drains each epoch the bench
  // cuts on a fixed cadence.
  kMixed,
};

struct WorkloadSpec {
  const char* name;
  Flow flow;
  size_t groups;          // ShardGroups behind the load generator
  ValueShape shape;       // how report values (= crowds) are drawn
  size_t pool_size;       // reports sealed at set-up
  double rate;            // open-loop arrivals per second while measuring
  size_t warmup_reports;  // sent at set-up
};

// README.md gives the reason for each workload.
constexpr WorkloadSpec kWorkloads[] = {
    {"ingest", Flow::kIngest, 1, ValueShape::kZipf, 4096, 20000, 1024},
    {"drain", Flow::kEpochs, 1, ValueShape::kZipf, 8192, 20000, 1024},
    {"cluster", Flow::kEpochs, 2, ValueShape::kZipf, 8192, 20000, 1024},
    {"mixed", Flow::kMixed, 1, ValueShape::kUniform32, 4096, 1000, 2048},
};

// The metrics the result line carries: the lists in BENCHMARK.json.
const std::vector<std::string> kEndToEnd = {"setup_s", "ack_p50_ms", "epoch_result_s",
                                            "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "encoder.seal_us",     "p256.batch_scalar_mult_us",  "p256.batch_base_mult_us",
    "wire.decode_ns",      "connection.write_us",        "wal.reports_per_fsync",
    "wal.commit_us",       "wal.checkpoint_ms",          "spool.replay_us",
    "shuffler.open_us",    "shuffler.process_batch_us",  "analyzer.decrypt_us",
    "analyzer.histogram_us", "cluster.partial_us",       "cluster.merge_ms",
    "epoch.cut_ms",        "process.cpu_us_per_report",  "drain.residual_frac",
    "loadgen.lag_p99_ms"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string trace_file;
  std::string out;
  std::string work_dir = ".bench_build/esa-work";
};

PipelineConfig ServicePipeline(uint64_t seed) {
  PipelineConfig pipeline;
  pipeline.shuffler.threshold_mode = ThresholdMode::kNaive;
  pipeline.shuffler.policy.threshold = static_cast<double>(kThreshold);
  pipeline.num_threads = 2;
  pipeline.seed = "esabench-" + std::to_string(seed);
  return pipeline;
}

std::string HistogramDigest(const Histogram& histogram) {
  std::string text;
  for (const auto& [value, count] : histogram) {
    text += value + "=" + std::to_string(count) + "\n";
  }
  Sha256Digest digest = Sha256::Hash(text);
  return HexEncode(ByteSpan(digest.data(), digest.size()));
}

// The service under test: one or two ShardGroups listening on loopback TCP,
// with the router + coordinator of the cluster tier when there are two, a
// DrainScheduler when the workload drains in the background, and the
// scheduling tick that drives WAL checkpoints.
class Service {
 public:
  Service(const WorkloadSpec& spec, const std::string& dir, const PipelineConfig& pipeline)
      : spec_(spec), pipeline_(pipeline) {
    for (size_t g = 1; g <= spec.groups; ++g) {
      ShardGroupConfig config;
      config.group_id = g;
      config.frontend.pipeline = pipeline;
      config.frontend.ingest.num_shards = 4;
      config.frontend.spool_dir = dir + "/group-" + std::to_string(g);
      config.frontend.fsync_spool = true;
      config.workers = WorkerPoolConfig{/*workers=*/2, /*ring_capacity=*/1024};
      config.listen_tcp = true;
      owned_.push_back(std::make_unique<ShardGroup>(config));
      groups_.push_back(owned_.back().get());
    }
  }
  ~Service() { Stop(); }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  Status Start() {
    for (ShardGroup* group : groups_) {
      Status status = group->Start();
      if (!status.ok()) {
        return status;
      }
    }
    if (groups_.size() > 1) {
      router_ = std::make_unique<Router>(groups_);
      router_->Start();
      coordinator_ = std::make_unique<EpochCoordinator>(groups_);
      coordinator_->Start();
      merge_ = std::make_unique<HistogramMerge>(pipeline_);
    }
    if (spec_.flow == Flow::kMixed) {
      drainer_ = std::make_unique<DrainScheduler>(&groups_[0]->frontend());
      drainer_->Start();
    }
    ticker_ = std::thread([this] { TickLoop(); });
    return Status::Ok();
  }

  void Stop() {
    if (ticker_.joinable()) {
      {
        MutexLock lock(tick_mu_);
        stopping_ = true;
        tick_cv_.NotifyAll();
      }
      ticker_.join();
    }
    if (drainer_ != nullptr) {
      drainer_->Stop();
    }
    if (coordinator_ != nullptr) {
      coordinator_->Stop();
    }
    for (ShardGroup* group : groups_) {
      (void)group->Stop();  // teardown; every measured output was checked before
    }
  }

  // Where the load generator's two connections go.
  std::vector<uint16_t> Ports() const {
    return groups_.size() > 1 ? std::vector<uint16_t>{groups_[0]->port(), groups_[1]->port()}
                              : std::vector<uint16_t>{groups_[0]->port(), groups_[0]->port()};
  }
  // Connection index for a report: its owning group in the cluster, else
  // alternate between the two connections.
  std::vector<uint8_t> Routes(const std::vector<Bytes>& reports) const {
    std::vector<uint8_t> routes(reports.size());
    GroupMap map = router_ != nullptr ? router_->CurrentMap() : GroupMap();
    for (size_t i = 0; i < reports.size(); ++i) {
      routes[i] = router_ != nullptr ? static_cast<uint8_t>(map.OwnerOfReport(reports[i]) - 1)
                                     : static_cast<uint8_t>(i % 2);
    }
    return routes;
  }

  Encoder MakeEncoder() const { return groups_[0]->frontend().MakeEncoder(); }
  uint64_t current_epoch() const { return groups_[0]->frontend().current_epoch(); }
  DrainScheduler* drainer() { return drainer_.get(); }

  // Quiescent cut: every report enqueued so far is in the sealed epoch.
  Status Cut() {
    if (coordinator_ != nullptr) {
      return coordinator_->CutEpochAll();
    }
    ShardGroup& group = *groups_[0];
    Status flushed = group.pool().Flush();
    return flushed.ok() ? group.frontend().CutEpoch() : flushed;
  }

  // The analyzer's result for the epoch just cut: the serial drain, or the
  // cluster's barrier + merge.
  Result<EpochResult> Drain(uint64_t epoch) {
    if (coordinator_ != nullptr) {
      auto merged = coordinator_->MergeEpoch(epoch, *merge_, std::chrono::milliseconds(120000));
      if (!merged.ok()) {
        return merged.error();
      }
      if (!merged.value().complete()) {
        return Error{"cluster merge timed out with groups missing"};
      }
      return std::move(merged).value().merged;
    }
    DrainReport report = groups_[0]->frontend().DrainSealedEpochs();
    if (!report.ok()) {
      return report.failure->error;
    }
    if (report.results.size() != 1 || report.results[0].epoch != epoch) {
      return Error{"drain returned an unexpected set of epochs"};
    }
    return std::move(report.results[0]);
  }

  IngestWal::Stats WalTotals() const {
    IngestWal::Stats total;
    for (ShardGroup* group : groups_) {
      IngestWal::Stats s = group->frontend().wal()->stats();
      total.records_flushed += s.records_flushed;
      total.fsyncs += s.fsyncs;
    }
    return total;
  }
  WorkerPoolStats PoolTotals() const {
    WorkerPoolStats total;
    for (ShardGroup* group : groups_) {
      WorkerPoolStats s = group->pool().stats();
      total.ring_full_waits += s.ring_full_waits;
      total.accept_failures += s.accept_failures;
    }
    return total;
  }
  uint64_t redirects() const {
    uint64_t total = 0;
    for (ShardGroup* group : groups_) {
      total += group->frontend().stats().redirects_sent.load();
    }
    return total;
  }
  uint64_t tick_failures() const { return tick_failures_.load(); }

 private:
  // The operator's scheduling cadence: ShufflerFrontend::Tick checkpoints
  // the WAL once its backlog passes the threshold, which bounds the WAL's
  // in-memory backlog while an epoch fills.
  void TickLoop() {
    MutexLock lock(tick_mu_);
    while (!stopping_) {
      (void)tick_cv_.WaitFor(tick_mu_, std::chrono::milliseconds(50));  // loop re-checks
      if (stopping_) {
        break;
      }
      lock.Unlock();
      for (ShardGroup* group : groups_) {
        if (!group->frontend().Tick().ok()) {
          tick_failures_.fetch_add(1);
        }
      }
      lock.Lock();
    }
  }

  const WorkloadSpec& spec_;
  PipelineConfig pipeline_;
  std::vector<std::unique_ptr<ShardGroup>> owned_;
  std::vector<ShardGroup*> groups_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<EpochCoordinator> coordinator_;
  std::unique_ptr<HistogramMerge> merge_;
  std::unique_ptr<DrainScheduler> drainer_;
  Mutex tick_mu_;
  CondVar tick_cv_;
  bool stopping_ GUARDED_BY(tick_mu_) = false;
  std::atomic<uint64_t> tick_failures_{0};
  std::thread ticker_;
};

class Bench {
 public:
  Bench(Options options, const WorkloadSpec& spec)
      : opt_(std::move(options)),
        spec_(spec),
        pipeline_(ServicePipeline(opt_.seed)),
        tracer_(opt_.trace ? (1u << 16) : 0),
        dir_(opt_.work_dir + "/" + spec.name + "-" + std::to_string(getpid())) {}

  int Main();

 private:
  // One set-up: a fresh service, the sealed report pool, the generator's
  // connections and the warm-up.  Returns its duration, or a negative value
  // on a set-up error.
  double SetUp(int rep);
  void TearDown();
  bool Measure();
  bool MeasureMixed();
  bool Send(const std::vector<uint32_t>& reports, const std::vector<int64_t>& offsets,
            bool measured);
  bool TimedEpoch(const Histogram& reference, bool measured);
  void CollectSends();
  // Prints and writes every metric; returns whether every check passed.
  bool Report(const ReplayResult* replay);
  void AddTracedMetrics(const ReplayResult& replay, std::vector<Metric>& metrics);
  void Problem(const std::string& what) {
    std::fprintf(stderr, "bench_esa %s: %s\n", spec_.name, what.c_str());
    problems_.push_back(what);
  }
  std::vector<uint32_t> NextReports(size_t count) {
    std::vector<uint32_t> reports(count);
    for (auto& report : reports) {
      report = static_cast<uint32_t>(next_report_++ % pool_.size());
    }
    return reports;
  }
  // The reference histogram of the first `count` reports sent from the pool.
  Histogram ReferenceOf(size_t count) const {
    std::vector<std::string> values;
    for (size_t i = 0; i < count; ++i) {
      values.push_back(values_[i % values_.size()]);
    }
    return ThresholdedReference(CountValues(values), kThreshold);
  }
  size_t Capacity() const {
    double sends = spec_.rate * opt_.seconds * 1.25 + 2.0 * static_cast<double>(spec_.pool_size);
    return spec_.warmup_reports + static_cast<size_t>(sends) + 4096;
  }

  Options opt_;
  const WorkloadSpec& spec_;
  PipelineConfig pipeline_;
  Tracer tracer_;
  std::string dir_;

  std::vector<std::string> values_;
  std::vector<Bytes> pool_;
  std::vector<uint8_t> routes_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<LoadGenerator> gen_;
  size_t next_report_ = 0;
  std::vector<std::pair<size_t, size_t>> measured_;  // generator record ranges

  std::vector<double> setup_s_;
  std::vector<double> epoch_result_s_;
  std::vector<double> cut_s_;
  std::vector<double> reported_shuffle_s_;
  std::vector<double> reported_analyze_s_;
  std::vector<double> epoch_sizes_;
  std::string first_histogram_digest_;
  std::vector<double> ack_ms_;
  std::vector<double> lag_ms_;
  uint64_t acked_measured_ = 0;
  uint64_t reports_attempted_ = 0;
  uint64_t reports_failed_ = 0;
  uint64_t nacks_ = 0;
  uint64_t epochs_attempted_ = 0;
  uint64_t epochs_failed_ = 0;
  double cpu_s_ = 0;
  IngestWal::Stats wal_delta_;
  WorkerPoolStats pool_stats_;
  uint64_t redirects_ = 0;
  double write_us_ = 0;
  size_t replayed_reports_ = 0;
  // mixed: per-value counts of the measured window's ACKed reports, and the
  // same summed over the measured epochs' histograms
  Histogram window_acked_;
  Histogram window_drained_;
  std::vector<std::string> problems_;
};

double Bench::SetUp(int rep) {
  int64_t start = NowNs();
  std::string dir = dir_ + "/setup-" + std::to_string(rep);
  fs::remove_all(dir);
  fs::create_directories(dir);
  service_ = std::make_unique<Service>(spec_, dir, pipeline_);
  Status started = service_->Start();
  if (!started.ok()) {
    Problem("service start failed: " + started.error().message);
    return -1;
  }
  values_ = DrawValues(spec_.shape, spec_.pool_size, opt_.seed);
  auto sealed = SealParallel(service_->MakeEncoder(), values_, opt_.seed, 4);
  if (!sealed.ok()) {
    Problem("seal failed: " + sealed.error().message);
    return -1;
  }
  pool_ = std::move(sealed).value();
  routes_ = service_->Routes(pool_);
  gen_ = std::make_unique<LoadGenerator>(Capacity());
  Status connected = gen_->Connect(service_->Ports(), /*first_session=*/1);
  if (!connected.ok()) {
    Problem("connect failed: " + connected.error().message);
    return -1;
  }

  // Warm-up: threads, sockets, WAL generation and one epoch through the
  // drain.
  next_report_ = 0;
  Rng rng(opt_.seed ^ 0x5eed0001);
  auto offsets = PoissonOffsets(kWarmupRate, spec_.warmup_reports, rng);
  if (!Send(NextReports(spec_.warmup_reports), offsets, /*measured=*/false)) {
    return -1;
  }
  Histogram reference = ReferenceOf(spec_.warmup_reports);
  if (spec_.flow == Flow::kMixed) {
    if (!service_->Cut().ok() ||
        !service_->drainer()->WaitForDrainedEpochs(1, std::chrono::milliseconds(60000))) {
      Problem("warm-up epoch was not drained");
      return -1;
    }
    epochs_attempted_++;
    auto results = service_->drainer()->TakeResults();
    if (results.size() != 1 || results[0].result.histogram != reference) {
      epochs_failed_++;
      Problem("warm-up epoch histogram differs from the reference");
    }
  } else if (!TimedEpoch(reference, /*measured=*/false)) {
    return -1;
  }
  return Seconds(NowNs() - start);
}

void Bench::TearDown() {
  if (gen_ != nullptr) {
    gen_->Close();
    for (size_t i = 0; i < gen_->used(); ++i) {
      const LoadGenerator::Record& record = gen_->record(i);
      reports_attempted_++;
      reports_failed_ += record.state == LoadGenerator::kAcked ? 0 : 1;
      nacks_ += record.state == LoadGenerator::kNacked ? 1 : 0;
    }
  }
  gen_.reset();
  service_.reset();
  measured_.clear();
}

bool Bench::Send(const std::vector<uint32_t>& reports, const std::vector<int64_t>& offsets,
                 bool measured) {
  Status started = gen_->Start(pool_, routes_, reports, offsets, NowNs() + 2'000'000);
  if (!started.ok()) {
    Problem(started.error().message);
    return false;
  }
  size_t begin = gen_->phase_begin();
  bool answered = gen_->Finish(kAnswerTimeout);
  if (measured) {
    measured_.emplace_back(begin, gen_->used());
  }
  if (!answered) {
    Problem("reports were not all answered within the timeout");
  }
  return answered;
}

// Cut + drain of one epoch, timed from the cut call to the histogram in
// hand, and checked against the exact reference.
bool Bench::TimedEpoch(const Histogram& reference, bool measured) {
  uint64_t epoch = service_->current_epoch();
  auto trace_id = static_cast<uint32_t>(epoch + 1);
  uint32_t span = tracer_.Begin("epoch", 0, trace_id);
  int64_t cut_start = NowNs();
  uint32_t cut_span = tracer_.Begin("epoch.cut", span, trace_id);
  Status cut = service_->Cut();
  tracer_.End(cut_span);
  int64_t cut_end = NowNs();
  uint32_t drain_span = tracer_.Begin("epoch.drain", span, trace_id);
  Result<EpochResult> drained =
      cut.ok() ? service_->Drain(epoch) : Result<EpochResult>(cut.error());
  tracer_.End(drain_span);
  tracer_.End(span);
  int64_t done = NowNs();
  epochs_attempted_++;
  if (!drained.ok()) {
    epochs_failed_++;
    Problem("epoch " + std::to_string(epoch) + " failed: " + drained.error().message);
    return false;
  }
  const PipelineResult& result = drained.value().result;
  if (result.histogram != reference) {
    epochs_failed_++;
    Problem("epoch " + std::to_string(epoch) + " histogram differs from the reference");
    return false;
  }
  if (measured) {
    std::printf("%s epoch %llu reports %zu result_s %.6f cut_ms %.3f\n", spec_.name,
                static_cast<unsigned long long>(epoch), drained.value().reports,
                Seconds(done - cut_start), 1e3 * Seconds(cut_end - cut_start));
    epoch_result_s_.push_back(Seconds(done - cut_start));
    cut_s_.push_back(Seconds(cut_end - cut_start));
    reported_shuffle_s_.push_back(result.encode_shuffle1_seconds);
    reported_analyze_s_.push_back(result.analyze_seconds);
    epoch_sizes_.push_back(static_cast<double>(drained.value().reports));
    if (first_histogram_digest_.empty()) {
      first_histogram_digest_ = HistogramDigest(result.histogram);
    }
  }
  return true;
}

bool Bench::Measure() {
  Rng rng(opt_.seed ^ 0x5eed0002);
  if (spec_.flow == Flow::kMixed) {
    return MeasureMixed();
  }
  // The whole pool per epoch until the epochs' share of the time is up
  // (all of it for drain and cluster), then ingest's open-loop window.
  Histogram reference = ReferenceOf(pool_.size());
  std::vector<uint32_t> cohort(pool_.size());
  std::iota(cohort.begin(), cohort.end(), 0);
  const int64_t start = NowNs();
  const double epoch_share = spec_.flow == Flow::kIngest ? kIngestEpochShare : 1.0;
  const int64_t epochs_end = start + static_cast<int64_t>(epoch_share * opt_.seconds * 1e9);
  do {
    if (!Send(cohort, PoissonOffsets(spec_.rate, cohort.size(), rng), /*measured=*/true) ||
        !TimedEpoch(reference, /*measured=*/true)) {
      return false;
    }
  } while (NowNs() < epochs_end);
  if (spec_.flow == Flow::kIngest) {
    double window_s = opt_.seconds - Seconds(NowNs() - start);
    auto offsets = PoissonOffsetsFor(spec_.rate, std::max(1.0, window_s), rng);
    return Send(NextReports(offsets.size()), offsets, /*measured=*/true);
  }
  return true;
}

// Open-loop ingest fills epoch e+1 while the DrainScheduler drains epoch e;
// the bench cuts on a fixed cadence and times each cut to its result.
bool Bench::MeasureMixed() {
  DrainScheduler& drainer = *service_->drainer();
  Rng rng(opt_.seed ^ 0x5eed0002);
  auto offsets = PoissonOffsetsFor(spec_.rate, opt_.seconds, rng);
  auto reports = NextReports(offsets.size());
  int64_t start = NowNs() + 2'000'000;
  Status started = gen_->Start(pool_, routes_, reports, offsets, start);
  if (!started.ok()) {
    Problem(started.error().message);
    return false;
  }
  measured_.emplace_back(gen_->phase_begin(), gen_->used());
  const int epochs = std::max(1, static_cast<int>(opt_.seconds / kMixedCutEvery_s));
  const double cadence_s = opt_.seconds / epochs;

  std::map<uint64_t, int64_t> cut_at;
  size_t drained_seen = drainer.stats().epochs_drained;  // the warm-up epoch
  std::vector<EpochResult> results;
  auto cut = [&] {
    uint64_t epoch = service_->current_epoch();
    int64_t t = NowNs();
    uint32_t span = tracer_.Begin("epoch.cut", 0, static_cast<uint32_t>(epoch + 1));
    Status status = service_->Cut();
    tracer_.End(span);
    cut_s_.push_back(Seconds(NowNs() - t));
    if (!status.ok()) {
      Problem("cut failed: " + status.error().message);
    } else if (service_->current_epoch() != epoch) {
      cut_at[epoch] = t;
    }
  };
  // Timestamps each drained epoch as it arrives; with `until_all`, returns
  // as soon as every cut epoch has arrived.
  auto collect_until = [&](int64_t deadline, bool until_all) {
    for (int64_t now = NowNs(); now < deadline; now = NowNs()) {
      if (until_all && results.size() == cut_at.size()) {
        return;
      }
      auto wait = std::chrono::nanoseconds(std::min<int64_t>(deadline - now, 5'000'000));
      if (drainer.WaitForDrainedEpochs(drained_seen + 1,
                                       std::chrono::duration_cast<std::chrono::milliseconds>(wait) +
                                           std::chrono::milliseconds(1))) {
        int64_t arrived = NowNs();
        for (EpochResult& result : drainer.TakeResults()) {
          drained_seen++;
          auto it = cut_at.find(result.epoch);
          if (it != cut_at.end()) {
            std::printf("%s epoch %llu reports %zu result_s %.6f\n", spec_.name,
                        static_cast<unsigned long long>(result.epoch), result.reports,
                        Seconds(arrived - it->second));
            epoch_result_s_.push_back(Seconds(arrived - it->second));
            tracer_.Record("epoch", it->second, arrived, 0,
                           static_cast<uint32_t>(result.epoch + 1));
          }
          results.push_back(std::move(result));
        }
      }
    }
  };
  for (int e = 1; e < epochs; ++e) {
    collect_until(start + static_cast<int64_t>(e * cadence_s * 1e9), false);
    cut();
  }
  collect_until(start + static_cast<int64_t>(opt_.seconds * 1e9), false);
  bool answered = gen_->Finish(kAnswerTimeout);
  if (!answered) {
    Problem("reports were not all answered within the timeout");
  }
  cut();
  collect_until(NowNs() + 120'000'000'000, true);
  epochs_attempted_ += cut_at.size();
  if (results.size() != cut_at.size()) {
    epochs_failed_ += cut_at.size() - results.size();
    Problem("not every cut epoch was drained");
  }
  if (drainer.stats().drain_failures != 0) {
    Problem("drain failures: " + drainer.stats().last_drain_error);
  }
  for (const EpochResult& result : results) {
    for (const auto& [value, count] : result.result.histogram) {
      window_drained_[value] += count;
    }
    reported_shuffle_s_.push_back(result.result.encode_shuffle1_seconds);
    reported_analyze_s_.push_back(result.result.analyze_seconds);
    epoch_sizes_.push_back(static_cast<double>(result.reports));
  }
  return answered;
}

// Latency, lag and (mixed) per-value counts of the measured sends; ACK
// spans sampled 1 in 64 when tracing.
void Bench::CollectSends() {
  for (const auto& [begin, end] : measured_) {
    for (size_t i = begin; i < end; ++i) {
      const LoadGenerator::Record& record = gen_->record(i);
      if (record.state != LoadGenerator::kAcked) {
        continue;
      }
      acked_measured_++;
      ack_ms_.push_back(static_cast<double>(record.ack_ns - record.due_ns) * 1e-6);
      lag_ms_.push_back(static_cast<double>(record.sent_ns - record.due_ns) * 1e-6);
      if (spec_.flow == Flow::kMixed) {
        window_acked_[values_[record.report]]++;
      }
      if (i % 64 == 0) {
        auto trace_id = static_cast<uint32_t>(1'000'000 + i);
        uint32_t ack = tracer_.Record("ack", record.due_ns, record.ack_ns, 0, trace_id);
        tracer_.Record("loadgen.lag", record.due_ns, record.sent_ns, ack, trace_id);
      }
    }
  }
  write_us_ = gen_->write_us_per_frame();
}

// The untraced run's value of `metric` for this workload, from its results
// file; NaN when there is none.
double UntracedValue(const std::string& workload, const std::string& metric) {
  std::ifstream in("BENCH_esa_" + workload + ".json");
  std::stringstream text;
  text << in.rdbuf();
  std::string needle = "\"" + metric + "\": {\"value\": ";
  size_t at = text.str().find(needle);
  if (at == std::string::npos) {
    return std::nan("");
  }
  return std::strtod(text.str().c_str() + at + needle.size(), nullptr);
}

bool Bench::Report(const ReplayResult* replay) {
  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  };
  add("setup_s", Median(setup_s_), "s");
  add("ack_p50_ms", Quantile(ack_ms_, 0.50), "ms");
  add("ack_p90_ms", Quantile(ack_ms_, 0.90), "ms");
  add("epoch_result_s", Median(epoch_result_s_), "s");
  add("peak_rss_mb", ProcessCpu().peak_rss_mb, "MB");

  uint64_t attempted = reports_attempted_ + epochs_attempted_;
  uint64_t failed = reports_failed_ + epochs_failed_;
  add("failed_frac", Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      "fraction");
  double tail_q = HighestSupportedQuantile(ack_ms_.size());
  add("ack_samples", static_cast<double>(ack_ms_.size()), "count");
  add("ack_p99_ms", Quantile(ack_ms_, 0.99), "ms");
  add("ack_tail_quantile", tail_q, "fraction");
  add("ack_tail_ms", Quantile(ack_ms_, tail_q), "ms");
  add("epochs_measured", static_cast<double>(epoch_result_s_.size()), "count");
  add("epoch_reports", Median(epoch_sizes_), "count");

  add("connection.write_us", write_us_, "us");
  add("connection.nacks", static_cast<double>(nacks_), "count");
  add("wal.reports_per_fsync",
      Ratio(static_cast<double>(wal_delta_.records_flushed),
            static_cast<double>(wal_delta_.fsyncs)),
      "ratio");
  add("pool.ring_full_waits", static_cast<double>(pool_stats_.ring_full_waits), "count");
  add("pool.accept_failures", static_cast<double>(pool_stats_.accept_failures), "count");
  add("cluster.redirects", static_cast<double>(redirects_), "count");
  add("epoch.cut_ms", 1e3 * Median(cut_s_), "ms");
  add("process.cpu_us_per_report", Ratio(1e6 * cpu_s_, static_cast<double>(acked_measured_)),
      "us");
  add("drain.reported_shuffle_s", Median(reported_shuffle_s_), "s");
  add("drain.reported_analyze_s", Median(reported_analyze_s_), "s");
  add("loadgen.lag_p99_ms", Quantile(lag_ms_, 0.99), "ms");
  if (replay != nullptr) {
    AddTracedMetrics(*replay, metrics);
  }

  const std::string digest = first_histogram_digest_.empty() ? "-" : first_histogram_digest_;
  std::printf("%s histogram.sha256 %s (first measured epoch)\n", spec_.name, digest.c_str());
  for (const Metric& metric : metrics) {
    std::printf("%s %s %.9g %s\n", spec_.name, metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  double lag_p99 = Quantile(lag_ms_, 0.99);
  bool valid = std::isfinite(lag_p99) && lag_p99 <= 0.5;
  if (!valid) {
    std::fprintf(stderr,
                 "bench_esa %s: generator lag p99 %.3f ms > 0.5 ms: the run measured the "
                 "generator\n",
                 spec_.name, lag_p99);
  }
  bool correct = problems_.empty() && failed == 0 && (replay == nullptr || replay->ok());

  std::vector<std::string> all;
  for (const Metric& metric : metrics) {
    all.push_back(metric.name);
  }
  HostFingerprint host = Host();
  std::string out = !opt_.out.empty() ? opt_.out
                    : opt_.trace      ? "BENCH_esa_" + std::string(spec_.name) + ".traced.json"
                                      : "BENCH_esa_" + std::string(spec_.name) + ".json";
  std::ofstream file(out);
  file << "{\"schema\": \"esa-v1\", \"workload\": \"" << spec_.name << "\", \"seed\": " << opt_.seed
       << ", \"seconds\": " << JsonNumber(opt_.seconds) << ", \"trace\": " << (opt_.trace ? 1 : 0)
       << ", \"valid\": " << (valid ? "true" : "false")
       << ", \"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"histogram_sha256\": \"" << digest << "\""
       << ", \"host\": {\"cores\": " << host.cores << ", \"cpu_model\": \""
       << JsonEscape(host.cpu_model) << "\", \"compiler\": \"" << JsonEscape(host.compiler)
       << "\", \"build_type\": \"" << JsonEscape(host.build_type)
       << "\"}, \"metrics\": " << MetricsJson(metrics, all) << "}\n";
  if (!file.good()) {
    std::fprintf(stderr, "bench_esa: could not write %s\n", out.c_str());
  }
  if (opt_.trace) {
    std::string trace_file = !opt_.trace_file.empty()
                                 ? opt_.trace_file
                                 : "TRACE_esa_" + std::string(spec_.name) + ".json";
    if (!tracer_.WriteChromeJson(trace_file)) {
      std::fprintf(stderr, "bench_esa: could not write %s\n", trace_file.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics, opt_.trace ? kPerLayer : kEndToEnd).c_str());
  std::fflush(stdout);
  return correct;
}

// The replay's metrics, the layer table of one epoch's blocking steps with
// its residual, and the tracing overhead.
void Bench::AddTracedMetrics(const ReplayResult& replay, std::vector<Metric>& metrics) {
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  };
  for (const Metric& metric : replay.metrics) {
    metrics.push_back(metric);
  }
  add("shuffler.forwarded_frac", replay.forwarded_frac, "fraction");
  add("analyzer.decrypts_per_survivor", replay.serial_decrypts_per_survivor, "ratio");
  add("cluster.decrypts_per_survivor", replay.cluster_decrypts_per_survivor, "ratio");

  // The real cut, then the replayed layers (leaf spans, so each span's self
  // time is its duration; a layer timed several times takes the median).
  // Cluster workloads drain through the per-group partials and the merge.
  const double epoch_result = Median(epoch_result_s_);
  const double cut = Median(cut_s_);
  std::vector<Span> spans = tracer_.Spans();
  auto self_s = [&](const char* root, const std::string& name) {
    return 1e-9 * static_cast<double>(Tracer::MedianSelfNs(spans, root, name));
  };
  std::vector<std::pair<std::string, double>> rows;
  if (spec_.groups > 1) {
    double partials = self_s("replay.cluster", "cluster.partial.g1") +
                      self_s("replay.cluster", "cluster.partial.g2");
    rows = {{"cluster.partial.g1", self_s("replay.cluster", "cluster.partial.g1")},
            {"cluster.partial.g2", self_s("replay.cluster", "cluster.partial.g2")},
            {"cluster.merge", self_s("replay.cluster", "cluster.merge")}};
    // Σ group partial time ÷ merge wall: 1.0 = the groups drained one after another.
    add("cluster.drain_overlap", epoch_result > cut ? partials / (epoch_result - cut) : 0, "ratio");
  } else {
    double open = self_s("replay.drain", "shuffler.open");
    rows = {{"spool.replay", self_s("replay.drain", "spool.replay")},
            {"shuffler.open", open},
            {"shuffler.threshold_shuffle", self_s("replay.drain", "shuffler.process_batch") - open},
            {"analyzer.decrypt", self_s("replay.drain", "analyzer.decrypt")},
            {"analyzer.histogram", self_s("replay.drain", "analyzer.histogram")}};
  }
  // mixed epochs can outgrow the pool the replay re-seals
  const double scale = Ratio(Median(epoch_sizes_), static_cast<double>(replayed_reports_));
  std::printf(
      "%s layer-table epoch_result_s=%.6f (replayed epoch: %zu reports, x%.3f to the real "
      "epoch)\n",
      spec_.name, epoch_result, replayed_reports_, scale);
  auto row = [&](const std::string& name, double seconds) {
    std::printf("%s layer %-28s self_ms %10.3f share %6.3f\n", spec_.name, name.c_str(),
                1e3 * seconds, seconds / epoch_result);
  };
  row("epoch.cut", cut);
  double accounted = cut;
  for (const auto& [name, seconds] : rows) {
    row(name, seconds * scale);
    accounted += seconds * scale;
  }
  row("residual", epoch_result - accounted);
  add("drain.residual_frac", (epoch_result - accounted) / epoch_result, "fraction");
  add("trace.spans", static_cast<double>(spans.size()), "count");
  add("trace.dropped_spans", static_cast<double>(tracer_.dropped()), "count");

  // Tracing overhead: this traced run minus the last untraced run of the
  // workload in this directory.
  for (const std::string name : {"ack_p50_ms", "epoch_result_s"}) {
    const Metric& traced = *FindMetric(metrics, name);
    double untraced = UntracedValue(spec_.name, name);
    if (std::isfinite(untraced)) {
      add("trace.overhead_" + name, traced.value - untraced, traced.unit);
    } else {
      std::printf("%s trace.overhead_%s n/a (no untraced BENCH_esa_%s.json here)\n", spec_.name,
                  name.c_str(), spec_.name);
    }
  }
}

int Bench::Main() {
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    double seconds = SetUp(rep);
    if (seconds < 0) {
      TearDown();
      fs::remove_all(dir_);
      return 2;
    }
    setup_s_.push_back(seconds);
    if (rep + 1 < kSetupRepeats) {
      TearDown();
    }
  }

  CpuTimes cpu_before = ProcessCpu();
  IngestWal::Stats wal_before = service_->WalTotals();
  bool measured = Measure();
  cpu_s_ = ProcessCpu().total_s() - cpu_before.total_s();
  IngestWal::Stats wal_after = service_->WalTotals();
  wal_delta_.records_flushed = wal_after.records_flushed - wal_before.records_flushed;
  wal_delta_.fsyncs = wal_after.fsyncs - wal_before.fsyncs;
  pool_stats_ = service_->PoolTotals();
  redirects_ = service_->redirects();
  if (service_->tick_failures() != 0) {
    Problem("scheduling tick failed " + std::to_string(service_->tick_failures()) + " times");
  }
  gen_->Close();
  CollectSends();
  if (spec_.flow == Flow::kMixed && measured && window_acked_ != window_drained_) {
    Problem("per-value counts over the drained epochs differ from the ACKed reports");
  }
  TearDown();

  std::unique_ptr<ReplayResult> replay;
  if (opt_.trace) {
    ReplayInput input;
    size_t shape = std::min(pool_.size(), static_cast<size_t>(std::max(1.0, Median(epoch_sizes_))));
    input.values.assign(values_.begin(), values_.begin() + static_cast<ptrdiff_t>(shape));
    input.service_reports.assign(pool_.begin(), pool_.begin() + static_cast<ptrdiff_t>(shape));
    input.pipeline = pipeline_;
    input.work_dir = dir_ + "/replay";
    input.seed = opt_.seed;
    replayed_reports_ = shape;
    replay = std::make_unique<ReplayResult>(Replay(input, tracer_));
    if (!replay->ok()) {
      Problem(replay->error);
    }
  }
  bool correct = Report(replay.get());
  fs::remove_all(dir_);
  return correct ? 0 : 1;
}

bool ParseOptions(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      // 0 / 1, or a trace file path (tracing on)
      options.trace = value != "0";
      if (value != "0" && value != "1") {
        options.trace_file = value;
      }
    } else if (arg == "--out") {
      options.out = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds > 0;
}

}  // namespace
}  // namespace prochlo::esa

int main(int argc, char** argv) {
  using namespace prochlo::esa;
  Options options;
  if (!ParseOptions(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: bench_esa --workload <ingest|drain|cluster|mixed> --seed <n> "
                 "[--seconds <s>] [--trace 0|1|<trace file>] [--out <path>] "
                 "[--work-dir <dir>]\n");
    return 2;
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (options.workload == spec.name) {
      Bench bench(options, spec);
      return bench.Main();
    }
  }
  std::fprintf(stderr, "bench_esa: unknown workload '%s'\n", options.workload.c_str());
  return 2;
}
