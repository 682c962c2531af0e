// The client retry contract over real TCP sockets, pinned by fault
// injection: connections are killed mid-frame, after-frame-before-ack, and
// after-ack, then reconnected and replayed — and every scenario must end
// with exactly-once spooling (duplicates suppressed by sequence number),
// ack books that balance against the server's framing books, and per-epoch
// histograms bit-identical to the serial frontend.
//
// The kill schedule is seeded: set PROCHLO_NETWORK_SEED to reproduce a
// failing schedule (the seed in use is printed at the bottom of the log).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
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

uint64_t SeedFromEnv() {
  if (const char* env = std::getenv("PROCHLO_NETWORK_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x4E455477;  // "NETw"
}

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() / ("prochlo-" + name)).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

// A transport wrapper that models the network dying underneath the client:
// after `write_budget` bytes the next write delivers only a prefix (a torn
// frame on the server side) and the whole connection is aborted.  With
// `blackhole_reads`, nothing the server sends is ever seen — the
// "after-frame-before-ack" scenario, where the report lands durably but its
// acknowledgment dies in flight.
class KillSwitchStream : public ByteStream {
 public:
  static constexpr size_t kUnlimited = static_cast<size_t>(-1);

  KillSwitchStream(std::unique_ptr<ByteStream> inner, size_t write_budget,
                   bool blackhole_reads = false)
      : inner_(std::move(inner)),
        budget_(write_budget),
        blackhole_reads_(blackhole_reads) {}

  Result<size_t> Read(std::span<uint8_t> out) override {
    if (blackhole_reads_) {
      std::unique_lock<std::mutex> lock(mu_);
      aborted_cv_.wait(lock, [&] { return aborted_; });
      return size_t{0};
    }
    return inner_->Read(out);
  }

  Status Write(ByteSpan data) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (aborted_) {
      return Error{"killswitch: connection killed"};
    }
    if (budget_ != kUnlimited && data.size() > budget_) {
      size_t partial = budget_;
      budget_ = 0;
      if (partial > 0) {
        // Torn frame delivered; the inner write outcome is irrelevant — the
        // kill below is the fault being injected.
        (void)inner_->Write(ByteSpan(data.data(), partial));
      }
      AbortLocked();
      return Error{"killswitch: connection killed mid-write"};
    }
    if (budget_ != kUnlimited) {
      budget_ -= data.size();
    }
    Status status = inner_->Write(data);
    if (!status.ok()) {
      AbortLocked();
    }
    return status;
  }

  void CloseWrite() override { inner_->CloseWrite(); }

  void Abort() override {
    std::lock_guard<std::mutex> lock(mu_);
    AbortLocked();
  }

 private:
  void AbortLocked() {
    if (!aborted_) {
      aborted_ = true;
      inner_->Abort();
      aborted_cv_.notify_all();
    }
  }

  std::unique_ptr<ByteStream> inner_;
  std::mutex mu_;
  std::condition_variable aborted_cv_;
  size_t budget_;
  bool blackhole_reads_;
  bool aborted_ = false;
};

// The full server stack for one test: spooled frontend, worker pool,
// seal-event-driven drain scheduler, frame server whose async sink acks
// only after the pool's durable Accept, and a real TCP accept loop.
struct NetworkRig {
  explicit NetworkRig(FrontendConfig config, size_t workers = 2, size_t ring = 64)
      : frontend(std::move(config)),
        pool(&frontend, WorkerPoolConfig{workers, ring}),
        server([this](Bytes report) { return pool.Enqueue(std::move(report)); },
               [this](Bytes report, ReportContext ctx, std::function<void(const Status&)> done) {
                 pool.EnqueueAsync(std::move(report), ctx, std::move(done));
               }),
        listener(&server) {}

  ~NetworkRig() { Shutdown(); }

  void Start() {
    ASSERT_TRUE(frontend.Start().ok());
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

  // Spins until the frontend has durably accepted `n` reports (the
  // after-frame-before-ack drill needs to know the server side finished
  // before killing the connection).
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

FrontendConfig NetworkFrontendConfig(const std::string& spool_dir) {
  FrontendConfig config;
  config.pipeline.shuffler.threshold_mode = ThresholdMode::kNaive;
  config.pipeline.shuffler.policy = ThresholdPolicy{20, 10, 2};
  config.pipeline.num_threads = 0;
  config.pipeline.seed = "network-e2e";
  config.ingest.num_shards = 4;
  config.spool_dir = spool_dir;
  return config;
}

Bytes SyntheticReport(uint64_t client, uint64_t index) {
  Bytes report(48, static_cast<uint8_t>(0xB0 + client));
  for (int b = 0; b < 8; ++b) {
    report[8 + b] = static_cast<uint8_t>(index >> (8 * b));
  }
  return report;
}

// The balance invariant every scenario must satisfy: each valid report
// frame the server received got exactly one response, first-time ingests
// match the frontend's accepted count, and the mirrored FrontendStats books
// agree with the server's.
void ExpectAckBooksBalance(const NetworkRig& rig, uint64_t unique_reports) {
  ConnectionAckBook book = rig.server.ack_book();
  FrameStreamStats frames = rig.server.stats();
  EXPECT_EQ(book.acked, unique_reports);
  EXPECT_EQ(frames.frames_report, book.acked + book.nacked + book.duplicates_suppressed);
  EXPECT_EQ(rig.frontend.stats().reports_accepted.load(), unique_reports);
  EXPECT_EQ(rig.frontend.stats().acks_sent.load(), book.acked);
  EXPECT_EQ(rig.frontend.stats().nacks_sent.load(), book.nacked);
  EXPECT_EQ(rig.frontend.stats().duplicates_suppressed.load(), book.duplicates_suppressed);
}

// --------------------------------------------------------------- happy path

TEST(ServiceNetworkTest, TcpListenerServesConcurrentAckedClients) {
  ScratchDir dir("network-happy");
  NetworkRig rig(NetworkFrontendConfig(dir.path));
  rig.Start();

  constexpr int kClients = 4;
  constexpr uint64_t kPerClient = 40;
  std::vector<std::thread> threads;
  std::vector<FrameClientStats> client_stats(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&rig, &client_stats, c] {
      FrameClient client(FrameClientConfig{/*session_id=*/static_cast<uint64_t>(c + 1)});
      auto stream = rig.Dial();
      ASSERT_TRUE(stream.ok()) << stream.error().message;
      ASSERT_TRUE(client.Connect(std::move(stream).value()).ok());
      for (uint64_t i = 0; i < kPerClient; ++i) {
        ASSERT_TRUE(client.SendReport(SyntheticReport(c, i)).ok());
      }
      ASSERT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
      client.Close();
      client_stats[c] = client.stats();
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_TRUE(rig.server.Shutdown().ok());

  const uint64_t total = kClients * kPerClient;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(client_stats[c].sent, kPerClient);
    EXPECT_EQ(client_stats[c].acked, kPerClient);
    EXPECT_EQ(client_stats[c].retransmitted, 0u);
    EXPECT_EQ(client_stats[c].nacked, 0u);
  }
  // + hellos + goodbyes: Close() now offers the server a kGoodbye per
  // cleanly finished session, which frees its dedup state immediately.
  EXPECT_EQ(rig.server.stats().frames_ok, total + 2 * kClients);
  EXPECT_EQ(rig.server.stats().frames_hello, static_cast<uint64_t>(kClients));
  EXPECT_EQ(rig.server.stats().frames_goodbye, static_cast<uint64_t>(kClients));
  EXPECT_EQ(rig.server.registry().sessions(), 0u);
  EXPECT_EQ(rig.server.ack_book().goodbyes_acked, static_cast<uint64_t>(kClients));
  ExpectAckBooksBalance(rig, total);
  EXPECT_EQ(rig.pool.stats().accept_failures, 0u);
}

// ---------------------------------------------------------- kill mid-frame

TEST(ServiceNetworkTest, KillMidFrameReconnectDeliversExactlyOnce) {
  ScratchDir dir("network-midframe");
  NetworkRig rig(NetworkFrontendConfig(dir.path));
  rig.Start();

  constexpr uint64_t kReports = 40;
  const size_t frame_size = FrameWireSize(SyntheticReport(0, 0).size());
  FrameClient client(FrameClientConfig{/*session_id=*/77});

  // Budget: the HELLO, three whole report frames, then half a frame — the
  // fourth report tears mid-frame and the connection dies.
  auto stream = rig.Dial();
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(client
                  .Connect(std::make_unique<KillSwitchStream>(
                      std::move(stream).value(),
                      FrameWireSize(0) + 3 * frame_size + frame_size / 2))
                  .ok());

  bool saw_failure = false;
  for (uint64_t i = 0; i < kReports; ++i) {
    if (!client.SendReport(SyntheticReport(7, i)).ok()) {
      saw_failure = true;  // connection died; reports stay owned for replay
    }
  }
  ASSERT_TRUE(saw_failure);
  EXPECT_FALSE(client.connected());
  EXPECT_FALSE(client.WaitForAcks(std::chrono::milliseconds(10)));
  EXPECT_GT(client.outstanding(), 0u);

  // Reconnect over a healthy socket: Connect replays every unacked report.
  auto retry_stream = rig.Dial();
  ASSERT_TRUE(retry_stream.ok());
  ASSERT_TRUE(client.Connect(std::move(retry_stream).value()).ok());
  ASSERT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
  client.Close();
  ASSERT_TRUE(rig.server.Shutdown().ok());

  // Exactly once: every report ingested, none twice.  The torn fourth
  // frame is on the books as corrupt, not as a report.
  ExpectAckBooksBalance(rig, kReports);
  EXPECT_EQ(client.stats().acked, kReports);
  EXPECT_GE(client.stats().retransmitted, kReports - 3);
  EXPECT_GE(rig.server.stats().frames_corrupt, 1u);
}

// -------------------------------------------------- kill after frame, before ack

TEST(ServiceNetworkTest, LostAcksAreRepairedByDuplicateSuppression) {
  ScratchDir dir("network-lostack");
  NetworkRig rig(NetworkFrontendConfig(dir.path));
  rig.Start();

  constexpr uint64_t kReports = 40;
  FrameClient client(FrameClientConfig{/*session_id=*/88});

  // Every report frame gets through, every acknowledgment is lost: the
  // blackhole read side never delivers the server's responses.
  auto stream = rig.Dial();
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(client
                  .Connect(std::make_unique<KillSwitchStream>(
                      std::move(stream).value(), KillSwitchStream::kUnlimited,
                      /*blackhole_reads=*/true))
                  .ok());
  for (uint64_t i = 0; i < kReports; ++i) {
    ASSERT_TRUE(client.SendReport(SyntheticReport(8, i)).ok());
  }
  // The server durably spools all 40 — the client just never learns.
  ASSERT_TRUE(rig.WaitForAccepted(kReports, std::chrono::milliseconds(30000)));
  EXPECT_FALSE(client.WaitForAcks(std::chrono::milliseconds(50)));
  EXPECT_EQ(client.outstanding(), kReports);

  // The reconnect replays all 40; the registry suppresses every one as a
  // duplicate and re-acks, so the client converges without re-ingestion.
  auto retry_stream = rig.Dial();
  ASSERT_TRUE(retry_stream.ok());
  ASSERT_TRUE(client.Connect(std::move(retry_stream).value()).ok());
  ASSERT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
  client.Close();
  ASSERT_TRUE(rig.server.Shutdown().ok());

  EXPECT_EQ(rig.server.ack_book().duplicates_suppressed, kReports);
  EXPECT_EQ(client.stats().retransmitted, kReports);
  EXPECT_EQ(client.stats().acked, kReports);
  ExpectAckBooksBalance(rig, kReports);
}

// ------------------------------------------------------------ kill after ack

TEST(ServiceNetworkTest, KillAfterAckDoesNotRetransmit) {
  ScratchDir dir("network-afterack");
  NetworkRig rig(NetworkFrontendConfig(dir.path));
  rig.Start();

  constexpr uint64_t kFirst = 25;
  constexpr uint64_t kSecond = 15;
  FrameClient client(FrameClientConfig{/*session_id=*/99});
  auto stream = rig.Dial();
  ASSERT_TRUE(stream.ok());
  auto killable = std::make_unique<KillSwitchStream>(std::move(stream).value(),
                                                     KillSwitchStream::kUnlimited);
  KillSwitchStream* kill_handle = killable.get();
  ASSERT_TRUE(client.Connect(std::move(killable)).ok());
  for (uint64_t i = 0; i < kFirst; ++i) {
    ASSERT_TRUE(client.SendReport(SyntheticReport(9, i)).ok());
  }
  // Everything acknowledged — and only then does the connection die.
  ASSERT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
  kill_handle->Abort();

  auto retry_stream = rig.Dial();
  ASSERT_TRUE(retry_stream.ok());
  ASSERT_TRUE(client.Connect(std::move(retry_stream).value()).ok());
  // Nothing was outstanding, so nothing is replayed.
  EXPECT_EQ(client.stats().retransmitted, 0u);
  for (uint64_t i = 0; i < kSecond; ++i) {
    ASSERT_TRUE(client.SendReport(SyntheticReport(9, kFirst + i)).ok());
  }
  ASSERT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
  client.Close();
  ASSERT_TRUE(rig.server.Shutdown().ok());

  EXPECT_EQ(client.stats().retransmitted, 0u);
  EXPECT_EQ(rig.server.ack_book().duplicates_suppressed, 0u);
  ExpectAckBooksBalance(rig, kFirst + kSecond);
}

// ------------------------------------------------------------- nacked retry

TEST(ServiceNetworkTest, NackedReportIsRetriedToSuccess) {
  // An ingest failure must NACK (releasing the sequence claim) and the
  // client must retry the same sequence number to success — the "report
  // NOT ingested, client SHOULD resend, no duplicate possible" row of the
  // retry contract, now enforced by protocol instead of convention.
  ScratchDir dir("network-nack");
  FrontendConfig config = NetworkFrontendConfig(dir.path);
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());
  IngestWorkerPool pool(&frontend, WorkerPoolConfig{2, 64});
  pool.Start();
  std::atomic<int> failures_left{3};
  FrameServer server(
      [&pool](Bytes report) { return pool.Enqueue(std::move(report)); },
      [&](Bytes report, ReportContext ctx, std::function<void(const Status&)> done) {
        if (failures_left.fetch_sub(1) > 0) {
          done(Error{"injected ingest failure"});
          return;
        }
        pool.EnqueueAsync(std::move(report), ctx, std::move(done));
      });
  server.BindFrontendStats(&frontend.stats());
  TcpListener listener(&server);
  ASSERT_TRUE(listener.Start().ok());

  constexpr uint64_t kReports = 20;
  FrameClient client(FrameClientConfig{/*session_id=*/123});
  auto stream = TcpConnect("127.0.0.1", listener.port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(client.Connect(std::move(stream).value()).ok());
  for (uint64_t i = 0; i < kReports; ++i) {
    ASSERT_TRUE(client.SendReport(SyntheticReport(1, i)).ok());
  }
  ASSERT_TRUE(client.WaitForAcks(std::chrono::milliseconds(30000)));
  client.Close();
  ASSERT_TRUE(server.Shutdown().ok());
  ASSERT_TRUE(pool.Flush().ok());

  EXPECT_EQ(client.stats().nacked, 3u);
  EXPECT_GE(client.stats().retransmitted, 3u);
  EXPECT_EQ(client.stats().acked, kReports);
  ConnectionAckBook book = server.ack_book();
  EXPECT_EQ(book.nacked, 3u);
  EXPECT_EQ(book.acked, kReports);
  EXPECT_EQ(frontend.stats().reports_accepted.load(), kReports);
  listener.Stop();
  pool.Stop();
}

// ----------------------------------------------------- seal-event drain wake

TEST(ServiceNetworkTest, SealEventDrivesDrainWithoutPolling) {
  // The drain must be driven by the seal event, not the fallback poll: with
  // the poll parked far beyond the test's patience, a cut epoch still
  // drains promptly because SealCurrentLocked signals the scheduler.
  FrontendConfig config;
  config.pipeline.shuffler.threshold_mode = ThresholdMode::kNaive;
  config.pipeline.seed = "seal-event";
  config.ingest.num_shards = 4;  // in-memory
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());

  DrainScheduler drainer(&frontend,
                         DrainSchedulerConfig{std::chrono::milliseconds(600000)});
  drainer.Start();

  const Encoder encoder = frontend.MakeEncoder();
  SecureRandom rng(ToBytes("seal-event-clients"));
  for (int i = 0; i < 30; ++i) {
    auto report = encoder.EncodeValue("value", "crowd", rng);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(frontend.AcceptReport(std::move(report).value()).ok());
  }
  ASSERT_TRUE(frontend.CutEpoch().ok());
  // Well under the 10-minute poll: only the seal event can explain this.
  EXPECT_TRUE(drainer.WaitForDrainedEpochs(1, std::chrono::milliseconds(15000)));
  drainer.Stop();
  auto results = drainer.TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].reports, 30u);

  // After Stop the listener is unregistered: another cut must not touch the
  // destroyed-scheduler path (no crash, no drain).
  for (int i = 0; i < 5; ++i) {
    auto report = encoder.EncodeValue("value", "crowd", rng);
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(frontend.AcceptReport(std::move(report).value()).ok());
  }
  ASSERT_TRUE(frontend.CutEpoch().ok());
}

// ------------------------------------------- stale frames, abandoned lines

// A client abandons a connection (it died, or was killed) and carries on
// over a new one, but frames it had already written on the old one can
// reach the server late — even after the session's goodbye erased its dedup
// state, where they would claim as new.  They must be refused, not ingested
// a second time.
TEST(ServiceNetworkTest, StaleFramesFromAnAbandonedConnectionAreNotReingested) {
  std::atomic<uint64_t> ingested{0};
  FrameServer server([](Bytes) { return Status::Ok(); },
                     [&ingested](Bytes, ReportContext, std::function<void(const Status&)> done) {
                       ingested.fetch_add(1);
                       done(Status::Ok());
                     });
  constexpr uint64_t kSession = 7;
  const Bytes report = SyntheticReport(1, 0);
  // The abandoned connection was accepted first; its frames arrive last.
  std::unique_ptr<ByteStream> abandoned = server.Connect();
  std::unique_ptr<ByteStream> current = server.Connect();
  ASSERT_TRUE(current->Write(EncodeHelloFrame(kSession)).ok());
  ASSERT_TRUE(current->Write(EncodeReportFrame(0, report)).ok());
  ASSERT_TRUE(current->Write(EncodeGoodbyeFrame(1)).ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ingested.load() < 1 || server.registry().sessions() != 0) {  // goodbye done
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  current->CloseWrite();

  ASSERT_TRUE(abandoned->Write(EncodeHelloFrame(kSession)).ok());
  ASSERT_TRUE(abandoned->Write(EncodeReportFrame(0, report)).ok());
  abandoned->CloseWrite();
  ASSERT_TRUE(server.Shutdown().ok());

  EXPECT_EQ(ingested.load(), 1u);
  ConnectionAckBook book = server.ack_book();
  EXPECT_EQ(book.acked, 1u);
  EXPECT_EQ(book.nacked, 1u);  // the stale copy, answered on a dead line
  EXPECT_EQ(book.goodbyes_acked, 1u);
  EXPECT_EQ(server.stats().frames_report, book.acked + book.nacked + book.duplicates_suppressed);
}

// ------------------------------------------- e2e: random kills, bit-identity

std::vector<std::pair<std::string, std::string>> WaveInputs(int wave) {
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

// The acceptance scenario: 4 concurrent FrameClients over real TCP sockets
// through TcpListener -> FrameServer -> IngestWorkerPool -> background
// drain, with every client's connection repeatedly killed at seeded random
// byte offsets and reconnected mid-stream — and the per-epoch histograms
// still bit-identical to the serial frontend, with zero lost and zero
// duplicated reports.
TEST(ServiceNetworkTest, ConcurrentTcpClientsWithRandomKillsMatchSerialHistograms) {
  const uint64_t seed = SeedFromEnv();
  SCOPED_TRACE("PROCHLO_NETWORK_SEED=" + std::to_string(seed));

  constexpr int kWaves = 2;
  constexpr int kClients = 4;

  ScratchDir serial_dir("network-e2e-serial");
  ScratchDir concurrent_dir("network-e2e-concurrent");
  FrontendConfig base = NetworkFrontendConfig("");

  // Seal every wave once: both frontends derive keys from the same seed, so
  // serial and networked runs open identical sealed bytes.
  std::vector<std::vector<Bytes>> waves;
  {
    ShufflerFrontend key_holder(base);
    const Encoder encoder = key_holder.MakeEncoder();
    SecureRandom client_rng(ToBytes("network-e2e-clients"));
    for (int wave = 0; wave < kWaves; ++wave) {
      auto batch = encoder.BatchSealReports(WaveInputs(wave), client_rng);
      ASSERT_TRUE(batch.ok());
      waves.push_back(std::move(batch).value());
    }
  }

  // Serial reference.
  std::map<uint64_t, std::map<std::string, uint64_t>> expected;
  {
    FrontendConfig config = base;
    config.spool_dir = serial_dir.path;
    ShufflerFrontend serial(config);
    ASSERT_TRUE(serial.Start().ok());
    for (const auto& wave : waves) {
      for (const auto& report : wave) {
        ASSERT_TRUE(serial.AcceptReport(report).ok());
      }
      ASSERT_TRUE(serial.CutEpoch().ok());
    }
    auto drained = serial.DrainSealedEpochs();
    ASSERT_TRUE(drained.ok());
    for (const auto& result : drained.results) {
      expected[result.epoch] = result.result.histogram;
    }
  }
  ASSERT_EQ(expected.size(), static_cast<size_t>(kWaves));

  FrontendConfig config = base;
  config.spool_dir = concurrent_dir.path;
  NetworkRig rig(config, /*workers=*/2, /*ring=*/64);
  rig.Start();

  uint64_t delivered = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    const auto& sealed = waves[wave];
    delivered += sealed.size();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&rig, &sealed, seed, wave, c] {
        Rng rng(seed ^ (0x9E3779B97F4A7C15ull * static_cast<uint64_t>(
                                                    wave * kClients + c + 1)));
        // Session ids are per client *instance*: a fresh FrameClient starts
        // its sequence numbers at 0, so reusing an id would collide with
        // the registry's memory of the previous instance and get this
        // wave's reports wrongly suppressed as duplicates.
        FrameClient client(FrameClientConfig{
            /*session_id=*/static_cast<uint64_t>(wave * kClients + c + 1)});
        int attempts = 0;
        auto ensure_connected = [&] {
          while (!client.connected()) {
            auto stream = rig.Dial();
            ASSERT_TRUE(stream.ok()) << stream.error().message;
            attempts++;
            if (attempts <= 5) {
              // A seeded kill budget: the connection dies somewhere in the
              // next few KB — possibly mid-frame, possibly between frames,
              // possibly during the reconnect replay itself.
              size_t budget = 200 + static_cast<size_t>(rng.NextBelow(4000));
              (void)client.Connect(std::make_unique<KillSwitchStream>(
                  std::move(stream).value(), budget));  // kill mid-handshake is fine
            } else {
              // Guarantee forward progress: after five kills the client
              // gets a healthy socket for the rest of the wave.
              (void)client.Connect(std::move(stream).value());
            }
          }
        };
        // Each client delivers an interleaved quarter of the wave, handing
        // every report to SendReport exactly once (failed sends stay owned
        // and are replayed by the next Connect).
        for (size_t i = static_cast<size_t>(c); i < sealed.size(); i += kClients) {
          ensure_connected();
          (void)client.SendReport(sealed[i]);  // failed sends replay on Connect
        }
        auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (!client.WaitForAcks(std::chrono::milliseconds(200))) {
          ASSERT_LT(std::chrono::steady_clock::now(), deadline)
              << "client " << c << " never converged; outstanding="
              << client.outstanding();
          ensure_connected();
        }
        client.Close();
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    // Every report of the wave is acked == durably spooled; fix the epoch
    // membership at this quiescent point.  The seal event wakes the drain,
    // which overlaps the next wave's delivery.
    ASSERT_TRUE(rig.pool.Flush().ok());
    ASSERT_TRUE(rig.frontend.CutEpoch().ok());
  }

  ASSERT_TRUE(rig.drainer->WaitForDrainedEpochs(kWaves, std::chrono::milliseconds(60000)))
      << "drain_calls=" << rig.drainer->stats().drain_calls
      << " epochs_drained=" << rig.drainer->stats().epochs_drained
      << " drain_failures=" << rig.drainer->stats().drain_failures
      << " last_drain_error=" << rig.drainer->stats().last_drain_error
      << " reports_accepted=" << rig.frontend.stats().reports_accepted.load()
      << " epoch=" << rig.frontend.current_epoch()
      << " epoch_size=" << rig.frontend.current_epoch_size()
      << " seal_failures=" << rig.frontend.ingest_stats().seal_failures
      << " epochs_sealed=" << rig.frontend.ingest_stats().epochs_sealed;
  ASSERT_TRUE(rig.server.Shutdown().ok());
  rig.drainer->Stop();
  std::vector<EpochResult> results = rig.drainer->TakeResults();
  rig.pool.Stop();

  EXPECT_EQ(rig.pool.stats().accept_failures, 0u);
  EXPECT_EQ(rig.drainer->stats().drain_failures, 0u);

  // Zero lost, zero duplicated: the drained report count equals the sealed
  // cohort exactly, and the ack books balance to the frame.
  ASSERT_EQ(results.size(), static_cast<size_t>(kWaves));
  uint64_t drained_reports = 0;
  for (const auto& result : results) {
    SCOPED_TRACE("epoch=" + std::to_string(result.epoch));
    auto it = expected.find(result.epoch);
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(result.result.histogram, it->second);  // bit-identical
    drained_reports += result.reports;
  }
  EXPECT_EQ(drained_reports, delivered);
  ExpectAckBooksBalance(rig, delivered);
}

}  // namespace
}  // namespace prochlo
