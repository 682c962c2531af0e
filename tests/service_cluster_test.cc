// The shard-group cluster: consistent-hash routing, redirect NACKs, the
// epoch barrier, and the merged histogram's bit-identity with the serial
// single-frontend pipeline — for every group count, under concurrent
// clients, seeded connection kills, stale maps, and a mid-epoch group
// crash with failover.
//
// The kill schedule is seeded: set PROCHLO_CLUSTER_SEED to reproduce a
// failing schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/pipeline.h"
#include "src/service/cluster/coordinator.h"
#include "src/service/cluster/group_map.h"
#include "src/service/cluster/merge.h"
#include "src/service/cluster/router.h"
#include "src/service/cluster/shard_group.h"
#include "src/service/connection.h"
#include "src/service/frontend.h"
#include "src/service/fs.h"
#include "src/util/rng.h"
#include "tests/support/fault_fs.h"
#include "tests/support/ingest.h"

namespace prochlo {
namespace {

namespace fs = std::filesystem;

uint64_t SeedFromEnv() {
  if (const char* env = std::getenv("PROCHLO_CLUSTER_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 0x434c5553;  // "CLUS"
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

// Same transport saboteur as the network suite: the connection dies after a
// byte budget, possibly mid-frame.
class KillSwitchStream : public ByteStream {
 public:
  static constexpr size_t kUnlimited = static_cast<size_t>(-1);

  KillSwitchStream(std::unique_ptr<ByteStream> inner, size_t write_budget)
      : inner_(std::move(inner)), budget_(write_budget) {}

  Result<size_t> Read(std::span<uint8_t> out) override { return inner_->Read(out); }

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
    }
  }

  std::unique_ptr<ByteStream> inner_;
  std::mutex mu_;
  size_t budget_;
  bool aborted_ = false;
};

FrontendConfig ClusterBaseConfig() {
  FrontendConfig config;
  config.pipeline.shuffler.threshold_mode = ThresholdMode::kNaive;
  config.pipeline.shuffler.policy = ThresholdPolicy{20, 10, 2};
  config.pipeline.num_threads = 0;
  config.pipeline.seed = "cluster-e2e";
  config.ingest.num_shards = 4;
  return config;
}

// A group spools on `fault_fs` (or base.fs) when given, else on its
// frontend's own MemFs.
std::unique_ptr<ShardGroup> MakeGroup(uint64_t group_id, const FrontendConfig& base,
                                      Fs* fault_fs = nullptr) {
  ShardGroupConfig config;
  config.group_id = group_id;
  config.frontend = base;
  if (fault_fs != nullptr) {
    config.frontend.fs = fault_fs;
  }
  config.workers.workers = 2;
  config.workers.ring_capacity = 64;
  return std::make_unique<ShardGroup>(config);
}

ClusterClient::Dialer LoopbackDialer(const std::vector<ShardGroup*>& groups) {
  return [groups](uint64_t group_id) -> Result<std::unique_ptr<ByteStream>> {
    for (ShardGroup* group : groups) {
      if (group->group_id() == group_id) {
        return group->Connect();
      }
    }
    return Error{"dialer: unknown group " + std::to_string(group_id)};
  };
}

Bytes SyntheticReport(uint64_t client, uint64_t index) {
  Bytes report(48, static_cast<uint8_t>(0xB0 + client));
  for (int b = 0; b < 8; ++b) {
    report[8 + b] = static_cast<uint8_t>(index >> (8 * b));
  }
  return report;
}

std::vector<std::pair<std::string, std::string>> WaveInputs(int wave) {
  std::vector<std::pair<std::string, std::string>> inputs;
  auto add = [&](const std::string& value, int count) {
    for (int i = 0; i < count; ++i) {
      inputs.emplace_back(value, value);
    }
  };
  add("wave" + std::to_string(wave) + "-common", 70);
  add("wave" + std::to_string(wave) + "-mid", 40);
  // 30 > T=20 globally, but scattered across groups each local share is
  // under the threshold: only the global merge can keep it alive.
  add("shared-heavy", 30);
  add("wave" + std::to_string(wave) + "-rare", 4);  // below T=20: must vanish
  return inputs;
}

// Serial reference: the same waves through one frontend, one epoch per
// wave.  Every cluster topology must reproduce these histograms exactly.
std::map<uint64_t, std::map<std::string, uint64_t>> SerialBaseline(
    const FrontendConfig& base, const std::vector<std::vector<Bytes>>& waves) {
  ShufflerFrontend serial(base);
  EXPECT_TRUE(serial.Start().ok());
  for (uint64_t wave = 0; wave < waves.size(); ++wave) {
    EXPECT_TRUE(IngestReports(serial, waves[wave], {wave + 1, 0}).ok());
    EXPECT_TRUE(serial.CutEpoch().ok());
  }
  auto drained = serial.DrainSealedEpochs();
  EXPECT_TRUE(drained.ok());
  std::map<uint64_t, std::map<std::string, uint64_t>> expected;
  for (const auto& result : drained.results) {
    expected[result.epoch] = result.result.histogram;
  }
  return expected;
}

// The serial drain of one epoch: the same reports through one
// frontend.
PipelineResult SerialEpoch(const FrontendConfig& base, const std::vector<Bytes>& reports) {
  FrontendConfig config = base;
  config.spool_dir.clear();
  ShufflerFrontend serial(config);
  EXPECT_TRUE(serial.Start().ok());
  EXPECT_TRUE(IngestReports(serial, reports).ok());
  EXPECT_TRUE(serial.CutEpoch().ok());
  auto drained = serial.DrainSealedEpochs();
  EXPECT_TRUE(drained.ok());
  if (drained.results.size() != 1) {
    ADD_FAILURE() << "serial drain produced " << drained.results.size() << " epochs";
    return {};
  }
  return std::move(drained.results[0].result);
}

// A cluster without the network: each report goes straight to the frontend
// of the group that owns it under the map a Router would publish, then one
// cluster-wide cut seals epoch 0 everywhere.
struct DirectCluster {
  explicit DirectCluster(const std::vector<FrontendConfig>& configs) {
    std::vector<uint64_t> ids;
    for (size_t g = 0; g < configs.size(); ++g) {
      owned.push_back(MakeGroup(g + 1, configs[g]));
      groups.push_back(owned.back().get());
      EXPECT_TRUE(groups.back()->Start().ok());
      ids.push_back(g + 1);
    }
    map = GroupMap(1, ids);
    coordinator = std::make_unique<EpochCoordinator>(groups);
    coordinator->Start();
  }
  ~DirectCluster() {
    coordinator->Stop();
    for (ShardGroup* group : groups) {
      EXPECT_TRUE(group->Stop().ok());
    }
  }

  Result<ClusterEpochResult> IngestAndMergeEpoch0(const PipelineConfig& pipeline,
                                                  const std::vector<Bytes>& reports) {
    std::vector<std::vector<Bytes>> owned_reports(groups.size());
    for (const auto& report : reports) {
      owned_reports[map.OwnerOfReport(report) - 1].push_back(report);
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      EXPECT_TRUE(IngestReports(groups[g]->frontend(), owned_reports[g]).ok());
    }
    EXPECT_TRUE(coordinator->CutEpochAll().ok());
    HistogramMerge merge(pipeline);
    return coordinator->MergeEpoch(0, merge, std::chrono::milliseconds(60000));
  }

  std::vector<std::unique_ptr<ShardGroup>> owned;
  std::vector<ShardGroup*> groups;
  GroupMap map;
  std::unique_ptr<EpochCoordinator> coordinator;
};

void ExpectSameStats(const PipelineResult& merged, const PipelineResult& serial) {
  const ShufflerStats& m = merged.shuffler_stats;
  const ShufflerStats& s = serial.shuffler_stats;
  EXPECT_EQ(m.received, s.received);
  EXPECT_EQ(m.malformed, s.malformed);
  EXPECT_EQ(m.dropped_noise, s.dropped_noise);
  EXPECT_EQ(m.dropped_threshold, s.dropped_threshold);
  EXPECT_EQ(m.forwarded, s.forwarded);
  EXPECT_EQ(m.crowds_seen, s.crowds_seen);
  EXPECT_EQ(m.crowds_forwarded, s.crowds_forwarded);
  EXPECT_EQ(merged.analyzer_stats.received, serial.analyzer_stats.received);
  EXPECT_EQ(merged.analyzer_stats.undecryptable, serial.analyzer_stats.undecryptable);
}

// Cross-layer balance: the clients followed every redirect the groups sent,
// and each report was acked by exactly one group.
void ExpectClusterBooksBalance(const std::vector<ShardGroup*>& groups,
                               const std::vector<ClusterClientStats>& client_stats,
                               const std::vector<FrameClientStats>& folded_stats,
                               uint64_t total_reports) {
  uint64_t accepted = 0;
  uint64_t acked = 0;
  uint64_t redirects_sent = 0;
  for (ShardGroup* group : groups) {
    const FrontendStats& stats = group->frontend().stats();
    accepted += stats.reports_accepted.load();
    redirects_sent += stats.redirects_sent.load();
    acked += group->server().ack_book().acked;
  }
  EXPECT_EQ(accepted, total_reports);  // zero lost, zero duplicated
  EXPECT_EQ(acked, total_reports);
  uint64_t routed_by_clients = 0;
  uint64_t redirects_followed = 0;
  uint64_t client_acked = 0;
  uint64_t client_redirected = 0;
  for (const auto& stats : client_stats) {
    routed_by_clients += stats.routed;
    redirects_followed += stats.redirects_followed;
    EXPECT_EQ(stats.redirect_failures, 0u);
  }
  for (const auto& stats : folded_stats) {
    client_acked += stats.acked;
    client_redirected += stats.redirected;
  }
  EXPECT_EQ(routed_by_clients, total_reports);
  EXPECT_EQ(redirects_followed, redirects_sent);
  EXPECT_EQ(client_redirected, redirects_sent);
  EXPECT_EQ(client_acked, total_reports);
}

// ---------------------------------------------------------------- group map

TEST(ServiceClusterTest, GroupMapSerializesAndRoutesDeterministically) {
  GroupMap map(7, {11, 22, 33}, /*vnodes_per_group=*/32);
  Bytes payload = map.Serialize();
  auto parsed = GroupMap::Deserialize(payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version(), 7u);
  EXPECT_EQ(parsed->group_ids(), map.group_ids());
  EXPECT_EQ(parsed->vnodes_per_group(), 32u);
  Rng rng(0x4d415030);
  for (int i = 0; i < 500; ++i) {
    uint64_t key = rng.Next();
    EXPECT_EQ(map.OwnerOfKey(key), parsed->OwnerOfKey(key));
  }
  // Report routing is a pure function of the sealed bytes.
  Bytes report = SyntheticReport(1, 2);
  EXPECT_EQ(map.OwnerOfReport(report), map.OwnerOfReport(report));

  // Defective payloads are rejected, never misparsed.
  EXPECT_FALSE(GroupMap::Deserialize(ByteSpan()).has_value());
  for (size_t keep = 0; keep < payload.size(); ++keep) {
    EXPECT_FALSE(GroupMap::Deserialize(ByteSpan(payload.data(), keep)).has_value())
        << "truncation to " << keep;
  }
}

TEST(ServiceClusterTest, MembershipChangeRemapsOnlyDepartedArcs) {
  // Consistent hashing's contract: removing a group moves only the keys it
  // owned; adding a group steals keys only for itself.
  GroupMap full(1, {1, 2, 3, 4});
  GroupMap without_three(2, {1, 2, 4});
  GroupMap with_five(3, {1, 2, 3, 4, 5});
  Rng rng(0x52454d41);
  size_t moved_to_five = 0;
  for (int i = 0; i < 4000; ++i) {
    uint64_t key = rng.Next();
    uint64_t owner = full.OwnerOfKey(key);
    if (owner != 3) {
      EXPECT_EQ(without_three.OwnerOfKey(key), owner) << "key " << key;
    }
    uint64_t grown = with_five.OwnerOfKey(key);
    EXPECT_TRUE(grown == owner || grown == 5) << "key " << key;
    moved_to_five += grown == 5 ? 1 : 0;
  }
  EXPECT_GT(moved_to_five, 0u);  // the new group actually owns arcs
}

// ----------------------------------------------------- redirects + adoption

TEST(ServiceClusterTest, StaleClientMapIsRedirectedAndBooksBalanceExactly) {
  FrontendConfig base = ClusterBaseConfig();
  auto g1 = MakeGroup(1, base);
  auto g2 = MakeGroup(2, base);
  std::vector<ShardGroup*> groups{g1.get(), g2.get()};
  ASSERT_TRUE(g1->Start().ok());
  ASSERT_TRUE(g2->Start().ok());
  Router router(groups);
  router.Start();  // publishes version 1, 64 vnodes per group

  // A deliberately wrong map: different ring geometry (1 vnode per group)
  // so ownership disagrees for a good fraction of keys, and a version far
  // ahead of the router's so kGroupMap announcements are never adopted and
  // the staleness persists for the whole test.
  GroupMap stale(99, {1, 2}, /*vnodes_per_group=*/1);
  ClusterClient client(stale, LoopbackDialer(groups));
  ASSERT_TRUE(client.Connect().ok());

  constexpr uint64_t kReports = 120;
  for (uint64_t i = 0; i < kReports; ++i) {
    ASSERT_TRUE(client.SendReport(SyntheticReport(3, i)).ok());
  }
  ASSERT_TRUE(client.WaitForAllAcked(std::chrono::milliseconds(30000)));
  client.Close();
  ASSERT_TRUE(g1->server().Shutdown().ok());
  ASSERT_TRUE(g2->server().Shutdown().ok());

  // The geometries must actually disagree somewhere, or this test pins
  // nothing.
  ASSERT_GT(client.stats().redirects_followed, 0u);
  EXPECT_EQ(client.stats().group_maps_adopted, 0u);
  ExpectClusterBooksBalance(groups, {client.stats()}, {client.FoldedClientStats()},
                            kReports);
  uint64_t routed = g1->frontend().stats().routed.load() +
                    g2->frontend().stats().routed.load();
  EXPECT_EQ(routed, kReports);  // each report accepted as owned exactly once
  ASSERT_TRUE(g1->Stop().ok());
  ASSERT_TRUE(g2->Stop().ok());
}

TEST(ServiceClusterTest, GroupMapAnnouncementIsAdoptedOnConnect) {
  FrontendConfig base = ClusterBaseConfig();
  auto g1 = MakeGroup(1, base);
  auto g2 = MakeGroup(2, base);
  std::vector<ShardGroup*> groups{g1.get(), g2.get()};
  ASSERT_TRUE(g1->Start().ok());
  ASSERT_TRUE(g2->Start().ok());
  Router router(groups);
  router.Start();
  ASSERT_TRUE(router.PublishMap({1, 2}).ok());  // version 2, same ownership
  ASSERT_EQ(router.CurrentMap().version(), 2u);

  // The client starts one version behind; the HELLO-time announcement must
  // bring it current (exactly once — the second connection's announcement
  // is no longer newer).
  ClusterClient client(GroupMap(1, {1, 2}), LoopbackDialer(groups));
  ASSERT_TRUE(client.Connect().ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (client.stats().group_maps_adopted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(client.stats().group_maps_adopted, 1u);

  for (uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.SendReport(SyntheticReport(4, i)).ok());
  }
  ASSERT_TRUE(client.WaitForAllAcked(std::chrono::milliseconds(30000)));
  client.Close();
  // Identical geometry: the adopted map changes nothing about ownership,
  // so no redirect was ever needed.
  EXPECT_EQ(client.stats().redirects_followed, 0u);
  EXPECT_GE(client.FoldedClientStats().group_maps_received, 2u);
  ASSERT_TRUE(g1->Stop().ok());
  ASSERT_TRUE(g2->Stop().ok());
}

// ------------------------------------------------ bit-identity across scale

// The acceptance scenario: for every group count, concurrent cluster
// clients deliver the same waves, and the coordinator-merged per-epoch
// histograms are bit-identical to the serial single-frontend run.
TEST(ServiceClusterTest, MergedHistogramsMatchSerialForEveryGroupCount) {
  FrontendConfig base = ClusterBaseConfig();

  // Seal every wave once; every topology (and the serial baseline) ingests
  // the same sealed bytes.
  std::vector<std::vector<Bytes>> waves;
  {
    ShufflerFrontend key_holder(base);
    const Encoder encoder = key_holder.MakeEncoder();
    SecureRandom client_rng(ToBytes("cluster-e2e-clients"));
    for (int wave = 0; wave < 2; ++wave) {
      auto batch = encoder.BatchSealReports(WaveInputs(wave), client_rng);
      ASSERT_TRUE(batch.ok());
      waves.push_back(std::move(batch).value());
    }
  }
  const auto expected = SerialBaseline(base, waves);
  ASSERT_EQ(expected.size(), waves.size());

  for (size_t num_groups : {1u, 2u, 4u}) {
    SCOPED_TRACE("groups=" + std::to_string(num_groups));
    std::vector<std::unique_ptr<ShardGroup>> owned;
    std::vector<ShardGroup*> groups;
    for (size_t g = 0; g < num_groups; ++g) {
      owned.push_back(MakeGroup(g + 1, base));
      groups.push_back(owned.back().get());
      ASSERT_TRUE(groups.back()->Start().ok());
    }
    Router router(groups);
    router.Start();
    EpochCoordinator coordinator(groups);
    coordinator.Start();
    HistogramMerge merge(base.pipeline);

    constexpr int kClients = 3;
    uint64_t delivered = 0;
    std::vector<ClusterClientStats> client_stats;
    std::vector<FrameClientStats> folded_stats;
    for (size_t wave = 0; wave < waves.size(); ++wave) {
      const auto& sealed = waves[wave];
      delivered += sealed.size();
      std::vector<std::thread> threads;
      std::mutex stats_mu;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          ClusterClientConfig config;
          // Bases spaced past the group count so no two FrameClients in
          // this test ever share a (group, session) pair.
          config.session_id_base = 1 + (wave * kClients + static_cast<size_t>(c)) * 16;
          ClusterClient client(router.CurrentMap(), LoopbackDialer(groups), config);
          ASSERT_TRUE(client.Connect().ok());
          for (size_t i = static_cast<size_t>(c); i < sealed.size(); i += kClients) {
            ASSERT_TRUE(client.SendReport(sealed[i]).ok());
          }
          ASSERT_TRUE(client.WaitForAllAcked(std::chrono::milliseconds(60000)))
              << "outstanding=" << client.outstanding_total();
          client.Close();
          std::lock_guard<std::mutex> lock(stats_mu);
          client_stats.push_back(client.stats());
          folded_stats.push_back(client.FoldedClientStats());
        });
      }
      for (auto& thread : threads) {
        thread.join();
      }
      ASSERT_TRUE(coordinator.CutEpochAll().ok());
    }

    uint64_t merged_reports = 0;
    for (const auto& [epoch, histogram] : expected) {
      SCOPED_TRACE("epoch=" + std::to_string(epoch));
      auto merged = coordinator.MergeEpoch(epoch, merge, std::chrono::milliseconds(60000));
      ASSERT_TRUE(merged.ok()) << merged.error().message;
      EXPECT_TRUE(merged.value().complete());
      EXPECT_EQ(merged.value().groups_merged, num_groups);
      EXPECT_EQ(merged.value().merged.result.histogram, histogram);  // bit-identical
      merged_reports += merged.value().merged.reports;
    }
    EXPECT_EQ(merged_reports, delivered);
    EXPECT_EQ(coordinator.merge_stats().merge_shortfalls.load(), 0u);

    for (ShardGroup* group : groups) {
      ASSERT_TRUE(group->server().Shutdown().ok());
    }
    ExpectClusterBooksBalance(groups, client_stats, folded_stats, delivered);
    coordinator.Stop();
    for (ShardGroup* group : groups) {
      ASSERT_TRUE(group->Stop().ok());
    }
  }
}

// ------------------------------------------------- seeded kills, redirects

TEST(ServiceClusterTest, SeededConnectionKillsStillConvergeToSerialHistograms) {
  const uint64_t seed = SeedFromEnv();
  SCOPED_TRACE("PROCHLO_CLUSTER_SEED=" + std::to_string(seed));
  FrontendConfig base = ClusterBaseConfig();

  std::vector<std::vector<Bytes>> waves;
  {
    ShufflerFrontend key_holder(base);
    const Encoder encoder = key_holder.MakeEncoder();
    SecureRandom client_rng(ToBytes("cluster-kill-clients"));
    auto batch = encoder.BatchSealReports(WaveInputs(0), client_rng);
    ASSERT_TRUE(batch.ok());
    waves.push_back(std::move(batch).value());
  }
  const auto expected = SerialBaseline(base, waves);

  std::vector<std::unique_ptr<ShardGroup>> owned;
  std::vector<ShardGroup*> groups;
  for (uint64_t g = 1; g <= 4; ++g) {
    owned.push_back(MakeGroup(g, base));
    groups.push_back(owned.back().get());
    ASSERT_TRUE(groups.back()->Start().ok());
  }
  Router router(groups);
  router.Start();
  EpochCoordinator coordinator(groups);
  coordinator.Start();
  HistogramMerge merge(base.pipeline);

  const auto& sealed = waves[0];
  constexpr int kClients = 3;
  std::vector<std::thread> threads;
  std::vector<ClusterClientStats> client_stats;
  std::vector<FrameClientStats> folded_stats;
  std::mutex stats_mu;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      // Each client's dialer kills its first few connections per group at a
      // seeded byte budget; after that, healthy sockets guarantee progress.
      auto rng = std::make_shared<Rng>(seed ^ (0x9E3779B97F4A7C15ull *
                                               static_cast<uint64_t>(c + 1)));
      auto kills_left = std::make_shared<std::atomic<int>>(6);
      auto inner = LoopbackDialer(groups);
      ClusterClient::Dialer dialer =
          [rng, kills_left, inner](uint64_t gid) -> Result<std::unique_ptr<ByteStream>> {
        auto stream = inner(gid);
        if (!stream.ok()) {
          return stream;
        }
        if (kills_left->fetch_sub(1) > 0) {
          size_t budget = 200 + static_cast<size_t>(rng->NextBelow(3000));
          return std::unique_ptr<ByteStream>(std::make_unique<KillSwitchStream>(
              std::move(stream).value(), budget));
        }
        return stream;
      };
      ClusterClientConfig config;
      config.session_id_base = 1 + static_cast<uint64_t>(c) * 16;
      config.nack_retry_jitter_seed = seed + static_cast<uint64_t>(c);
      ClusterClient client(router.CurrentMap(), dialer, config);
      ASSERT_TRUE(client.Connect().ok());
      // Failed sends stay owned by the per-group client; Reconnect replays.
      for (size_t i = static_cast<size_t>(c); i < sealed.size(); i += kClients) {
        (void)client.SendReport(sealed[i]);  // failed sends replay on Reconnect
      }
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (!client.WaitForAllAcked(std::chrono::milliseconds(200))) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "outstanding=" << client.outstanding_total();
        // A reconnect may itself be killed mid-replay (the budget applies to
        // the new stream too); the reports stay owned and the next loop
        // iteration tries again.
        (void)client.Reconnect();  // may be killed mid-replay; loop retries
      }
      client.Close();
      std::lock_guard<std::mutex> lock(stats_mu);
      client_stats.push_back(client.stats());
      folded_stats.push_back(client.FoldedClientStats());
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_TRUE(coordinator.CutEpochAll().ok());

  uint64_t merged_reports = 0;
  for (const auto& [epoch, histogram] : expected) {
    auto merged = coordinator.MergeEpoch(epoch, merge, std::chrono::milliseconds(60000));
    ASSERT_TRUE(merged.ok()) << merged.error().message;
    EXPECT_TRUE(merged.value().complete());
    EXPECT_EQ(merged.value().merged.result.histogram, histogram);
    merged_reports += merged.value().merged.reports;
  }
  EXPECT_EQ(merged_reports, sealed.size());

  for (ShardGroup* group : groups) {
    ASSERT_TRUE(group->server().Shutdown().ok());
  }
  ExpectClusterBooksBalance(groups, client_stats, folded_stats, sealed.size());
  coordinator.Stop();
  for (ShardGroup* group : groups) {
    ASSERT_TRUE(group->Stop().ok());
  }
}

// --------------------------------------------- mid-epoch crash + failover

TEST(ServiceClusterTest, GroupCrashMidEpochFailsOverByRedirectWithoutLossOrDuplication) {
  FrontendConfig base = ClusterBaseConfig();
  std::vector<std::vector<Bytes>> waves;
  {
    ShufflerFrontend key_holder(base);
    const Encoder encoder = key_holder.MakeEncoder();
    SecureRandom client_rng(ToBytes("cluster-crash-clients"));
    auto batch = encoder.BatchSealReports(WaveInputs(0), client_rng);
    ASSERT_TRUE(batch.ok());
    waves.push_back(std::move(batch).value());
  }
  const auto expected = SerialBaseline(base, waves);
  const auto& sealed = waves[0];

  // Group 3's disk: once wedged, every write-side syscall fails, as if the
  // group's volume went away.  Reports it had already durably spooled stay
  // on disk; reports in flight fail ingestion and are NACKed, never
  // half-written.
  FaultFs wedge;
  auto g1 = MakeGroup(1, base);
  auto g2 = MakeGroup(2, base);
  auto g3 = MakeGroup(3, base, &wedge);
  std::vector<ShardGroup*> groups{g1.get(), g2.get(), g3.get()};
  for (ShardGroup* group : groups) {
    ASSERT_TRUE(group->Start().ok());
  }
  Router router(groups);
  router.Start();
  EpochCoordinator coordinator(groups);
  coordinator.Start();
  HistogramMerge merge(base.pipeline);

  ClusterClientConfig config;
  config.nack_retry_delay = std::chrono::milliseconds(1);
  config.nack_retry_max_delay = std::chrono::milliseconds(8);
  ClusterClient client(router.CurrentMap(), LoopbackDialer(groups), config);
  ASSERT_TRUE(client.Connect().ok());

  // First half lands while every group is healthy; group 3 durably spools
  // its share.
  const size_t half = sealed.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(client.SendReport(sealed[i]).ok());
  }
  ASSERT_TRUE(client.WaitForAllAcked(std::chrono::milliseconds(30000)));
  const uint64_t spooled_at_three = g3->frontend().stats().reports_accepted.load();

  // Mid-epoch, group 3's disk dies.  Its share of the second half fails
  // ingestion and NACK-retries; nothing is half-acked.
  wedge.Wedge();
  for (size_t i = half; i < sealed.size(); ++i) {
    ASSERT_TRUE(client.SendReport(sealed[i]).ok());
  }
  // Failover: hand group 3's arcs to the survivors.  The retried reports
  // now claim kNew at group 3, fail its route check, and are redirected to
  // their new owners — exactly-once end to end, because only durable
  // ingests were ever acked.
  ASSERT_TRUE(router.PublishMap({1, 2}).ok());
  ASSERT_TRUE(client.WaitForAllAcked(std::chrono::milliseconds(60000)))
      << "outstanding=" << client.outstanding_total();
  client.Close();

  // Heal the disk (the epoch's pre-crash spool is intact on it) and merge
  // across all three groups: group 3 still contributes what it durably
  // ingested before the crash.
  wedge.Heal();
  ASSERT_TRUE(coordinator.CutEpochAll().ok());
  uint64_t merged_reports = 0;
  for (const auto& [epoch, histogram] : expected) {
    auto merged = coordinator.MergeEpoch(epoch, merge, std::chrono::milliseconds(60000));
    ASSERT_TRUE(merged.ok()) << merged.error().message;
    EXPECT_TRUE(merged.value().complete());
    EXPECT_EQ(merged.value().merged.result.histogram, histogram);  // bit-identical
    merged_reports += merged.value().merged.reports;
  }
  EXPECT_EQ(merged_reports, sealed.size());  // zero lost, zero duplicated

  for (ShardGroup* group : groups) {
    ASSERT_TRUE(group->server().Shutdown().ok());
  }
  EXPECT_GT(client.stats().redirects_followed, 0u);
  EXPECT_EQ(g3->frontend().stats().reports_accepted.load(), spooled_at_three);
  ExpectClusterBooksBalance(groups, {client.stats()}, {client.FoldedClientStats()},
                            sealed.size());
  coordinator.Stop();
  for (ShardGroup* group : groups) {
    ASSERT_TRUE(group->Stop().ok());
  }
}

// ------------------------------------- ciphertext partials, one threshold

// Crowd ID != value, several values per crowd: under kRandomized, which
// members a noise drop removes changes the histogram, so the merge must
// reproduce the serial drain's member order, not just its crowd counts.
TEST(ServiceClusterTest, MixedValueCrowdsMergeBitIdenticalUnderEveryThresholdMode) {
  std::vector<std::pair<std::string, std::string>> inputs;
  for (int crowd = 0; crowd < 6; ++crowd) {
    for (int i = 0; i < 26 + 4 * crowd; ++i) {
      inputs.emplace_back("crowd-" + std::to_string(crowd),
                          "value-" + std::to_string(crowd) + "-" + std::to_string(i % 3));
    }
  }
  for (int i = 0; i < 5; ++i) {
    inputs.emplace_back("crowd-rare", "value-rare");
  }
  FrontendConfig key_config = ClusterBaseConfig();
  std::vector<Bytes> sealed;
  {
    ShufflerFrontend key_holder(key_config);
    SecureRandom client_rng(ToBytes("cluster-mixed-clients"));
    auto batch = key_holder.MakeEncoder().BatchSealReports(inputs, client_rng);
    ASSERT_TRUE(batch.ok());
    sealed = std::move(batch).value();
  }

  for (ThresholdMode mode :
       {ThresholdMode::kNone, ThresholdMode::kNaive, ThresholdMode::kRandomized}) {
    SCOPED_TRACE("threshold mode " + std::to_string(static_cast<int>(mode)));
    FrontendConfig base = key_config;
    base.pipeline.shuffler.threshold_mode = mode;
    const PipelineResult serial = SerialEpoch(base, sealed);
    if (mode == ThresholdMode::kRandomized) {
      ASSERT_GT(serial.shuffler_stats.dropped_noise, 0u);  // drops actually happened
    }
    for (size_t num_groups : {1u, 2u, 4u}) {
      SCOPED_TRACE("groups=" + std::to_string(num_groups));
      DirectCluster cluster(std::vector<FrontendConfig>(num_groups, base));
      auto merged = cluster.IngestAndMergeEpoch0(base.pipeline, sealed);
      ASSERT_TRUE(merged.ok()) << merged.error().message;
      EXPECT_TRUE(merged.value().complete());
      EXPECT_EQ(merged.value().merged.result.histogram, serial.histogram);  // bit-identical
      ExpectSameStats(merged.value().merged.result, serial);
    }
  }
}

// The analyzer stage sees exactly the threshold's survivors.  Reports sealed
// to a foreign analyzer key still count toward their crowd's cardinality
// (thresholding happens before any decryption), and are undecryptable at
// the analyzer only when their crowd survives.
TEST(ServiceClusterTest, MergeDecryptsExactlyTheSurvivors) {
  FrontendConfig base = ClusterBaseConfig();  // kNaive, T = 20
  std::vector<Bytes> sealed;
  std::vector<Bytes> foreign_survivors;  // foreign-key reports in surviving crowds
  {
    ShufflerFrontend key_holder(base);
    const Encoder encoder = key_holder.MakeEncoder();
    EncoderConfig foreign_config = encoder.config();
    SecureRandom key_rng(ToBytes("cluster-foreign-analyzer"));
    foreign_config.analyzer_public = KeyPair::Generate(key_rng).public_key;
    const Encoder foreign(foreign_config);
    SecureRandom rng(ToBytes("cluster-survivor-clients"));
    // (crowd, good reports, foreign-key reports)
    const std::vector<std::tuple<std::string, int, int>> crowds = {
        {"survives-with-foreign", 15, 10},  // 25 >= T
        {"lifted-by-foreign", 12, 8},       // 20 >= T only with the foreign 8
        {"dies-with-foreign", 6, 6},        // 12 < T: none reaches the analyzer
        {"plain", 30, 0},
    };
    for (const auto& [crowd, good, bad] : crowds) {
      for (int i = 0; i < good + bad; ++i) {
        const Encoder& sealer = i < good ? encoder : foreign;
        auto report = sealer.EncodeValue(crowd + "-value", crowd, rng);
        ASSERT_TRUE(report.ok());
        if (i >= good && crowd != "dies-with-foreign") {
          foreign_survivors.push_back(report.value());
        }
        sealed.push_back(std::move(report).value());
      }
    }
  }
  const PipelineResult serial = SerialEpoch(base, sealed);
  EXPECT_EQ(serial.analyzer_stats.received, 75u);
  EXPECT_EQ(serial.analyzer_stats.undecryptable, 18u);
  const std::map<std::string, uint64_t> expected = {
      {"survives-with-foreign-value", 15}, {"lifted-by-foreign-value", 12}, {"plain-value", 30}};
  EXPECT_EQ(serial.histogram, expected);

  for (size_t num_groups : {1u, 2u, 4u}) {
    SCOPED_TRACE("groups=" + std::to_string(num_groups));
    DirectCluster cluster(std::vector<FrontendConfig>(num_groups, base));
    if (num_groups > 1) {
      // The foreign-key reports are split across groups, so no group alone
      // could have decided their crowds.
      std::set<uint64_t> owners;
      for (const auto& report : foreign_survivors) {
        owners.insert(cluster.map.OwnerOfReport(report));
      }
      EXPECT_GT(owners.size(), 1u);
    }
    auto merged = cluster.IngestAndMergeEpoch0(base.pipeline, sealed);
    ASSERT_TRUE(merged.ok()) << merged.error().message;
    const PipelineResult& result = merged.value().merged.result;
    EXPECT_EQ(result.histogram, expected);
    EXPECT_EQ(result.analyzer_stats.received, result.shuffler_stats.forwarded);
    ExpectSameStats(result, serial);
  }
}

// The serial drain is the merge over one partial, so each epoch's result
// carries that epoch's own stats, never the frontend's running totals, and
// they match what HistogramMerge reports for the same epoch.
// The frontend's WAL lives on the real disk with `on_disk`, else on its own
// MemFs.
void RunSerialDrainPerEpochStatsTest(bool on_disk) {
  FrontendConfig base = ClusterBaseConfig();  // kNaive, T = 20
  std::vector<std::vector<Bytes>> waves;
  {
    ShufflerFrontend key_holder(base);
    SecureRandom client_rng(ToBytes("cluster-per-epoch-stats-clients"));
    for (int wave = 0; wave < 2; ++wave) {
      auto batch = key_holder.MakeEncoder().BatchSealReports(WaveInputs(wave), client_rng);
      ASSERT_TRUE(batch.ok());
      waves.push_back(std::move(batch).value());
    }
  }

  ScratchDir dir("cluster-per-epoch-stats");
  FrontendConfig config = base;
  if (on_disk) {
    config.spool_dir = dir.path;
  }
  ShufflerFrontend frontend(config);
  ASSERT_TRUE(frontend.Start().ok());
  for (uint64_t wave = 0; wave < waves.size(); ++wave) {
    ASSERT_TRUE(IngestReports(frontend, waves[wave], {wave + 1, 0}).ok());
    ASSERT_TRUE(frontend.CutEpoch().ok());
  }
  auto drained = frontend.DrainSealedEpochs();
  ASSERT_TRUE(drained.ok()) << drained.failure->error.message;
  ASSERT_EQ(drained.results.size(), 2u);

  Pipeline group_side(base.pipeline);
  HistogramMerge merge(base.pipeline);
  for (uint64_t epoch = 0; epoch < 2; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    const PipelineResult& serial = drained.results[epoch].result;
    const uint64_t reports = waves[epoch].size();
    // Each wave's 4-report rare crowd is below T; every other crowd survives.
    EXPECT_EQ(serial.shuffler_stats.received, reports);
    EXPECT_EQ(serial.shuffler_stats.dropped_threshold, 4u);
    EXPECT_EQ(serial.shuffler_stats.forwarded, reports - 4);
    EXPECT_EQ(serial.analyzer_stats.received, reports - 4);

    VectorRecordStream stream(waves[epoch]);
    auto partial = group_side.RunReportsPartial(stream);
    ASSERT_TRUE(partial.ok()) << partial.error().message;
    std::vector<EpochPartial> partials;
    partials.push_back(std::move(partial).value());
    auto merged = merge.Merge(epoch, partials);
    ASSERT_TRUE(merged.ok()) << merged.error().message;
    EXPECT_EQ(merged.value().histogram, serial.histogram);
    ExpectSameStats(merged.value(), serial);
  }
}

TEST(ServiceClusterTest, SerialDrainStatsArePerEpochMemFs) {
  RunSerialDrainPerEpochStatsTest(/*on_disk=*/false);
}

TEST(ServiceClusterTest, SerialDrainStatsArePerEpochRealFs) {
  RunSerialDrainPerEpochStatsTest(/*on_disk=*/true);
}

// Groups drain concurrently; one group's drain of the epoch fails once.  The
// failed epoch is requeued at that group and the next pass drains it: the
// merge waits for it rather than mistaking the group for one that had an
// empty epoch, and no other group's partial is drained twice or lost.
TEST(ServiceClusterTest, ConcurrentPumpRetriesAFailedGroupDrain) {
  FrontendConfig base = ClusterBaseConfig();
  std::vector<Bytes> sealed;
  {
    ShufflerFrontend key_holder(base);
    SecureRandom client_rng(ToBytes("cluster-pump-clients"));
    auto batch = key_holder.MakeEncoder().BatchSealReports(WaveInputs(0), client_rng);
    ASSERT_TRUE(batch.ok());
    sealed = std::move(batch).value();
  }
  const PipelineResult serial = SerialEpoch(base, sealed);

  // Group 3's first read of its generations fails: its first drain.
  FaultFs fault;
  fault.FailReads([](const std::string& path) { return path.find("/ingest-") != std::string::npos; },
                  /*first=*/1, /*count=*/1);
  std::vector<FrontendConfig> configs(4, base);
  configs[2].fs = &fault;
  DirectCluster cluster(configs);
  auto merged = cluster.IngestAndMergeEpoch0(base.pipeline, sealed);
  ASSERT_GT(cluster.groups[2]->frontend().stats().reports_accepted.load(), 0u);
  ASSERT_TRUE(merged.ok()) << merged.error().message;
  EXPECT_TRUE(merged.value().complete());
  EXPECT_EQ(merged.value().groups_merged, 4u);
  EXPECT_EQ(merged.value().merged.reports, sealed.size());
  EXPECT_EQ(merged.value().merged.result.histogram, serial.histogram);
  ExpectSameStats(merged.value().merged.result, serial);
  // The failure cost exactly one wait for the retry pass, and no shortfall.
  EXPECT_EQ(cluster.coordinator->merge_stats().merge_waits.load(), 1u);
  EXPECT_EQ(cluster.coordinator->merge_stats().merge_shortfalls.load(), 0u);
  EXPECT_EQ(fault.read_faults(), 1u);
  for (ShardGroup* group : cluster.groups) {
    EXPECT_EQ(group->frontend().stats().epochs_drained.load(), 1u)
        << "group " << group->group_id();
  }
}

// ------------------------------------------------------ barrier accounting

TEST(ServiceClusterTest, MergeTimeoutAccountsShortfallPerMissingGroup) {
  FrontendConfig base = ClusterBaseConfig();
  auto g1 = MakeGroup(1, base);
  auto g2 = MakeGroup(2, base);
  std::vector<ShardGroup*> groups{g1.get(), g2.get()};
  ASSERT_TRUE(g1->Start().ok());
  ASSERT_TRUE(g2->Start().ok());
  EpochCoordinator coordinator(groups);
  coordinator.Start();
  HistogramMerge merge(base.pipeline);

  // Only group 1 seals epoch 0; group 2 is still accumulating it (its
  // current epoch has not advanced), so the barrier must wait, then time
  // out with the shortfall accounted — never silently dropped.
  const Encoder encoder = g1->frontend().MakeEncoder();
  SecureRandom rng(ToBytes("shortfall"));
  std::vector<Bytes> reports;
  for (int i = 0; i < 30; ++i) {
    auto report = encoder.EncodeValue("value", "crowd", rng);
    ASSERT_TRUE(report.ok());
    reports.push_back(std::move(report).value());
  }
  ASSERT_TRUE(IngestReports(g1->frontend(), reports).ok());
  ASSERT_TRUE(g1->frontend().CutEpoch().ok());

  // Generous enough that draining group 1's partial (WAL checkpoint fsyncs
  // included) finishes inside the window even on a loaded box, so the
  // barrier demonstrably WAITS for group 2 before timing out.
  auto merged = coordinator.MergeEpoch(0, merge, std::chrono::milliseconds(500));
  ASSERT_TRUE(merged.ok()) << merged.error().message;
  EXPECT_FALSE(merged.value().complete());
  EXPECT_EQ(merged.value().missing_groups, std::vector<uint64_t>{2});
  EXPECT_EQ(merged.value().groups_merged, 1u);
  EXPECT_EQ(merged.value().merged.reports, 30u);
  EXPECT_EQ(coordinator.merge_stats().merge_waits.load(), 1u);
  EXPECT_EQ(coordinator.merge_stats().merge_shortfalls.load(), 1u);
  coordinator.Stop();
  ASSERT_TRUE(g1->Stop().ok());
  ASSERT_TRUE(g2->Stop().ok());
}

TEST(ServiceClusterTest, EmptyEpochMergesAsEmptyContributions) {
  // A cluster-wide cut with zero reports: every group force-seals an empty
  // epoch, and the merge barrier completes with an empty histogram instead
  // of waiting for contributions that will never be non-empty.
  FrontendConfig base = ClusterBaseConfig();
  auto g1 = MakeGroup(1, base);
  auto g2 = MakeGroup(2, base);
  std::vector<ShardGroup*> groups{g1.get(), g2.get()};
  ASSERT_TRUE(g1->Start().ok());
  ASSERT_TRUE(g2->Start().ok());
  EpochCoordinator coordinator(groups);
  coordinator.Start();
  HistogramMerge merge(base.pipeline);

  ASSERT_TRUE(coordinator.CutEpochAll().ok());
  auto merged = coordinator.MergeEpoch(0, merge, std::chrono::milliseconds(10000));
  ASSERT_TRUE(merged.ok()) << merged.error().message;
  EXPECT_TRUE(merged.value().complete());
  EXPECT_EQ(merged.value().merged.reports, 0u);
  EXPECT_TRUE(merged.value().merged.result.histogram.empty());
  EXPECT_EQ(coordinator.merge_stats().merge_shortfalls.load(), 0u);
  coordinator.Stop();
  ASSERT_TRUE(g1->Stop().ok());
  ASSERT_TRUE(g2->Stop().ok());
}

}  // namespace
}  // namespace prochlo
