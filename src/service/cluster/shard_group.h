// One shard group: a complete, privately-spooled ingestion stack — the unit
// the cluster router distributes reports across.
//
//   ShardGroup = ShufflerFrontend (own spool dir: WAL + session snapshot)
//              + IngestWorkerPool (per-shard worker rings)
//              + FrameServer      (ack protocol; group's AckRegistry)
//              + TcpListener      (optional; loopback Connect() otherwise)
//
// Each group owns its durability domain end to end: WAL generations, epoch
// seal markers, and the wal.ckpt session snapshot all live under the
// group's private spool directory, so a group can crash and reopen (a fresh
// ShardGroup over the same directory) without touching its peers.  The
// exactly-once contract is therefore per (group, session): the Router's job
// is to make sure each report only ever talks to one group's registry per
// map version — misroutes are rejected BEFORE ingest, never after.
#ifndef PROCHLO_SRC_SERVICE_CLUSTER_SHARD_GROUP_H_
#define PROCHLO_SRC_SERVICE_CLUSTER_SHARD_GROUP_H_

#include <memory>
#include <string>

#include "src/service/connection.h"
#include "src/service/frontend.h"
#include "src/service/runtime.h"

namespace prochlo {

struct ShardGroupConfig {
  uint64_t group_id = 0;
  // The group's frontend; spool_dir (when set) must be private to this
  // group — e.g. <cluster_root>/group-<id> — or two groups would recover
  // each other's epochs.
  FrontendConfig frontend;
  WorkerPoolConfig workers;
  // Serve real sockets too (loopback Connect() always works).
  bool listen_tcp = false;
  std::string listen_address = "127.0.0.1";
};

class ShardGroup {
 public:
  explicit ShardGroup(ShardGroupConfig config);
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  // Opens (or crash-recovers) the spool and its session snapshot, binds
  // the server's AckRegistry to the recovered sessions, and starts the
  // worker pool and the optional TCP listener.  Install routing hooks
  // (Router::Start) before serving clients.
  Status Start();
  // Stops accepting, drains every served connection and worker ring, and
  // syncs the spool.  Idempotent.  The frontend's sealed epochs remain
  // drainable (the coordinator may still merge them) after Stop.
  Status Stop();

  // Loopback client endpoint (the in-process stand-in for dialing).
  std::unique_ptr<ByteStream> Connect() { return server_.Connect(); }

  uint64_t group_id() const { return config_.group_id; }
  uint16_t port() const { return listener_ != nullptr ? listener_->port() : 0; }

  ShufflerFrontend& frontend() { return frontend_; }
  IngestWorkerPool& pool() { return pool_; }
  FrameServer& server() { return server_; }

 private:
  ShardGroupConfig config_;
  ShufflerFrontend frontend_;
  IngestWorkerPool pool_;
  FrameServer server_;
  std::unique_ptr<TcpListener> listener_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_CLUSTER_SHARD_GROUP_H_
