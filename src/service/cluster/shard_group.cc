#include "src/service/cluster/shard_group.h"

namespace prochlo {

ShardGroup::ShardGroup(ShardGroupConfig config)
    : config_(std::move(config)),
      frontend_(config_.frontend),
      pool_(&frontend_, config_.workers),
      // Reports dispatch through the worker pool and ACK from its
      // completion, i.e. only after the durable WAL group commit.
      server_([this](Bytes report, ReportContext ctx, std::function<void(const Status&)> done) {
        pool_.EnqueueAsync(std::move(report), ctx, std::move(done));
      }) {}

// Destructor teardown has no caller to report to; Stop() errors were already
// counted in the component stats as they happened.
ShardGroup::~ShardGroup() { (void)Stop(); }

Status ShardGroup::Start() {
  if (started_) {
    return Error{"shard group: already started"};
  }
  Status status = frontend_.Start();
  if (!status.ok()) {
    return status;
  }
  // Registry before connections: recovered sessions must be able to
  // suppress replayed duplicates from the very first frame.
  status = frontend_.BindAckRegistry(&server_.registry());
  if (!status.ok()) {
    return status;
  }
  server_.BindFrontendStats(&frontend_.stats());
  pool_.Start();
  if (config_.listen_tcp) {
    listener_ = std::make_unique<TcpListener>(&server_);
    status = listener_->Start(config_.listen_address, 0);
    if (!status.ok()) {
      return status;
    }
  }
  started_ = true;
  return Status::Ok();
}

Status ShardGroup::Stop() {
  if (!started_ || stopped_) {
    return Status::Ok();
  }
  stopped_ = true;
  if (listener_ != nullptr) {
    listener_->Stop();
  }
  // Connections first (their completions feed the pool), then the pool
  // (its workers feed the frontend), then the durability point.
  Status status = server_.Shutdown();
  pool_.Stop();
  Status synced = frontend_.BarrierIngest();
  return status.ok() ? synced : status;
}

}  // namespace prochlo
