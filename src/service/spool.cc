#include "src/service/spool.h"

#include "src/service/wal.h"

namespace prochlo {

namespace {

// A bulk load group-commits every MiB, so the WAL never buffers more than
// one block of it.
constexpr uint64_t kSpoolCommitBytes = 1 << 20;

// Every WAL report belongs to a session; a bulk load is one session of its
// own, numbering its reports in append order.
constexpr uint64_t kSpoolSession = 1;

}  // namespace

Spool::Spool(SpoolConfig config) : config_(std::move(config)) {
  IngestWalConfig wal_config;
  wal_config.dir = config_.root;
  wal_config.fsync = config_.fsync_on_seal;
  wal_ = std::make_unique<IngestWal>(wal_config);
}

Spool::~Spool() = default;

Status Spool::Open() {
  auto recovery = wal_->Recover();
  return recovery.ok() ? Status::Ok() : Status(recovery.error());
}

Status Spool::Append(size_t /*shard*/, uint64_t epoch, ByteSpan report) {
  auto lsn = wal_->AppendReport(epoch, report, kSpoolSession, next_seq_, nullptr);
  if (!lsn.ok()) {
    return lsn.error();
  }
  next_seq_++;
  buffered_bytes_ += report.size();
  if (buffered_bytes_ < kSpoolCommitBytes) {
    return Status::Ok();
  }
  buffered_bytes_ = 0;
  return wal_->SyncUpTo(lsn.value());
}

Status Spool::SealEpoch(uint64_t epoch) {
  buffered_bytes_ = 0;
  return wal_->SealEpoch(epoch);
}

std::unique_ptr<RecordStream> Spool::OpenEpochStream(uint64_t epoch) {
  return wal_->OpenEpochStream(epoch);
}

}  // namespace prochlo
