// The spool: where an epoch's reports wait for its drain (paper §4.2).  It
// is the ingest WAL's generations (wal.h): a report's one durable copy is
// its WAL record, a sealed epoch is the generations its seal marker names,
// and the drain streams the reports straight out of them.
//
// Spool is the thin adapter for callers that write an epoch directly rather
// than through ShufflerFrontend (the drain benchmark's replay): its reports
// go through the WAL's group commit into its generations as one reserved
// session's, numbered in append order, and come back through the same
// block-at-a-time reader the drain uses.
#ifndef PROCHLO_SRC_SERVICE_SPOOL_H_
#define PROCHLO_SRC_SERVICE_SPOOL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/util/record_stream.h"
#include "src/util/status.h"

namespace prochlo {

class IngestWal;

struct SpoolConfig {
  std::string root;           // directory; created if absent
  bool fsync_on_seal = true;  // fsync group commits, markers and dirents
};

class Spool {
 public:
  explicit Spool(SpoolConfig config);
  ~Spool();

  // Creates the root directory (if needed) and recovers what it holds.
  Status Open();

  // Appends one sealed report to `epoch`.  An epoch's reports follow the
  // previous epoch's SealEpoch.  `shard` is ignored: the WAL stores no
  // routing key (the parameter stays for existing callers).
  Status Append(size_t shard, uint64_t epoch, ByteSpan report);

  // Seals `epoch`: every report appended since the previous seal.
  Status SealEpoch(uint64_t epoch);

  // Streams a sealed epoch's reports in append order, one WAL block
  // resident at a time; size() is the sealed count.
  std::unique_ptr<RecordStream> OpenEpochStream(uint64_t epoch);

 private:
  SpoolConfig config_;
  std::unique_ptr<IngestWal> wal_;
  uint64_t buffered_bytes_ = 0;  // appended since the last group commit
  uint64_t next_seq_ = 0;        // the reserved session's next seq
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_SPOOL_H_
