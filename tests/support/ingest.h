// Feeds sealed reports into the service through its one report path:
// straight into a frontend, for tests of ingestion, epochs and drains, or
// as raw frames over a client connection, for tests of framing.
#ifndef PROCHLO_TESTS_SUPPORT_INGEST_H_
#define PROCHLO_TESTS_SUPPORT_INGEST_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/service/connection.h"
#include "src/service/frontend.h"
#include "src/service/ingest.h"
#include "src/service/wire.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace prochlo {

// Ingests `reports` as session `first.session_id` would: report i under seq
// first.seq + i through AcceptRoutedReportAsync, then one group-commit
// barrier.  Returns the first failed completion (or the barrier's error);
// Ok means every report is durable.
inline Status IngestReports(ShufflerFrontend& frontend, std::span<const Bytes> reports,
                            ReportContext first = {1, 0}) {
  Status first_failure = Status::Ok();
  for (size_t i = 0; i < reports.size(); ++i) {
    const size_t shard = ShardedIngest::ShardOfReport(reports[i], frontend.num_shards());
    (void)frontend.AcceptRoutedReportAsync(  // the verdict arrives via the completion
        shard, reports[i], ReportContext{first.session_id, first.seq + i},
        [&first_failure](const Status& status) {
          if (!status.ok() && first_failure.ok()) {
            first_failure = status;
          }
        });
  }
  Status barrier = frontend.BarrierIngest();
  return first_failure.ok() ? barrier : first_failure;
}

// Writes `bytes` — a run of frames, a HELLO first for its reports to be
// ingested — into the client endpoint `chunk` bytes at a time, half-closes
// it, and reads the server's response frames until the server closes the
// connection.  Every report has been answered by then.
inline Result<std::vector<Frame>> Exchange(ByteStream& client, ByteSpan bytes,
                                           size_t chunk = SIZE_MAX) {
  for (size_t off = 0; off < bytes.size(); off += chunk) {
    Status written = client.Write(bytes.subspan(off, std::min(chunk, bytes.size() - off)));
    if (!written.ok()) {
      return written.error();
    }
  }
  client.CloseWrite();
  StreamingFrameDecoder decoder;
  std::vector<Frame> responses;
  uint8_t buffer[4096];
  for (;;) {
    auto n = client.Read(std::span<uint8_t>(buffer, sizeof(buffer)));
    if (!n.ok()) {
      return n.error();
    }
    if (n.value() == 0) {
      return responses;
    }
    decoder.Feed(ByteSpan(buffer, n.value()), responses);
  }
}

}  // namespace prochlo

#endif  // PROCHLO_TESTS_SUPPORT_INGEST_H_
