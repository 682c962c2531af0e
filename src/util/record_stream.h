// Pull-based streams of opaque byte records with a known cardinality.
//
// The ingestion tier accumulates epochs on disk that may be larger than RAM;
// the shuffle stage therefore consumes records through this interface rather
// than a materialized std::vector.  Streams are rewindable (Reset) because
// the Stash Shuffle can legitimately fail and retry the same input with
// fresh randomness.
#ifndef PROCHLO_SRC_UTIL_RECORD_STREAM_H_
#define PROCHLO_SRC_UTIL_RECORD_STREAM_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "src/util/bytes.h"

namespace prochlo {

class RecordStream {
 public:
  virtual ~RecordStream() = default;

  // Total records the stream will yield (known up front: a sealed epoch's
  // seal marker records its count, vectors know their size).
  virtual size_t size() const = 0;

  // Next record, or nullopt once size() records have been yielded.
  virtual std::optional<Bytes> Next() = 0;

  // Rewinds to the first record (for shuffle retry attempts).
  virtual void Reset() = 0;
};

// Adapter over a borrowed vector; yields copies so the caller's records
// survive shuffle retries.
class VectorRecordStream : public RecordStream {
 public:
  explicit VectorRecordStream(const std::vector<Bytes>& records) : records_(&records) {}

  size_t size() const override { return records_->size(); }

  std::optional<Bytes> Next() override {
    if (pos_ >= records_->size()) {
      return std::nullopt;
    }
    return (*records_)[pos_++];
  }

  void Reset() override { pos_ = 0; }

 private:
  const std::vector<Bytes>* records_;
  size_t pos_ = 0;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_UTIL_RECORD_STREAM_H_
