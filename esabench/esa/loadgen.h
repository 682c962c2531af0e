// Open-loop wire-v2 load generator: one sender thread writes sealed reports
// on a precomputed Poisson schedule, and one reader thread per connection
// stamps each ACK as it arrives.
//
// Latency is measured from a report's *scheduled* send time, not from when
// the sender got round to writing it, so a stall that delays later sends is
// charged to them (no coordinated omission).  How late the sender ran is
// recorded separately per report (lag); a run whose lag is large measured
// the generator, not the service.
//
// The client speaks the protocol directly — HELLO, then REPORT frames with
// per-connection sequence numbers — instead of going through FrameClient,
// because FrameClient does not expose per-report ACK times.  It never
// retransmits: a NACKed report is a failure, not a retry.
#ifndef PROCHLO_ESABENCH_ESA_LOADGEN_H_
#define PROCHLO_ESABENCH_ESA_LOADGEN_H_

#include <sys/prctl.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "esa/trace.h"
#include "src/service/connection.h"
#include "src/service/wire.h"
#include "src/util/rng.h"

namespace prochlo::esa {

// `count` arrival offsets (ns from the phase start) of a Poisson process.
inline std::vector<int64_t> PoissonOffsets(double rate_per_s, size_t count, Rng& rng) {
  std::vector<int64_t> offsets;
  offsets.reserve(count);
  double t = 0;
  for (size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / rate_per_s;
    offsets.push_back(static_cast<int64_t>(t * 1e9));
  }
  return offsets;
}

// Every arrival of a Poisson process within `duration_s`.
inline std::vector<int64_t> PoissonOffsetsFor(double rate_per_s, double duration_s, Rng& rng) {
  std::vector<int64_t> offsets;
  double t = -std::log(1.0 - rng.NextDouble()) / rate_per_s;
  while (t < duration_s) {
    offsets.push_back(static_cast<int64_t>(t * 1e9));
    t += -std::log(1.0 - rng.NextDouble()) / rate_per_s;
  }
  return offsets;
}

class LoadGenerator {
 public:
  enum State : uint8_t { kPending = 0, kAcked = 1, kNacked = 2 };

  struct Record {
    int64_t due_ns = 0;
    int64_t sent_ns = 0;  // when the write carrying it began (sender thread)
    int64_t ack_ns = 0;   // when its ACK/NACK was decoded (reader thread)
    uint32_t report = 0;  // index into the phase's report pool
    uint32_t seq = 0;
    uint8_t conn = 0;
    State state = kPending;
  };

  // `capacity` bounds the sends of the generator's whole life; the send log
  // is preallocated so the reader threads never race a reallocation.
  explicit LoadGenerator(size_t capacity) : records_(capacity) {}
  ~LoadGenerator() { Close(); }

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  // Dials each port once and says HELLO with session `first_session +
  // index`.  Connection i carries the reports routed to i.
  Status Connect(const std::vector<uint16_t>& ports, uint64_t first_session) {
    for (size_t i = 0; i < ports.size(); ++i) {
      auto stream = TcpConnect("127.0.0.1", ports[i]);
      if (!stream.ok()) {
        return stream.error();
      }
      auto conn = std::make_unique<Connection>();
      conn->stream = std::move(stream).value();
      conn->record_of_seq.resize(records_.size());
      Status hello = conn->stream->Write(EncodeHelloFrame(first_session + i));
      if (!hello.ok()) {
        return hello;
      }
      Connection* raw = conn.get();
      conn->reader = std::thread([this, raw] { ReaderLoop(*raw); });
      conns_.push_back(std::move(conn));
    }
    return Status::Ok();
  }

  // Starts a phase: pool[reports[k]] is due at start_ns + offsets[k], on
  // connection route[reports[k]].  The pool must outlive the phase.
  Status Start(const std::vector<Bytes>& pool, const std::vector<uint8_t>& route,
               const std::vector<uint32_t>& reports, const std::vector<int64_t>& offsets,
               int64_t start_ns) {
    if (sender_.joinable()) {
      return Error{"loadgen: a phase is already running"};
    }
    if (used_ + reports.size() > records_.size()) {
      return Error{"loadgen: send log capacity exceeded"};
    }
    phase_begin_ = used_;
    for (size_t k = 0; k < reports.size(); ++k) {
      Record& record = records_[used_ + k];
      record.due_ns = start_ns + offsets[k];
      record.report = reports[k];
      record.conn = route[reports[k]];
      Connection& conn = *conns_[record.conn];
      record.seq = conn.next_seq++;
      conn.record_of_seq[record.seq] = static_cast<uint32_t>(used_ + k);
    }
    used_ += reports.size();
    for (auto& conn : conns_) {
      // Publishes record_of_seq to the reader, which acquires it per frame.
      conn->published.store(conn->next_seq, std::memory_order_release);
    }
    sender_ = std::thread([this, &pool, begin = phase_begin_, end = used_] {
      SendLoop(pool, begin, end);
    });
    return Status::Ok();
  }

  // Joins the sender, then waits until every report sent so far is ACKed
  // or NACKed.  False on timeout or a failed write.
  bool Finish(std::chrono::milliseconds timeout) {
    if (sender_.joinable()) {
      sender_.join();
    }
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (resolved_.load(std::memory_order_acquire) < used_) {
      if (std::chrono::steady_clock::now() > deadline || write_failed_) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  // Half-closes every connection and joins the readers once the server has
  // answered everything and closed its side.  After Close, every record is
  // final (still-pending ones were never answered).
  void Close() {
    if (sender_.joinable()) {
      sender_.join();
    }
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (auto& conn : conns_) {
      conn->stream->CloseWrite();
    }
    for (auto& conn : conns_) {
      while (!conn->reader_done.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!conn->reader_done.load()) {
        conn->stream->Abort();  // a wedged server must not hang the benchmark
      }
      conn->reader.join();
    }
    conns_.clear();
  }

  // Final once Finish() returned true (or after Close()).
  const Record& record(size_t index) const { return records_[index]; }
  size_t used() const { return used_; }
  size_t phase_begin() const { return phase_begin_; }

  // Sender totals over every phase; valid after Finish().
  double write_us_per_frame() const {
    return frames_written_ == 0
               ? 0
               : 1e-3 * static_cast<double>(write_ns_) / static_cast<double>(frames_written_);
  }

 private:
  struct Connection {
    std::unique_ptr<ByteStream> stream;
    std::thread reader;
    std::atomic<bool> reader_done{false};
    uint32_t next_seq = 0;                // controller thread only
    std::atomic<uint32_t> published{0};   // seqs below this are in record_of_seq
    std::vector<uint32_t> record_of_seq;  // seq -> index into records_
  };

  static void WaitUntil(int64_t due_ns) {
    int64_t remaining = due_ns - NowNs();
    if (remaining > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(remaining));
    }
  }

  void SendLoop(const std::vector<Bytes>& pool, size_t begin, size_t end) {
    // Precise sleeps: the default 50 µs timer slack is as long as the mean
    // gap between arrivals at 20,000 reports/s.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    std::vector<Bytes> buffers(conns_.size());
    size_t i = begin;
    while (i < end) {
      WaitUntil(records_[i].due_ns);
      int64_t now = NowNs();
      size_t j = i;
      // Everything already due goes out now, one write per connection.
      while (j < end && records_[j].due_ns <= now && j - i < 256) {
        const Record& record = records_[j];
        const Bytes& report = pool[record.report];
        AppendFrame(buffers[record.conn], FrameType::kReport, record.seq,
                    ByteSpan(report.data(), report.size()));
        ++j;
      }
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (buffers[c].empty()) {
          continue;
        }
        int64_t write_start = NowNs();
        for (size_t k = i; k < j; ++k) {
          if (records_[k].conn == c) {
            records_[k].sent_ns = write_start;
            frames_written_++;
          }
        }
        Status status = conns_[c]->stream->Write(buffers[c]);
        write_ns_ += static_cast<uint64_t>(NowNs() - write_start);
        buffers[c].clear();
        if (!status.ok()) {
          write_failed_ = true;
          return;
        }
      }
      i = j;
    }
  }

  void ReaderLoop(Connection& conn) {
    StreamingFrameDecoder decoder;
    std::vector<Frame> frames;
    std::vector<uint8_t> buffer(64 * 1024);
    for (;;) {
      auto n = conn.stream->Read(std::span<uint8_t>(buffer.data(), buffer.size()));
      if (!n.ok() || n.value() == 0) {
        break;
      }
      frames.clear();
      decoder.Feed(ByteSpan(buffer.data(), n.value()), frames);
      int64_t now = NowNs();
      uint32_t published = conn.published.load(std::memory_order_acquire);
      for (const Frame& frame : frames) {
        if ((frame.type != FrameType::kAck && frame.type != FrameType::kNack) ||
            frame.seq >= published) {
          continue;  // e.g. the cluster's kGroupMap announcement after HELLO
        }
        Record& record = records_[conn.record_of_seq[frame.seq]];
        if (record.state != kPending) {
          continue;
        }
        record.ack_ns = now;
        record.state = frame.type == FrameType::kAck ? kAcked : kNacked;
        resolved_.fetch_add(1, std::memory_order_release);
      }
    }
    conn.reader_done.store(true);
  }

  std::vector<Record> records_;
  size_t used_ = 0;
  size_t phase_begin_ = 0;
  std::atomic<size_t> resolved_{0};
  std::atomic<bool> write_failed_{false};
  uint64_t write_ns_ = 0;        // sender thread; read after join
  uint64_t frames_written_ = 0;  // sender thread; read after join
  std::vector<std::unique_ptr<Connection>> conns_;
  std::thread sender_;
};

}  // namespace prochlo::esa

#endif  // PROCHLO_ESABENCH_ESA_LOADGEN_H_
