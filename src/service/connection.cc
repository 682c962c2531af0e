#include "src/service/connection.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <deque>

#include "src/service/frontend.h"

namespace prochlo {

// ------------------------------------------------------------------ loopback

namespace {

// One direction of a loopback connection: a bounded byte buffer with
// blocking reads and writes.  Chunks are stored as handed in (no per-byte
// bookkeeping); `head` indexes into the front chunk.
struct HalfPipe {
  explicit HalfPipe(size_t capacity) : capacity(capacity == 0 ? 1 : capacity) {}

  Mutex mu;
  CondVar readable;
  CondVar writable;
  std::deque<Bytes> chunks GUARDED_BY(mu);
  size_t head GUARDED_BY(mu) = 0;   // consumed prefix of chunks.front()
  size_t bytes GUARDED_BY(mu) = 0;  // total buffered
  const size_t capacity;
  bool closed GUARDED_BY(mu) = false;

  Status Write(ByteSpan data) {
    size_t done = 0;
    while (done < data.size()) {
      MutexLock lock(mu);
      while (bytes >= capacity && !closed) {
        writable.Wait(mu);
      }
      if (closed) {
        return Error{"loopback: write after close"};
      }
      size_t take = std::min(data.size() - done, capacity - bytes);
      chunks.emplace_back(data.begin() + done, data.begin() + done + take);
      bytes += take;
      done += take;
      readable.NotifyOne();
    }
    return Status::Ok();
  }

  Result<size_t> Read(std::span<uint8_t> out) {
    if (out.empty()) {
      return size_t{0};
    }
    MutexLock lock(mu);
    while (bytes == 0 && !closed) {
      readable.Wait(mu);
    }
    if (bytes == 0) {
      return size_t{0};  // EOF: writer closed and buffer drained
    }
    size_t done = 0;
    while (done < out.size() && bytes > 0) {
      Bytes& front = chunks.front();
      size_t take = std::min(out.size() - done, front.size() - head);
      std::memcpy(out.data() + done, front.data() + head, take);
      done += take;
      head += take;
      bytes -= take;
      if (head == front.size()) {
        chunks.pop_front();
        head = 0;
      }
    }
    writable.NotifyOne();
    return done;
  }

  void Close() {
    MutexLock lock(mu);
    closed = true;
    readable.NotifyAll();
    writable.NotifyAll();
  }
};

class LoopbackEndpoint : public ByteStream {
 public:
  LoopbackEndpoint(std::shared_ptr<HalfPipe> read_half, std::shared_ptr<HalfPipe> write_half)
      : read_half_(std::move(read_half)), write_half_(std::move(write_half)) {}

  // Dropping an endpoint closes BOTH directions, like close(fd): a peer
  // blocked in Read sees EOF, and a peer blocked in Write (its buffer full
  // because this endpoint stopped reading) fails fast instead of hanging —
  // e.g. a producer mid-Write when the serving pump bails on a sink error.
  ~LoopbackEndpoint() override {
    write_half_->Close();
    read_half_->Close();
  }

  Result<size_t> Read(std::span<uint8_t> out) override { return read_half_->Read(out); }
  Status Write(ByteSpan data) override { return write_half_->Write(data); }
  void CloseWrite() override { write_half_->Close(); }
  void Abort() override {
    write_half_->Close();
    read_half_->Close();
  }

 private:
  std::shared_ptr<HalfPipe> read_half_;
  std::shared_ptr<HalfPipe> write_half_;
};

}  // namespace

LoopbackPair NewLoopbackPair(size_t capacity_bytes) {
  auto client_to_server = std::make_shared<HalfPipe>(capacity_bytes);
  auto server_to_client = std::make_shared<HalfPipe>(capacity_bytes);
  LoopbackPair pair;
  pair.client = std::make_unique<LoopbackEndpoint>(server_to_client, client_to_server);
  pair.server = std::make_unique<LoopbackEndpoint>(client_to_server, server_to_client);
  return pair;
}

// -------------------------------------------------------------- FdByteStream

FdByteStream::~FdByteStream() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<size_t> FdByteStream::Read(std::span<uint8_t> out) {
  for (;;) {
    ssize_t n = ::read(fd_, out.data(), out.size());
    if (n >= 0) {
      return static_cast<size_t>(n);
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == ECONNRESET) {
      return size_t{0};  // peer aborted: treat like EOF, the tail is torn
    }
    return Error{std::string("fd stream: read failed: ") + std::strerror(errno)};
  }
}

Status FdByteStream::Write(ByteSpan data) {
  size_t done = 0;
  while (done < data.size()) {
    // MSG_NOSIGNAL: a peer that aborted mid-stream must surface as EPIPE,
    // not kill the process with SIGPIPE (fault-injection relies on this).
    ssize_t n = ::send(fd_, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd_, data.data() + done, data.size() - done);  // plain pipes
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Error{std::string("fd stream: write failed: ") + std::strerror(errno)};
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

void FdByteStream::CloseWrite() {
  // Sockets get a real half-close; pipes have no equivalent (the reader
  // sees EOF when the fd is closed at destruction).
  ::shutdown(fd_, SHUT_WR);
}

void FdByteStream::Abort() {
  // Both directions down: a reader blocked on either end wakes with EOF or
  // ECONNRESET.  The fd itself stays open until destruction so concurrent
  // Read/Write calls never touch a recycled descriptor.
  ::shutdown(fd_, SHUT_RDWR);
}

// ---------------------------------------------------------------- TCP dialing

namespace {

Status SetNoDelay(int fd) {
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Error{std::string("tcp: setsockopt(TCP_NODELAY) failed: ") + std::strerror(errno)};
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<ByteStream>> TcpConnect(const std::string& address, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Error{std::string("tcp connect: socket failed: ") + std::strerror(errno)};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Error{"tcp connect: bad address " + address};
  }
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    std::string message = std::string("tcp connect: ") + std::strerror(errno);
    ::close(fd);
    return Error{message};
  }
  (void)SetNoDelay(fd);  // best effort: acks are latency-bound, data still flows
  return std::unique_ptr<ByteStream>(std::make_unique<FdByteStream>(fd));
}

// ---------------------------------------------------------------- AckRegistry

AckRegistry::Claim AckRegistry::TryClaim(uint64_t session_id, uint64_t seq,
                                         uint64_t connection_id) {
  MutexLock lock(mu_);
  if (connection_id != 0) {
    auto fence = fences_.find(session_id);
    if (fence != fences_.end() && fence->second > connection_id) {
      return Claim::kSuperseded;
    }
  }
  if (tombstones_.count(session_id) != 0) {
    // Evicted: the sparse state that could deduplicate this seq is gone.
    // Admitting the claim would risk silent re-ingestion, so the client is
    // told to start a fresh session instead.
    return Claim::kSessionExpired;
  }
  if (seq == UINT64_MAX) {
    // The last representable seq is rejected so the watermark can saturate
    // at UINT64_MAX ("everything below is durable") without ever wrapping
    // to 0 and forgetting the whole session.  A client this deep into the
    // seq space must rotate sessions anyway.
    return Claim::kSessionExpired;
  }
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    EvictForAdmissionLocked();
    it = sessions_.emplace(session_id, SessionState{}).first;
  }
  SessionState& session = it->second;
  session.last_use = ++lru_clock_;
  if (session.Durable(seq)) {
    return Claim::kDuplicate;
  }
  if (session.pending.count(seq) != 0) {
    return Claim::kInFlight;
  }
  session.pending.insert(seq);
  return Claim::kNew;
}

void AckRegistry::EvictForAdmissionLocked() {
  if (max_sessions_ == 0 || sessions_.size() < max_sessions_) {
    return;
  }
  // Evict the stalest idle session.  Sessions with in-flight claims are
  // skipped: their done-completions will Commit/Release by id, and evicting
  // underneath them would resurrect the session as a ghost.  The linear
  // scan is fine — eviction runs once per admission past the cap, and the
  // map is at most max_sessions_ big.
  while (sessions_.size() >= max_sessions_) {
    auto victim = sessions_.end();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (!it->second.pending.empty()) {
        continue;
      }
      if (victim == sessions_.end() || it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == sessions_.end()) {
      return;  // every session is mid-ingest; admit over the cap (rare, bounded)
    }
    uint64_t floor = victim->second.contiguous;
    uint64_t victim_id = victim->first;
    tombstones_[victim_id] = floor;
    sessions_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (wal_ != nullptr) {
      // The eviction rides the report log so it stays totally ordered with
      // the commits it supersedes; the watermark is checkpointed in one
      // record and the sparse set is dropped.  No barrier, and a failed
      // append is dropped: replay then reconstructs the session from its
      // commit records as live — strictly safer than expired — and LRU
      // eviction is the backstop.
      (void)wal_->AppendEvict(victim_id, floor);
    }
  }
}

void AckRegistry::Commit(uint64_t session_id, uint64_t seq) {
  MutexLock lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    // The session vanished between the claim and the commit — a goodbye
    // raced the in-flight ingest.  Recreating it here would leave a ghost
    // session the client never hears about; the report itself is safely
    // spooled either way.
    return;
  }
  SessionState& session = it->second;
  session.pending.erase(seq);
  session.sparse.insert(seq);
  // Advance the watermark over any now-contiguous prefix, keeping the
  // sparse set bounded by the out-of-order window.  The advance saturates
  // at UINT64_MAX — seq UINT64_MAX itself stays in the sparse set — so the
  // watermark can never wrap back to 0 and forget the session.
  while (!session.sparse.empty() && *session.sparse.begin() == session.contiguous &&
         session.contiguous != UINT64_MAX) {
    session.sparse.erase(session.sparse.begin());
    session.contiguous++;
  }
}

void AckRegistry::Release(uint64_t session_id, uint64_t seq) {
  MutexLock lock(mu_);
  auto it = sessions_.find(session_id);
  if (it != sessions_.end()) {
    it->second.pending.erase(seq);
  }
}

void AckRegistry::Terminate(uint64_t session_id) {
  {
    MutexLock lock(mu_);
    sessions_.erase(session_id);
    tombstones_.erase(session_id);
  }
  if (wal_ != nullptr) {
    // The goodbye rides the report log, totally ordered after every commit
    // this session's reports logged, and is made durable before the ACK.  A
    // failed append or barrier is dropped: replay brings the session back
    // as live, and LRU eviction is the backstop.
    auto lsn = wal_->AppendGoodbye(session_id);
    if (lsn.ok()) {
      (void)wal_->SyncUpTo(lsn.value());
    }
  }
}

void AckRegistry::set_max_sessions(size_t max_sessions) {
  MutexLock lock(mu_);
  max_sessions_ = max_sessions;
}

void AckRegistry::OpenConnection(uint64_t connection_id) {
  MutexLock lock(mu_);
  open_connections_.insert(connection_id);
}

void AckRegistry::BindConnection(uint64_t session_id, uint64_t connection_id) {
  MutexLock lock(mu_);
  uint64_t& fence = fences_[session_id];
  fence = std::max(fence, connection_id);
}

void AckRegistry::CloseConnection(uint64_t connection_id) {
  MutexLock lock(mu_);
  const bool was_oldest =
      !open_connections_.empty() && *open_connections_.begin() == connection_id;
  open_connections_.erase(connection_id);
  if (!was_oldest) {
    return;
  }
  // A fence at or below the oldest open connection can no longer fence
  // anyone: every connection it superseded has closed.
  const uint64_t oldest =
      open_connections_.empty() ? UINT64_MAX : *open_connections_.begin();
  for (auto it = fences_.begin(); it != fences_.end();) {
    it = it->second <= oldest ? fences_.erase(it) : std::next(it);
  }
}

void AckRegistry::AttachWal(IngestWal* wal) {
  MutexLock lock(mu_);
  wal_ = wal;
}

void AckRegistry::RestoreFromRecovery(const SessionImage& image) {
  MutexLock lock(mu_);
  for (const auto& [session_id, snapshot] : image.live) {
    SessionState session;
    session.contiguous = snapshot.watermark;
    session.sparse = snapshot.sparse;
    session.last_use = ++lru_clock_;
    sessions_[session_id] = std::move(session);
  }
  for (const auto& [session_id, floor] : image.evicted) {
    tombstones_[session_id] = floor;
  }
}

bool AckRegistry::IsDurable(uint64_t session_id, uint64_t seq) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(session_id);
  return it != sessions_.end() && it->second.Durable(seq);
}

size_t AckRegistry::sessions() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

size_t AckRegistry::tombstones() const {
  MutexLock lock(mu_);
  return tombstones_.size();
}

uint64_t AckRegistry::evictions() const {
  return evictions_.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------ FrameConnection

ConnectionAckBook FrameConnection::ack_book() const {
  MutexLock lock(out_mu_);
  return book_;
}

// Queues one response frame for the writer thread.  Callers increment the
// book under out_mu_ first, so the decision and its response can never be
// observed half-recorded.
void FrameConnection::EnqueueResponse(Bytes response_frame) {
  MutexLock lock(out_mu_);
  outbox_.push_back(std::move(response_frame));
  if (!writer_started_) {
    writer_started_ = true;
    writer_ = std::thread([this] { WriterLoop(); });
  }
  out_cv_.NotifyOne();
}

void FrameConnection::WriterLoop() {
  for (;;) {
    Bytes frame;
    {
      MutexLock lock(out_mu_);
      while (!writer_stop_ && outbox_.empty()) {
        out_cv_.Wait(out_mu_);
      }
      if (outbox_.empty()) {
        return;  // stop requested and everything flushed
      }
      frame = std::move(outbox_.front());
      outbox_.pop_front();
    }
    if (!stream_->Write(frame).ok()) {
      // The connection died before the response got out.  The report's
      // fate is already decided (and registered), so the client's retry on
      // a new connection resolves correctly; just make the loss visible.
      // Keep draining — a dead transport fails fast, and every queued
      // response must be accounted.
      MutexLock lock(out_mu_);
      book_.response_write_failures++;
    }
  }
}

void FrameConnection::StopWriter() {
  {
    MutexLock lock(out_mu_);
    if (!writer_started_) {
      return;
    }
    writer_stop_ = true;
    out_cv_.NotifyAll();
  }
  writer_.join();  // drains the outbox first
}

void FrameConnection::DispatchAckedReport(Frame frame) {
  const uint64_t session = session_id_;
  const uint64_t seq = frame.seq;
  switch (registry_->TryClaim(session, seq, connection_id_)) {
    case AckRegistry::Claim::kDuplicate: {
      // Already durable: the ack was lost with an earlier connection.
      // Re-ack without re-ingesting — this is the exactly-once half of the
      // retry contract.
      {
        MutexLock lock(out_mu_);
        book_.duplicates_suppressed++;
      }
      EnqueueResponse(EncodeAckFrame(seq));
      return;
    }
    case AckRegistry::Claim::kInFlight: {
      // An earlier connection's ingest of this seq has not resolved yet;
      // the client retries after its nack delay, by which time it has.
      {
        MutexLock lock(out_mu_);
        book_.nacked++;
      }
      EnqueueResponse(EncodeNackFrame(seq, NackReason::kInFlight, "report in flight; retry"));
      return;
    }
    case AckRegistry::Claim::kSuperseded: {
      // A stale frame from a connection the client has abandoned (it
      // replays on its newer one).  Answered only to keep the books whole.
      {
        MutexLock lock(out_mu_);
        book_.nacked++;
      }
      EnqueueResponse(
          EncodeNackFrame(seq, NackReason::kRetryable, "connection superseded; not ingested"));
      return;
    }
    case AckRegistry::Claim::kSessionExpired: {
      // The session's dedup state is gone (evicted/terminated) or its seq
      // space is exhausted.  Retrying the same seq could re-ingest, so the
      // client is told to re-hello under a fresh session id instead.
      {
        MutexLock lock(out_mu_);
        book_.nacked++;
        book_.expired_nacked++;
      }
      EnqueueResponse(EncodeSessionExpiredNackFrame(
          seq, session, "session expired; re-hello with a fresh session"));
      return;
    }
    case AckRegistry::Claim::kNew:
      break;
  }
  if (route_check_) {
    // Ownership runs strictly AFTER dedup: only a kNew claim gets here, so
    // a replayed report that is already durable somewhere in its retry
    // history was re-ACKed above — redirecting it would make the client
    // deliver it twice.
    uint64_t target_group = 0;
    uint64_t map_version = 0;
    if (!route_check_(ByteSpan(frame.payload.data(), frame.payload.size()), &target_group,
                      &map_version)) {
      registry_->Release(session, seq);
      {
        MutexLock lock(out_mu_);
        book_.nacked++;
        book_.redirects_sent++;
      }
      EnqueueResponse(EncodeMisroutedNackFrame(seq, target_group, map_version,
                                               "misrouted; resend to the owning group"));
      return;
    }
  }
  {
    MutexLock lock(inflight_mu_);
    inflight_++;
  }
  auto done = [this, session, seq](const Status& status) {
    if (status.ok()) {
      // Registry first, then the ack: a duplicate arriving after the ack
      // must already observe the seq as durable.
      registry_->Commit(session, seq);
      {
        MutexLock lock(out_mu_);
        book_.acked++;
      }
      EnqueueResponse(EncodeAckFrame(seq));
    } else {
      // Not ingested: release the claim so the client's retry is accepted
      // as new, and tell it why.
      registry_->Release(session, seq);
      {
        MutexLock lock(out_mu_);
        book_.nacked++;
      }
      EnqueueResponse(EncodeNackFrame(seq, NackReason::kRetryable, status.error().message));
    }
    MutexLock lock(inflight_mu_);
    if (--inflight_ == 0) {
      inflight_cv_.NotifyAll();
    }
  };
  if (async_sink_) {
    async_sink_(std::move(frame.payload), ReportContext{session, seq}, std::move(done));
  } else {
    done(sink_(std::move(frame.payload)));
  }
}

Status FrameConnection::HandleFrame(Frame frame) {
  switch (frame.type) {
    case FrameType::kHello:
      // Binds the connection to the client's acknowledgment session; only
      // meaningful when a registry exists to hold that state.  Session 0
      // is reserved as "no session" — honoring it would silently cross-
      // deduplicate every client that forgot to pick an id, losing their
      // reports while acking them.
      helloed_ = registry_ != nullptr && frame.seq != 0;
      session_id_ = frame.seq;
      if (helloed_) {
        registry_->BindConnection(session_id_, connection_id_);
      }
      if (helloed_ && group_map_provider_) {
        // Announce the topology up front so the client can route before it
        // has made (and been redirected for) its first mistake.
        Bytes map_frame = group_map_provider_();
        if (!map_frame.empty()) {
          EnqueueResponse(std::move(map_frame));
        }
      }
      return Status::Ok();
    case FrameType::kReport:
      if (helloed_) {
        DispatchAckedReport(std::move(frame));
        return Status::Ok();
      }
      // Legacy ack-less hand-off: the caller's sink decides the pump's fate.
      return sink_(std::move(frame.payload));
    case FrameType::kGoodbye:
      // The fair-termination handshake: the client promises this session is
      // complete and will never be reused, so every trace of its dedup
      // state can be dropped.  Idempotent — a goodbye retry (the previous
      // ack died with its connection) finds nothing to drop and is re-ACKed
      // just the same.
      if (helloed_) {
        registry_->Terminate(session_id_);
        {
          MutexLock lock(out_mu_);
          book_.goodbyes_acked++;
        }
        EnqueueResponse(EncodeAckFrame(frame.seq));
      }
      return Status::Ok();
    case FrameType::kAck:
    case FrameType::kNack:
    case FrameType::kGroupMap:
      // Client-bound frames arriving at a server: already counted in the
      // framing books (frames_ack/frames_nack/frames_group_map), nothing
      // to do.
      return Status::Ok();
  }
  return Status::Ok();
}

void FrameConnection::WaitForInflight() {
  MutexLock lock(inflight_mu_);
  while (inflight_ != 0) {
    inflight_cv_.Wait(inflight_mu_);
  }
}

Status FrameConnection::PumpUntilClosed() {
  uint8_t buffer[16384];
  std::vector<Frame> frames;
  Status status = Status::Ok();
  for (;;) {
    auto n = stream_->Read(std::span<uint8_t>(buffer, sizeof(buffer)));
    if (!n.ok()) {
      decoder_.Finish();  // keep the books balanced for what was read
      status = n.error();
      break;
    }
    if (n.value() == 0) {
      // EOF: the torn tail may still hold recoverable frames.
      frames.clear();
      decoder_.Finish(&frames);
      for (auto& frame : frames) {
        status = HandleFrame(std::move(frame));
        if (!status.ok()) {
          break;
        }
      }
      break;
    }
    frames.clear();
    decoder_.Feed(ByteSpan(buffer, n.value()), frames);
    bool failed = false;
    for (auto& frame : frames) {
      status = HandleFrame(std::move(frame));
      if (!status.ok()) {
        // Legacy (ack-less) hand-off failure: without acks the client
        // cannot be told which reports landed, so stop pumping and surface
        // the error; the server-side books hold the truth.  The ack path
        // never gets here — its ingest failures become NACKs.
        decoder_.Finish();
        failed = true;
        break;
      }
    }
    if (failed) {
      break;
    }
  }
  // Acks may still be in flight on ingest worker threads; they borrow this
  // object and the stream, so the pump ends only once every completion has
  // resolved and the writer has drained the response outbox — which also
  // makes stats() and ack_book() final.
  WaitForInflight();
  StopWriter();
  return status;
}

// --------------------------------------------------------------- FrameServer

// Destructor teardown has no caller to report to; Shutdown is idempotent and
// its status only restates per-connection errors already counted in stats_.
FrameServer::~FrameServer() { (void)Shutdown(); }

void FrameServer::BindFrontendStats(FrontendStats* stats) {
  MutexLock lock(mu_);
  frontend_stats_ = stats;
}

void FrameServer::set_route_check(FrameConnection::RouteCheck route_check) {
  MutexLock lock(mu_);
  route_check_ = std::move(route_check);
}

void FrameServer::set_group_map_provider(FrameConnection::GroupMapProvider provider) {
  MutexLock lock(mu_);
  group_map_provider_ = std::move(provider);
}

std::unique_ptr<ByteStream> FrameServer::Connect(size_t capacity_bytes) {
  LoopbackPair pair = NewLoopbackPair(capacity_bytes);
  Serve(std::move(pair.server));
  return std::move(pair.client);
}

void FrameServer::Serve(std::unique_ptr<ByteStream> stream) {
  auto served = std::make_unique<Served>();
  served->stream = std::move(stream);
  Served* raw = served.get();
  // Register and spawn under the lock: Shutdown must never swap served_
  // between the registration and the thread assignment, or it would either
  // miss the connection entirely or join a half-constructed entry.  A
  // connection adopted after Shutdown is dropped on the floor — destroying
  // the transport closes it, so the peer's writes fail instead of hanging.
  MutexLock lock(mu_);
  if (shut_down_) {
    return;
  }
  // The hooks are copied under the same lock that registers the
  // connection, so each connection keeps the hooks it started with even if
  // the setters race later Serves; the same lock numbers connections in
  // accept order for the registry's fencing.
  const uint64_t connection_id = next_connection_id_++;
  registry_.OpenConnection(connection_id);
  raw->thread = std::thread([this, raw, route_check = route_check_,
                             group_map_provider = group_map_provider_,
                             connection_id]() mutable {
    FrameConnection connection(raw->stream.get(), sink_, async_sink_, &registry_,
                               connection_id);
    if (route_check) {
      connection.set_route_check(std::move(route_check));
    }
    if (group_map_provider) {
      connection.set_group_map_provider(std::move(group_map_provider));
    }
    raw->status = connection.PumpUntilClosed();
    registry_.CloseConnection(connection_id);
    raw->stats = connection.stats();
    raw->book = connection.ack_book();
    {
      // Mirror the finished connection's ack book into the frontend's
      // counters so operators see the protocol's books where the ingestion
      // books already live.
      MutexLock stats_lock(mu_);
      if (frontend_stats_ != nullptr) {
        frontend_stats_->acks_sent.fetch_add(raw->book.acked, std::memory_order_relaxed);
        frontend_stats_->nacks_sent.fetch_add(raw->book.nacked, std::memory_order_relaxed);
        frontend_stats_->duplicates_suppressed.fetch_add(raw->book.duplicates_suppressed,
                                                         std::memory_order_relaxed);
        // Every misrouted rejection sent exactly one redirect NACK, so the
        // two cluster counters mirror the same book entry — the exact
        // balance the cluster tests pin.
        frontend_stats_->redirects_sent.fetch_add(raw->book.redirects_sent,
                                                  std::memory_order_relaxed);
        frontend_stats_->misrouted_rejected.fetch_add(raw->book.redirects_sent,
                                                      std::memory_order_relaxed);
      }
    }
    // Release the transport as soon as pumping ends: if the pump bailed on
    // a sink error, this closes the connection and unblocks a peer still
    // writing into it, rather than holding it open until Shutdown.
    raw->stream.reset();
  });
  served_.push_back(std::move(served));
}

Status FrameServer::Shutdown() {
  // Idempotent: a second call finds served_ empty and joins nothing.
  std::vector<std::unique_ptr<Served>> to_join;
  {
    MutexLock lock(mu_);
    shut_down_ = true;
    to_join = std::move(served_);
    served_.clear();
  }
  Status first_error = Status::Ok();
  for (auto& served : to_join) {
    if (served->thread.joinable()) {
      served->thread.join();  // blocks until the client half-closes
    }
    if (first_error.ok() && !served->status.ok()) {
      first_error = served->status;
    }
  }
  MutexLock lock(mu_);
  for (auto& served : to_join) {
    stats_.Fold(served->stats);
    ack_book_.Fold(served->book);
    connections_ += 1;
  }
  return first_error;
}

FrameStreamStats FrameServer::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

ConnectionAckBook FrameServer::ack_book() const {
  MutexLock lock(mu_);
  return ack_book_;
}

size_t FrameServer::connections() const {
  MutexLock lock(mu_);
  return connections_ + served_.size();
}

// --------------------------------------------------------------- TcpListener

TcpListener::~TcpListener() { Stop(); }

Status TcpListener::Start(const std::string& address, uint16_t port) {
  if (listen_fd_ >= 0) {
    return Error{"tcp listener: already started"};
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Error{std::string("tcp listener: socket failed: ") + std::strerror(errno)};
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Error{"tcp listener: bad address " + address};
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string message = std::string("tcp listener: bind failed: ") + std::strerror(errno);
    ::close(fd);
    return Error{message};
  }
  if (::listen(fd, 128) != 0) {
    std::string message = std::string("tcp listener: listen failed: ") + std::strerror(errno);
    ::close(fd);
    return Error{message};
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    std::string message = std::string("tcp listener: getsockname failed: ") + std::strerror(errno);
    ::close(fd);
    return Error{message};
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  stopping_.store(false);
  thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void TcpListener::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) {
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM ||
          errno == EAGAIN || errno == EWOULDBLOCK) {
        // Resource exhaustion is transient: a dead accept loop with a live
        // listen socket would strand every future client in the backlog.
        // Back off briefly and keep accepting.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // listening socket broken (EBADF/EINVAL); accepting ends
    }
    (void)SetNoDelay(fd);  // best effort
    accepted_.fetch_add(1, std::memory_order_relaxed);
    server_->Serve(std::make_unique<FdByteStream>(fd));
  }
}

void TcpListener::Stop() {
  if (listen_fd_ < 0) {
    return;
  }
  stopping_.store(true);
  // Wakes a blocked accept() (returns EINVAL); the fd is closed only after
  // the join so the accept loop never reads a recycled descriptor.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) {
    thread_.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

// --------------------------------------------------------------- FrameClient

FrameClient::~FrameClient() {
  MutexLock lifecycle(lifecycle_mu_);
  StopReaderLocked();
}

void FrameClient::MarkDisconnected() {
  MutexLock lock(mu_);
  connected_ = false;
  acked_cv_.NotifyAll();
}

void FrameClient::StopReaderLocked() {
  {
    MutexLock lock(mu_);
    if (stream_ != nullptr) {
      stream_->Abort();  // wakes a reader blocked in Read
      connected_ = false;
      acked_cv_.NotifyAll();
    }
  }
  if (reader_.joinable()) {
    reader_.join();
  }
  // With the reader joined and send_mu_ held, nobody else can be touching
  // the transport.
  MutexLock send(send_mu_);
  MutexLock lock(mu_);
  stream_.reset();
}

Status FrameClient::Connect(std::unique_ptr<ByteStream> stream) {
  if (config_.session_id == 0) {
    // 0 is the reserved "no session" id; two clients defaulting to it
    // would silently suppress each other's reports as duplicates.
    return Error{"frame client: session_id must be non-zero"};
  }
  MutexLock lifecycle(lifecycle_mu_);
  StopReaderLocked();
  ByteStream* raw = stream.get();
  {
    MutexLock send(send_mu_);
    MutexLock lock(mu_);
    stream_ = std::move(stream);
    connected_ = true;
  }
  // The reader starts before the replay writes: acks for replayed reports
  // can arrive while the replay is still in progress, and leaving them
  // unread could back-pressure the server into a write/read standoff.
  reader_ = std::thread([this, raw] { ReaderLoop(raw); });

  std::vector<std::pair<uint64_t, Bytes>> replay;
  {
    MutexLock lock(mu_);
    replay.assign(outstanding_.begin(), outstanding_.end());
  }
  MutexLock send(send_mu_);
  Status status = raw->Write(EncodeHelloFrame(config_.session_id));
  if (!status.ok()) {
    MarkDisconnected();
    return status;
  }
  // Replay everything unacknowledged, oldest first.  The server suppresses
  // whatever it already spooled (those acks died with the old connection)
  // and ingests the rest — this is the at-least-once half of the contract.
  for (const auto& [seq, report] : replay) {
    status = raw->Write(EncodeReportFrame(seq, report));
    if (!status.ok()) {
      MarkDisconnected();
      return status;
    }
    MutexLock lock(mu_);
    stats_.retransmitted++;
  }
  return Status::Ok();
}

Status FrameClient::SendReport(Bytes sealed_report) {
  // send_mu_ covers the seq assignment as well as the write: a session
  // rotation on the reader thread renumbers outstanding_ under send_mu_,
  // and a seq assigned on one side of that renumbering must not be written
  // to the wire on the other side of it.
  MutexLock send(send_mu_);
  uint64_t seq = 0;
  Bytes frame;
  ByteStream* stream = nullptr;
  {
    // The report is owned from this point even if the write below fails:
    // callers hand each report over exactly once, and the next Connect's
    // replay delivers whatever could not be written now.  (Encode first,
    // then move into the map — one copy, not two.)
    MutexLock lock(mu_);
    seq = next_seq_++;
    stats_.sent++;
    frame = EncodeReportFrame(seq, sealed_report);
    outstanding_.emplace(seq, std::move(sealed_report));  // retained until ACKed
    if (connected_ && stream_ != nullptr) {
      stream = stream_.get();
    }
  }
  if (stream == nullptr) {
    // The connection died between the bookkeeping and the write; the report
    // stays outstanding for the next Connect's replay.
    return Error{"frame client: connection lost before send"};
  }
  Status status = stream->Write(frame);
  if (!status.ok()) {
    MarkDisconnected();
  }
  return status;
}

bool FrameClient::WaitForAcks(std::chrono::milliseconds timeout) {
  MutexLock lock(mu_);
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!outstanding_.empty() && connected_) {
    if (!acked_cv_.WaitUntil(mu_, deadline)) {
      break;  // timed out; report the final state below
    }
  }
  return outstanding_.empty();
}

void FrameClient::Close() {
  MutexLock lifecycle(lifecycle_mu_);
  // A cleanly finished session (connected, nothing outstanding) offers the
  // server a kGoodbye so it can drop this session's dedup state now rather
  // than waiting out LRU eviction.  The wait below is best-effort: a lost
  // goodbye (or its lost ack) costs nothing but server memory, and
  // eviction remains the backstop.
  bool sent_goodbye = false;
  {
    MutexLock send(send_mu_);
    Bytes frame;
    ByteStream* raw = nullptr;
    {
      MutexLock lock(mu_);
      if (stream_ != nullptr && connected_ && outstanding_.empty()) {
        goodbye_pending_ = true;
        goodbye_acked_ = false;
        goodbye_seq_ = next_seq_++;
        frame = EncodeGoodbyeFrame(goodbye_seq_);
        raw = stream_.get();
      }
    }
    if (raw != nullptr && raw->Write(frame).ok()) {
      sent_goodbye = true;
      MutexLock lock(mu_);
      stats_.goodbyes_sent++;
    }
  }
  if (sent_goodbye) {
    MutexLock lock(mu_);
    auto deadline = std::chrono::steady_clock::now() + config_.goodbye_timeout;
    while (!goodbye_acked_ && connected_) {
      if (!acked_cv_.WaitUntil(mu_, deadline)) {
        break;  // timed out; eviction is the backstop for a lost goodbye
      }
    }
    if (goodbye_acked_) {
      stats_.goodbyes_acked++;
    }
    goodbye_pending_ = false;
  }
  {
    MutexLock send(send_mu_);
    MutexLock lock(mu_);
    if (stream_ != nullptr) {
      stream_->CloseWrite();
    }
  }
  if (reader_.joinable()) {
    reader_.join();  // the server finishes responding, then closes its side
  }
  MutexLock send(send_mu_);
  MutexLock lock(mu_);
  stream_.reset();
  connected_ = false;
}

bool FrameClient::connected() const {
  MutexLock lock(mu_);
  return connected_;
}

size_t FrameClient::outstanding() const {
  MutexLock lock(mu_);
  return outstanding_.size();
}

FrameClientStats FrameClient::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

uint64_t FrameClient::session_id() const {
  MutexLock lock(mu_);
  return config_.session_id;
}

namespace {

// SplitMix64: the default session rotator and the jitter mixer.  Full-period
// and well-distributed, so rotated ids collide no more than random ones.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

void FrameClient::RotateSession(ByteStream* stream) {
  // The server answered kSessionExpired: its dedup state for this session
  // is gone, and resending old seqs could re-ingest.  Adopt a fresh session
  // id, renumber everything outstanding from seq 0, and re-HELLO + replay
  // on the same connection.  send_mu_ covers the renumbering AND the
  // replay, so a concurrent SendReport can neither interleave a stale-seq
  // write nor assign a seq on the wrong side of the renumbering.  Late ACKs
  // from the old session cannot mis-match the new seqs: server responses
  // are FIFO per connection, so every old-session response precedes the
  // expired NACK that got us here.
  MutexLock send(send_mu_);
  uint64_t new_session = 0;
  std::vector<std::pair<uint64_t, Bytes>> replay;
  ByteStream* current = nullptr;
  {
    MutexLock lock(mu_);
    uint64_t old_session = config_.session_id;
    new_session = config_.session_rotator ? config_.session_rotator(old_session)
                                          : SplitMix64(old_session);
    if (new_session == 0) {
      new_session = 1;  // 0 is reserved ("no session")
    }
    config_.session_id = new_session;
    std::map<uint64_t, Bytes> renumbered;
    uint64_t next = 0;
    for (auto& [seq, report] : outstanding_) {
      renumbered.emplace(next++, std::move(report));
    }
    outstanding_ = std::move(renumbered);
    next_seq_ = next;
    stats_.session_rotations++;
    nack_backoff_exponent_ = 0;
    for (const auto& [seq, report] : outstanding_) {
      replay.emplace_back(seq, report);
    }
    if (connected_ && stream_.get() == stream) {
      current = stream_.get();
    }
  }
  if (current == nullptr) {
    return;  // disconnected; the next Connect re-HELLOs and replays anyway
  }
  if (!current->Write(EncodeHelloFrame(new_session)).ok()) {
    MarkDisconnected();
    return;
  }
  for (const auto& [seq, report] : replay) {
    if (!current->Write(EncodeReportFrame(seq, report)).ok()) {
      MarkDisconnected();
      return;
    }
    MutexLock lock(mu_);
    stats_.retransmitted++;
  }
}

void FrameClient::ReaderLoop(ByteStream* stream) {
  StreamingFrameDecoder decoder;
  uint8_t buffer[4096];
  std::vector<Frame> frames;
  std::vector<uint64_t> nacked_seqs;
  // Cluster frames whose handlers must run OUTSIDE every client lock: a
  // redirect handler typically calls another FrameClient's SendReport, and
  // an on_group_map callback may swap a routing table that senders read.
  struct Redirect {
    Bytes report;
    uint64_t target_group = 0;
    uint64_t map_version = 0;
  };
  std::vector<Redirect> redirects;
  std::vector<std::pair<uint64_t, Bytes>> group_maps;  // (version, payload)
  for (;;) {
    auto n = stream->Read(std::span<uint8_t>(buffer, sizeof(buffer)));
    if (!n.ok() || n.value() == 0) {
      break;
    }
    frames.clear();
    nacked_seqs.clear();
    redirects.clear();
    group_maps.clear();
    bool session_expired = false;
    bool ack_progress = false;
    decoder.Feed(ByteSpan(buffer, n.value()), frames);
    // Pass 1: process every ACK (and collect NACKs) before any retry
    // pause, so one batch of NACKs cannot head-of-line-block the acks that
    // arrived with it.
    for (auto& frame : frames) {
      if (frame.type == FrameType::kAck) {
        MutexLock lock(mu_);
        auto it = outstanding_.find(frame.seq);
        if (it != outstanding_.end()) {
          outstanding_.erase(it);
          stats_.acked++;
          ack_progress = true;
          acked_cv_.NotifyAll();
        } else if (goodbye_pending_ && frame.seq == goodbye_seq_) {
          goodbye_acked_ = true;
          acked_cv_.NotifyAll();
        }
      } else if (frame.type == FrameType::kNack) {
        NackInfo info = ParseNackPayload(frame.payload);
        MutexLock lock(mu_);
        stats_.nacked++;
        if (info.reason == NackReason::kSessionExpired) {
          // Only a verdict about the CURRENT session triggers rotation.
          // After a rotation, expired NACKs stamped with the previous id
          // keep arriving (the server answers every old frame already in
          // the pipe); rotating again on one of those would replay reports
          // the new session has already committed — a duplicate ingest.
          // An unstamped verdict (session_id 0: a server too old to stamp)
          // rotates conservatively.
          if (info.session_id == 0 || info.session_id == config_.session_id) {
            session_expired = true;
          }
        } else if (info.reason == NackReason::kMisrouted && config_.redirect_handler) {
          // The report belongs to another shard group.  It stops being this
          // client's responsibility right now — retrying here would only
          // draw another redirect — and the handler (invoked below, outside
          // the locks) re-sends it through the owning group's client.
          auto it = outstanding_.find(frame.seq);
          if (it != outstanding_.end()) {
            redirects.push_back(
                Redirect{std::move(it->second), info.redirect_group, info.map_version});
            outstanding_.erase(it);
            stats_.redirected++;
            acked_cv_.NotifyAll();
          }
        } else {
          // kRetryable and kInFlight both resend the same seq (after the
          // backoff below); the distinction only matters for diagnostics.
          // kMisrouted with no redirect handler lands here too: retrying on
          // this connection is lossless and converges if the server's map
          // changes in this client's favor.
          nacked_seqs.push_back(frame.seq);
        }
      } else if (frame.type == FrameType::kGroupMap) {
        {
          MutexLock lock(mu_);
          stats_.group_maps_received++;
        }
        if (config_.on_group_map) {
          group_maps.emplace_back(frame.seq, std::move(frame.payload));
        }
      }
      // Other frame types are server-bound: protocol noise, ignore.
    }
    // Cluster callbacks run before any rotation/backoff branch `continue`s
    // this loop — a redirected report must reach its owner even when the
    // same read batch also expired the session.
    for (auto& [version, payload] : group_maps) {
      config_.on_group_map(version, std::move(payload));
    }
    for (auto& redirect : redirects) {
      config_.redirect_handler(std::move(redirect.report), redirect.target_group,
                               redirect.map_version);
    }
    if (ack_progress) {
      MutexLock lock(mu_);
      nack_backoff_exponent_ = 0;  // the server is making progress again
    }
    if (session_expired) {
      // Everything outstanding is replayed under a fresh session; retrying
      // old seqs from this batch would only draw more expired NACKs.
      RotateSession(stream);
      continue;
    }
    if (nacked_seqs.empty()) {
      continue;
    }
    // NACKed reports are retried on the same connection after ONE pause for
    // the whole batch.  The pause grows exponentially across consecutive
    // NACKed batches (a recovering spool shouldn't be hammered at line
    // rate) and carries seeded jitter so a fleet of clients desynchronizes;
    // any ACK progress resets it to the base delay, which alone absorbs the
    // transient in-flight duplicate race.  A resend that fails marks the
    // connection dead; the next Connect replays the reports anyway.
    std::chrono::milliseconds delay;
    {
      MutexLock lock(mu_);
      const uint64_t base = static_cast<uint64_t>(config_.nack_retry_delay.count());
      const uint64_t cap = static_cast<uint64_t>(config_.nack_retry_max_delay.count());
      uint64_t scaled = base << std::min<uint32_t>(nack_backoff_exponent_, 20);
      if (nack_backoff_exponent_ < 20) {
        nack_backoff_exponent_++;
      }
      if (jitter_state_ == 0) {
        jitter_state_ = SplitMix64(config_.nack_retry_jitter_seed) | 1;
      }
      jitter_state_ ^= jitter_state_ << 13;
      jitter_state_ ^= jitter_state_ >> 7;
      jitter_state_ ^= jitter_state_ << 17;
      uint64_t jitter = base > 0 ? jitter_state_ % (base + 1) : 0;
      delay = std::chrono::milliseconds(std::min(cap, scaled) + jitter);
    }
    std::this_thread::sleep_for(delay);
    for (uint64_t seq : nacked_seqs) {
      Bytes report;
      {
        MutexLock lock(mu_);
        auto it = outstanding_.find(seq);
        if (it != outstanding_.end()) {
          report = it->second;  // copy: the entry stays until ACKed
        }
      }
      if (report.empty()) {
        continue;  // already acked concurrently; nothing to retry
      }
      MutexLock send(send_mu_);
      ByteStream* current = nullptr;
      {
        MutexLock lock(mu_);
        if (connected_ && stream_.get() == stream) {
          current = stream_.get();
        }
      }
      if (current == nullptr) {
        break;
      }
      if (current->Write(EncodeReportFrame(seq, report)).ok()) {
        MutexLock lock(mu_);
        stats_.retransmitted++;
      } else {
        MarkDisconnected();  // the next Connect replays the reports
        break;
      }
    }
  }
  MutexLock lock(mu_);
  if (stream_.get() == stream) {
    connected_ = false;
  }
  acked_cv_.NotifyAll();
}

}  // namespace prochlo
