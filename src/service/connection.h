// Byte-stream transports, framing connections, and the acknowledgment
// protocol for the shuffler frontend: how sealed reports actually arrive at
// a standing service, and how the client learns which of them are safe.
//
// A client holds a connection open and writes wire frames into it; the
// service side cuts frames out of the byte stream as they complete (across
// arbitrary read boundaries), hands each report to the ingestion tier, and
// answers with an ACK only after `ShardedIngest::Accept` returned Ok — an
// acknowledged report is durably spooled, never merely received.  A NACK
// means "not ingested, retry".  Sequence numbers (per client session,
// established by a HELLO frame) make retries idempotent: a reconnecting
// client resends everything unacknowledged, and the server's AckRegistry
// suppresses the duplicates whose acks were lost with the old connection.
//
//   FrameClient ──HELLO(session), REPORT(seq)──►  TcpListener / loopback
//        ▲                                          │ accept
//        │                                          ▼
//        └──◄─ACK(seq) / NACK(seq)──  FrameConnection (StreamingFrameDecoder:
//                                       reassemble + CRC + resync;
//                                       AckRegistry: dedup by (session, seq))
//                                           └─► AsyncSink (IngestWorkerPool::
//                                                EnqueueAsync; completion
//                                                fires after the durable
//                                                spool append → ACK)
//
// Transports: NewLoopbackPair() gives an in-process duplex pair (bounded,
// blocking); TcpListener accepts real sockets and TcpConnect dials them,
// both speaking through FdByteStream, so the loopback tests and the socket
// path exercise identical framing code.
#ifndef PROCHLO_SRC_SERVICE_CONNECTION_H_
#define PROCHLO_SRC_SERVICE_CONNECTION_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/service/wire.h"
#include "src/util/bytes.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace prochlo {

struct FrontendStats;
class IngestWal;
struct SessionImage;

// A duplex byte-stream endpoint.  Reads block until data, EOF, or error;
// writes block while the peer's buffer is full (back-pressure, never drop).
class ByteStream {
 public:
  virtual ~ByteStream() = default;

  // Reads at least 1 byte into `out` (up to out.size()); returns the count,
  // 0 at EOF (peer half-closed and buffer drained).
  virtual Result<size_t> Read(std::span<uint8_t> out) = 0;
  virtual Status Write(ByteSpan data) = 0;
  // Half-close: signals EOF to the peer once buffered bytes are drained.
  virtual void CloseWrite() = 0;
  // Hard kill: tears down both directions so a blocked Read on either side
  // wakes up (EOF/error).  The fault-injection harness uses this to model a
  // connection dying mid-flight; the default half-close is only correct for
  // transports whose reader then drains to EOF.
  virtual void Abort() { CloseWrite(); }
};

// In-process duplex pair over two bounded pipes (per-direction capacity in
// bytes).  Both endpoints are thread-safe for one reader + one writer.
struct LoopbackPair {
  std::unique_ptr<ByteStream> client;
  std::unique_ptr<ByteStream> server;
};
LoopbackPair NewLoopbackPair(size_t capacity_bytes = 64 * 1024);

// Adapter over a POSIX file descriptor (socket, socketpair, pipe).  Owns the
// fd and closes it on destruction.  CloseWrite issues shutdown(SHUT_WR)
// where supported, falling back to a no-op for plain pipes; Abort issues
// shutdown(SHUT_RDWR), waking a blocked reader on either end.
class FdByteStream : public ByteStream {
 public:
  explicit FdByteStream(int fd) : fd_(fd) {}
  ~FdByteStream() override;

  Result<size_t> Read(std::span<uint8_t> out) override;
  Status Write(ByteSpan data) override;
  void CloseWrite() override;
  void Abort() override;

 private:
  int fd_ = -1;
};

// Dials a TCP connection (TCP_NODELAY set: ack frames are latency-bound).
Result<std::unique_ptr<ByteStream>> TcpConnect(const std::string& address, uint16_t port);

// The server's acknowledgment state, shared across every connection so a
// client that reconnects (new connection, same HELLO session id) gets its
// retries deduplicated by sequence number.  Each (session, seq) moves
//   absent ──TryClaim──► pending ──Commit──► durable
//                          └──Release──► absent (ingest failed; retryable)
// Durable seqs are kept as a contiguous watermark plus a sparse overflow
// set, so per-session memory stays O(out-of-order window), not O(reports).
//
// The session map itself is bounded two ways.  Cooperatively: a client that
// finished a session sends kGoodbye, and Terminate drops every trace of it.
// Coercively: with max_sessions set, admitting a new session past the cap
// LRU-evicts the stalest idle session (never one with in-flight claims) —
// its watermark is logged in a single evict record and the session
// moves to a tombstone, so later claims on it get kSessionExpired instead
// of silently re-ingesting what the dropped sparse state can no longer
// deduplicate.  The correctness cost is honest and visible: an evicted
// session's durable-but-unacked reports come back under a fresh session and
// ingest again, so the cap should comfortably exceed the live client count.
//
// With an IngestWal attached (AttachWal, done by the frontend's
// BindAckRegistry), every state change that an ACK promises rides the WAL,
// the single commit point: a report and its (session, seq) commit are ONE
// record, appended and fsynced atomically by the WAL's group commit, and
// the ACK fires from that commit's completion — so Commit() itself writes
// nothing.  A crash either kept both halves or lost both, and a restarted
// server re-ACKs a replayed duplicate instead of re-ingesting it.  A failed
// group commit rolls the report back along with its commit, so the
// completion carries the error and the client is NACKed kRetryable —
// "commit lost" always implies "report lost", which is exactly what makes
// the NACK safe to retry.  Evictions and goodbyes append to the WAL too, so
// every session-state mutation stays totally ordered with the report
// stream, and WAL checkpoints fold all three into the wal.ckpt snapshot.
// Without a WAL (in-memory mode) dedup lives in memory only.
class AckRegistry {
 public:
  enum class Claim {
    kNew,        // claimed: caller must Commit (→ ACK) or Release (→ NACK)
    kInFlight,   // another connection's ingest of this seq has not resolved
    kDuplicate,  // already durable: suppress, re-ACK without re-ingesting
    // The server no longer holds (or will never hold) dedup state for this
    // session: LRU-evicted, terminated by goodbye... or the seq space
    // saturated (seq == UINT64_MAX is rejected so the watermark can never
    // wrap).  The client must re-hello with a fresh session id.
    kSessionExpired,
    // The claiming connection was superseded: a newer connection has bound
    // the session (see BindConnection).  The client has abandoned this one
    // and replays on the newer one, so the report must not be ingested.
    kSuperseded,
  };

  // `connection_id` is the claiming connection's server-assigned id (0 = a
  // caller outside any connection; never superseded).
  Claim TryClaim(uint64_t session_id, uint64_t seq, uint64_t connection_id = 0);
  void Commit(uint64_t session_id, uint64_t seq);
  void Release(uint64_t session_id, uint64_t seq);

  // The kGoodbye handshake: logs the termination and drops the
  // session's entire state — watermark, sparse set, tombstone, everything.
  // Idempotent; unknown sessions are a no-op (the ACK still goes out).
  void Terminate(uint64_t session_id);

  // 0 = unbounded.  Takes effect on the next admission; shrinking the cap
  // does not evict retroactively.
  void set_max_sessions(size_t max_sessions);

  // Connection fencing.  A client uses one connection per session at a
  // time — a reconnect abandons the old one — but the abandoned
  // connection's unread frames can still reach the server after the client
  // moved on, even after its goodbye erased the session, where a stale
  // report would claim kNew and ingest a second copy.  Connections carry
  // ids in accept order: OpenConnection registers one before it is pumped,
  // HELLO binds it to its session, and once a newer connection has bound
  // the session, claims from older ones answer kSuperseded.  A session's
  // fence is dropped only when no connection older than it is still open,
  // so neither goodbye nor the newer connection closing can lift it.
  void OpenConnection(uint64_t connection_id);
  void BindConnection(uint64_t session_id, uint64_t connection_id);
  void CloseConnection(uint64_t connection_id);

  // Durable dedup plumbing (see the class comment).  AttachWal borrows;
  // RestoreFromRecovery seeds sessions and tombstones from the WAL's
  // recovered session image — call both before serving connections.
  void AttachWal(IngestWal* wal);
  void RestoreFromRecovery(const SessionImage& image);

  bool IsDurable(uint64_t session_id, uint64_t seq) const;
  size_t sessions() const;
  size_t tombstones() const;
  uint64_t evictions() const;

 private:
  struct SessionState {
    uint64_t contiguous = 0;    // every seq < contiguous is durable
    std::set<uint64_t> sparse;  // durable seqs >= contiguous
    std::set<uint64_t> pending;
    uint64_t last_use = 0;      // LRU clock value of the latest claim

    bool Durable(uint64_t seq) const {
      return seq < contiguous || sparse.count(seq) != 0;
    }
  };

  // Evicts idle sessions (empty pending) in LRU order until the map fits
  // the cap, logging each eviction's watermark floor to the WAL.
  void EvictForAdmissionLocked() REQUIRES(mu_);

  mutable Mutex mu_;
  std::unordered_map<uint64_t, SessionState> sessions_ GUARDED_BY(mu_);
  // Evicted sessions: id -> logged watermark floor.  Claims on these
  // answer kSessionExpired.  Entries are small (16 bytes) and dropped by a
  // goodbye; they are the price of never silently re-ingesting.
  std::unordered_map<uint64_t, uint64_t> tombstones_ GUARDED_BY(mu_);
  size_t max_sessions_ GUARDED_BY(mu_) = 0;  // 0 = unbounded
  // Ids of the connections being pumped, and per session the newest
  // connection id bound to it (kept while an older connection is open).
  std::set<uint64_t> open_connections_ GUARDED_BY(mu_);
  std::unordered_map<uint64_t, uint64_t> fences_ GUARDED_BY(mu_);
  uint64_t lru_clock_ GUARDED_BY(mu_) = 0;
  // Borrowed; null = memory-only dedup.  Attached once before serving, then
  // read outside mu_ (the WAL has its own locks).
  IngestWal* wal_ = nullptr;
  std::atomic<uint64_t> evictions_{0};
};

// One connection's acknowledgment ledger.  The balance invariant the
// network tests pin: every valid report frame received on an ack-protocol
// connection gets exactly one response, so
//   stats().frames_report == acked + nacked + duplicates_suppressed
// and `acked` equals the reports this connection durably ingested.
struct ConnectionAckBook {
  uint64_t acked = 0;                  // first-time durable ingests ACKed
  uint64_t nacked = 0;                 // ingest failures / in-flight races NACKed
  uint64_t duplicates_suppressed = 0;  // retries of durable seqs re-ACKed
  // Of `nacked`, how many told the client its session state is gone
  // (kSessionExpired: evicted, terminated, or seq space saturated).
  uint64_t expired_nacked = 0;
  // Of `nacked`, reports rejected as misrouted (cluster routing): the
  // report belongs to another shard group, so it was NACKed kMisrouted
  // with a redirect stamp instead of being ingested here.  The claim was
  // released, never committed — the owning group's ingest is the one that
  // ACKs.
  uint64_t redirects_sent = 0;
  // kGoodbye frames acknowledged.  Kept outside the report balance: the
  // invariant frames_report == acked + nacked + duplicates_suppressed
  // still holds exactly.
  uint64_t goodbyes_acked = 0;
  // Responses that could not be written (the connection died first).  The
  // report's fate is unchanged — a lost ACK's report is still durable, and
  // the client's retry will be suppressed as a duplicate.
  uint64_t response_write_failures = 0;

  void Fold(const ConnectionAckBook& other) {
    acked += other.acked;
    nacked += other.nacked;
    duplicates_suppressed += other.duplicates_suppressed;
    expired_nacked += other.expired_nacked;
    redirects_sent += other.redirects_sent;
    goodbyes_acked += other.goodbyes_acked;
    response_write_failures += other.response_write_failures;
  }
};

// Pumps one ByteStream's frames into a sink.  The decoder reassembles
// frames split across reads and resynchronizes after corruption with the
// exact FrameReader books (frames_ok/frames_corrupt/bytes_skipped).
//
// Two report paths coexist:
//   * legacy (no HELLO seen, or no registry): each report payload goes to
//     the synchronous ReportSink; a sink error aborts the pump.  No acks.
//   * ack protocol (HELLO seen): each report is claimed in the AckRegistry,
//     dispatched through the AsyncSink, and answered with ACK/NACK from the
//     dispatch completion — which may fire on an ingest worker thread after
//     the durable spool append.  Sink failures NACK instead of aborting.
//     Completions only *enqueue* the response; a per-connection writer
//     thread performs the stream writes, so a client that stops draining
//     its receive side stalls its own connection, never a shared ingest
//     worker.
// PumpUntilClosed returns only after every in-flight completion has
// resolved and the response outbox has drained, so stats() and ack_book()
// are final.
class FrameConnection {
 public:
  // Returns non-Ok when a report could not be handed off; on the legacy
  // (ack-less) path the pump stops and the connection surfaces the error.
  using ReportSink = std::function<Status(Bytes)>;
  // Asynchronous hand-off: `done` must be invoked exactly once with the
  // report's final Accept outcome, possibly on another thread.  The
  // ReportContext carries the report's (session, seq) so a WAL-backed sink
  // can fuse the ack commit into the report's own durable record;
  // session_id 0 means ack-less (legacy path).
  using AsyncSink =
      std::function<void(Bytes, ReportContext, std::function<void(const Status&)>)>;
  // Cluster ownership check, consulted only after the dedup claim comes
  // back kNew — a replayed already-durable report is re-ACKed, never
  // redirected, no matter what the current map says.  Returns true when
  // this server's group owns the report; on false it fills the owning
  // group id and the map version that says so, and the report is NACKed
  // kMisrouted (claim released) so the client re-sends it to the owner.
  using RouteCheck =
      std::function<bool(ByteSpan report, uint64_t* target_group, uint64_t* map_version)>;
  // Produces an encoded kGroupMap frame (empty = nothing to announce),
  // pushed to the client right after its HELLO so it learns the topology
  // before the first routing mistake rather than from it.
  using GroupMapProvider = std::function<Bytes()>;

  FrameConnection(ByteStream* stream, ReportSink sink)
      : FrameConnection(stream, std::move(sink), nullptr, nullptr, 0) {}
  // `connection_id` orders this connection among the registry's (accept
  // order, starting at 1); see AckRegistry::BindConnection.
  FrameConnection(ByteStream* stream, ReportSink sink, AsyncSink async_sink,
                  AckRegistry* registry, uint64_t connection_id)
      : stream_(stream),
        sink_(std::move(sink)),
        async_sink_(std::move(async_sink)),
        registry_(registry),
        connection_id_(connection_id) {}

  // Both cluster hooks must be installed before PumpUntilClosed.
  void set_route_check(RouteCheck route_check) { route_check_ = std::move(route_check); }
  void set_group_map_provider(GroupMapProvider provider) {
    group_map_provider_ = std::move(provider);
  }

  // Reads until EOF or a sink/transport error, cutting frames as they
  // complete.  Corrupt frames are skipped with stats kept, never fatal.
  Status PumpUntilClosed();

  const FrameStreamStats& stats() const { return decoder_.stats(); }
  ConnectionAckBook ack_book() const;

 private:
  Status HandleFrame(Frame frame);
  void DispatchAckedReport(Frame frame);
  void EnqueueResponse(Bytes response_frame);
  void WriterLoop();
  void StopWriter();
  void WaitForInflight();

  ByteStream* stream_;  // borrowed
  ReportSink sink_;
  AsyncSink async_sink_;
  AckRegistry* registry_;  // borrowed; null disables the ack protocol
  const uint64_t connection_id_;
  RouteCheck route_check_;              // null = this server owns everything
  GroupMapProvider group_map_provider_; // null = no topology announcements
  StreamingFrameDecoder decoder_;

  bool helloed_ = false;
  uint64_t session_id_ = 0;

  // The response outbox and its writer thread (started lazily with the
  // first response).  Completions — possibly on shared ingest worker
  // threads — only enqueue here; the writer alone touches the stream's
  // write side, so a back-pressured client cannot wedge a worker.
  // out_mu_ also guards the book.
  mutable Mutex out_mu_;
  CondVar out_cv_;
  std::deque<Bytes> outbox_ GUARDED_BY(out_mu_);
  // Started under out_mu_ exactly once; joined only by StopWriter after the
  // writer_stop_ handshake, so the handle itself needs no lock.
  std::thread writer_;
  bool writer_started_ GUARDED_BY(out_mu_) = false;
  bool writer_stop_ GUARDED_BY(out_mu_) = false;
  ConnectionAckBook book_ GUARDED_BY(out_mu_);

  Mutex inflight_mu_;
  CondVar inflight_cv_;
  size_t inflight_ GUARDED_BY(inflight_mu_) = 0;
};

// A listener: serves any number of connections, each pumped on its own
// thread into a shared sink.  Connect() manufactures a loopback connection
// (the in-process stand-in for accept()); Serve() adopts any transport —
// e.g. an FdByteStream wrapping a socket accepted by TcpListener.
class FrameServer {
 public:
  explicit FrameServer(FrameConnection::ReportSink sink) : sink_(std::move(sink)) {}
  // Ack-protocol server: HELLO-bound connections dispatch reports through
  // `async_sink` and acknowledge from its completion; `sink` stays the
  // legacy path for connections that never send HELLO.
  FrameServer(FrameConnection::ReportSink sink, FrameConnection::AsyncSink async_sink)
      : sink_(std::move(sink)), async_sink_(std::move(async_sink)) {}
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  // Mirrors every finished connection's ack book into the frontend's
  // acks_sent/nacks_sent/duplicates_suppressed counters (and, for a
  // cluster group, redirects_sent/misrouted_rejected).
  void BindFrontendStats(FrontendStats* stats);

  // Cluster hooks, installed on every connection served from here on.
  // Set both before the first Connect/Serve; connections already being
  // pumped keep the hooks they started with.
  void set_route_check(FrameConnection::RouteCheck route_check);
  void set_group_map_provider(FrameConnection::GroupMapProvider provider);

  // Opens a loopback connection served on a new thread; returns the client
  // endpoint.  The client writes frames and CloseWrite()s when done.  After
  // Shutdown, the returned endpoint is dead on arrival: the server side is
  // dropped, so writes fail instead of hanging.
  std::unique_ptr<ByteStream> Connect(size_t capacity_bytes = 64 * 1024);

  // Adopts an accepted transport and serves it on a new thread.
  void Serve(std::unique_ptr<ByteStream> stream);

  // Waits for every connection to drain to EOF, then returns the first
  // connection error (if any) with the per-connection stats folded into
  // stats().  Idempotent.
  Status Shutdown();

  // Aggregated framing/ack books across finished connections (call after
  // Shutdown for the complete picture).
  FrameStreamStats stats() const;
  ConnectionAckBook ack_book() const;
  size_t connections() const;

  // Cross-connection duplicate suppression state, shared with every
  // connection this server pumps.
  AckRegistry& registry() { return registry_; }

 private:
  struct Served {
    std::unique_ptr<ByteStream> stream;
    std::thread thread;
    Status status = Status::Ok();
    FrameStreamStats stats;
    ConnectionAckBook book;
  };

  FrameConnection::ReportSink sink_;
  FrameConnection::AsyncSink async_sink_;
  mutable Mutex mu_;
  FrameConnection::RouteCheck route_check_ GUARDED_BY(mu_);
  FrameConnection::GroupMapProvider group_map_provider_ GUARDED_BY(mu_);
  AckRegistry registry_;
  FrontendStats* frontend_stats_ GUARDED_BY(mu_) = nullptr;  // borrowed
  std::vector<std::unique_ptr<Served>> served_ GUARDED_BY(mu_);  // being pumped
  FrameStreamStats stats_ GUARDED_BY(mu_);      // folded at Shutdown
  ConnectionAckBook ack_book_ GUARDED_BY(mu_);  // folded at Shutdown
  size_t connections_ GUARDED_BY(mu_) = 0;      // finished connections
  uint64_t next_connection_id_ GUARDED_BY(mu_) = 1;  // accept order
  bool shut_down_ GUARDED_BY(mu_) = false;  // Serve after Shutdown drops the stream
};

// A real TCP accept loop feeding FrameServer::Serve: bind/listen on an
// address, accept on a dedicated thread, and wrap every accepted socket in
// an FdByteStream.  Port 0 binds an ephemeral port (see port()).
class TcpListener {
 public:
  explicit TcpListener(FrameServer* server) : server_(server) {}
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  Status Start(const std::string& address = "127.0.0.1", uint16_t port = 0);
  // Stops accepting (established connections keep draining through the
  // FrameServer; shut that down separately).  Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }

 private:
  void AcceptLoop();

  FrameServer* server_;  // borrowed
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> accepted_{0};
};

struct FrameClientConfig {
  // Self-chosen session id sent in HELLO; the server's dedup key.  Distinct
  // client *instances* must pick distinct ids — reusing one would collide
  // with the registry's memory of the previous instance's sequence numbers
  // and get fresh reports wrongly suppressed as duplicates.  0 is reserved
  // ("no session"); Connect rejects it.
  uint64_t session_id = 0;
  // Base pause before resending a NACKed batch.  Successive NACKed batches
  // back off exponentially (delay << exponent, capped below) with seeded
  // jitter of up to one base delay, so a fleet of clients hammering a
  // recovering spool spreads out instead of retrying in lockstep.  Any ACK
  // progress resets the exponent.
  std::chrono::milliseconds nack_retry_delay{1};
  std::chrono::milliseconds nack_retry_max_delay{64};
  // Seeds the deterministic jitter stream (tests pin exact schedules).
  uint64_t nack_retry_jitter_seed = 1;
  // Maps the current session id to its successor when the server answers
  // kSessionExpired (the old id's dedup state is gone, so the client must
  // start over under a fresh identity).  Null = splitmix64 of the old id.
  std::function<uint64_t(uint64_t)> session_rotator;
  // How long Close() waits for the server to acknowledge the kGoodbye
  // before giving up and closing anyway (the server's LRU eviction is the
  // backstop for lost goodbyes).
  std::chrono::milliseconds goodbye_timeout{250};
  // Invoked — outside every client lock, on the reader thread — when the
  // server NACKs a report kMisrouted.  The report has already been removed
  // from this client's outstanding set (the redirect stamp names its real
  // owner, so retrying here would only draw another redirect); the handler
  // must deliver it to `target_group`, typically via that group's own
  // FrameClient.  With no handler installed the report is instead retried
  // on this connection like a retryable NACK — lossless, and convergent
  // once the server's map changes in this client's favor.
  std::function<void(Bytes report, uint64_t target_group, uint64_t map_version)>
      redirect_handler;
  // Invoked — outside every client lock, on the reader thread — with each
  // kGroupMap frame's (version, payload), so a cluster-aware caller can
  // refresh its routing table from the server's announcements.
  std::function<void(uint64_t version, Bytes payload)> on_group_map;
};

struct FrameClientStats {
  uint64_t sent = 0;           // first-time report sends
  uint64_t retransmitted = 0;  // resends (reconnect replay or NACK retry)
  uint64_t acked = 0;          // unique seqs confirmed durable
  uint64_t nacked = 0;         // NACK responses received
  uint64_t session_rotations = 0;  // kSessionExpired re-hellos
  uint64_t goodbyes_sent = 0;      // graceful terminations offered
  uint64_t goodbyes_acked = 0;     // ...and confirmed by the server
  // kMisrouted NACKs whose report went to the redirect handler (no longer
  // outstanding here; also counted in `nacked`).
  uint64_t redirected = 0;
  uint64_t group_maps_received = 0;  // kGroupMap announcements seen
};

// The client half of the retry contract: assigns each report a sequence
// number, retains it until ACKed, and — after the connection dies — replays
// everything outstanding over a fresh transport.  Safe to drive from one
// sender thread; an internal reader thread consumes ACK/NACK frames.
class FrameClient {
 public:
  explicit FrameClient(FrameClientConfig config) : config_(config) {}
  ~FrameClient();

  FrameClient(const FrameClient&) = delete;
  FrameClient& operator=(const FrameClient&) = delete;

  // Adopts a fresh transport: sends HELLO, starts the ack reader, and
  // retransmits every outstanding (sent-but-unacked) report in sequence
  // order.  Call again with a new transport after the connection dies —
  // that replay, plus the server's duplicate suppression, is what makes
  // retries exactly-once.
  Status Connect(std::unique_ptr<ByteStream> stream);

  // Hands one sealed report to the client for eventual delivery: it is
  // assigned the next sequence number and retained until ACKed — call this
  // exactly once per report.  A non-Ok status (connection dead, write
  // failed) still leaves the report owned and outstanding; the next
  // Connect replays it.  Re-sending the same report after an error would
  // assign a second sequence number and ingest it twice.
  Status SendReport(Bytes sealed_report);

  // Blocks until every outstanding report is ACKed (true), or the
  // connection dies / the timeout expires (false; Connect again to retry).
  bool WaitForAcks(std::chrono::milliseconds timeout);

  // Graceful termination: when nothing is outstanding, offers the server a
  // kGoodbye (briefly awaiting its ACK, so the server can free this
  // session's dedup state), then half-closes the write side, waits for the
  // server to finish responding and close, and joins the reader.
  void Close();

  bool connected() const;
  size_t outstanding() const;
  FrameClientStats stats() const;
  uint64_t session_id() const;

 private:
  void ReaderLoop(ByteStream* stream);
  void StopReaderLocked() REQUIRES(lifecycle_mu_);
  void MarkDisconnected();
  // Handles a kSessionExpired NACK: adopts a fresh session id, renumbers
  // every outstanding report from seq 0, and re-HELLOs + replays on the
  // current connection.  Runs on the reader thread.
  void RotateSession(ByteStream* stream);

  FrameClientConfig config_;

  // Lock order: lifecycle_mu_ > send_mu_ > mu_ (each may acquire the ones
  // after it, never before; the ACQUIRED_AFTER annotations make a violation
  // a clang -Wthread-safety-beta error).  lifecycle_mu_ serializes
  // Connect/Close (which join the reader — the reader itself never takes
  // it); send_mu_ serializes stream writes (sender thread vs the reader's
  // NACK resend); mu_ guards the bookkeeping.  stream_ is replaced/
  // destroyed only under send_mu_ with the reader joined, so a writer
  // holding send_mu_ may use the pointer it fetched under mu_ without it
  // dangling.
  Mutex lifecycle_mu_;
  Mutex send_mu_ ACQUIRED_AFTER(lifecycle_mu_);
  mutable Mutex mu_ ACQUIRED_AFTER(send_mu_);
  CondVar acked_cv_;
  std::unique_ptr<ByteStream> stream_ GUARDED_BY(mu_);
  std::thread reader_ GUARDED_BY(lifecycle_mu_);
  bool connected_ GUARDED_BY(mu_) = false;
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  std::map<uint64_t, Bytes> outstanding_ GUARDED_BY(mu_);  // seq -> sealed report
  FrameClientStats stats_ GUARDED_BY(mu_);
  // NACK backoff state (reader thread only touches these under mu_).
  uint32_t nack_backoff_exponent_ GUARDED_BY(mu_) = 0;
  uint64_t jitter_state_ GUARDED_BY(mu_) = 0;  // seeded xorshift; 0 = unseeded
  // Goodbye handshake state for Close().
  bool goodbye_pending_ GUARDED_BY(mu_) = false;
  uint64_t goodbye_seq_ GUARDED_BY(mu_) = 0;
  bool goodbye_acked_ GUARDED_BY(mu_) = false;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_CONNECTION_H_
