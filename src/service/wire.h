// The shuffler-frontend wire format: how sealed reports travel from clients
// to the ingestion tier, how the service acknowledges them, and how the
// ingest WAL frames its blocks on disk.
//
// A frame is a versioned, typed, length-prefixed, CRC-checked envelope:
//
//   offset  size  field
//   0       4     magic  0x48435250 ("PRCH", little-endian)
//   4       1     version (kWireVersion)
//   5       1     type (FrameType: report / ack / nack / hello)
//   6       8     sequence number, little-endian u64
//   14      4     payload length, little-endian u32
//   18      4     CRC-32 over version || type || seq || length || payload
//   22      n     payload
//
// Frame types and what their fields mean:
//
//   kReport  client -> server.  payload = the sealed report (the outer
//            HybridBox bytes of report.h); seq = the client's per-session
//            sequence number (0 for a WAL block, which lives on disk and
//            needs no acknowledgment).
//   kAck     server -> client.  seq echoes the report frame's seq; sent only
//            AFTER ShardedIngest::Accept returned Ok, so an ack means the
//            report is durably spooled (report-safe), never merely received.
//   kNack    server -> client.  seq echoes; payload = error message.  The
//            report was NOT ingested and the client should retry it.
//   kHello   client -> server.  seq = the client's self-chosen session id
//            (non-zero; 0 is reserved as "no session"); binds the
//            connection to that id's acknowledgment state so a
//            reconnecting client's retries are deduplicated by seq.
//   kGoodbye client -> server.  The session is complete: every report was
//            acked and the client will never reuse this session id.  The
//            server logs the termination, drops the session's dedup
//            state wholesale, and ACKs the goodbye (echoing its seq) —
//            the fair-termination handshake that lets cooperative clients
//            free server memory instead of waiting out LRU eviction.
//   kGroupMap server -> client.  The cluster's shard-group topology: seq =
//            the map's version (maps only ever grow in version; clients
//            keep the highest they have seen), payload = the serialized
//            GroupMap (src/service/cluster/group_map.h).  Sent after the
//            HELLO ack on clustered servers, and re-sent when the map
//            changes, so clients route reports to the owning group rather
//            than discovering ownership one misrouted NACK at a time.
//
// The CRC covers every header field after the magic, so a corrupt type, seq,
// or length cannot silently mis-frame or mis-route the stream.  The
// streaming reader resynchronizes after corruption by scanning for the next
// magic, and keeps exact books: every byte of input is accounted to either a
// good frame, a corrupt frame, or skipped garbage — there is no silent
// miscount, which the spool's recovery, the shuffler's received-report
// statistics, and the ack-book balance checks all depend on.
#ifndef PROCHLO_SRC_SERVICE_WIRE_H_
#define PROCHLO_SRC_SERVICE_WIRE_H_

#include <cstdint>
#include <string>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace prochlo {

inline constexpr uint32_t kFrameMagic = 0x48435250;  // "PRCH" on the wire
inline constexpr uint8_t kWireVersion = 2;           // v2: typed + sequenced
inline constexpr size_t kFrameHeaderSize = 22;
// Upper bound on a single frame's payload; a corrupt length field beyond
// this is rejected before any allocation is attempted.
inline constexpr size_t kMaxFramePayload = 1u << 24;

enum class FrameType : uint8_t {
  kReport = 1,
  kAck = 2,
  kNack = 3,
  kHello = 4,
  kGoodbye = 5,
  kGroupMap = 6,
};

// True for the types this version understands; anything else makes the
// frame corrupt (counted, skipped, resynchronized past).
constexpr bool IsKnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kReport) &&
         type <= static_cast<uint8_t>(FrameType::kGroupMap);
}

// The ack identity a report carries while it travels through the ingest
// pipeline (connection -> worker pool -> frontend -> WAL): which session's
// which sequence number this report settles.  session_id == 0 means
// "ack-less" — the legacy synchronous sink and spool-internal replays,
// which carry no commit record.
struct ReportContext {
  uint64_t session_id = 0;
  uint64_t seq = 0;
};

// Why a report was NACKed — the first payload byte of every kNack frame,
// followed by a human-readable message.  The client's retry policy branches
// on it: kRetryable and kInFlight resend the same seq (with backoff);
// kSessionExpired means the server no longer holds this session's dedup
// state (LRU-evicted, terminated, or the seq space saturated) and retrying
// the same seq risks a duplicate — the client must re-HELLO with a fresh
// session id and replay its outstanding reports under new seqs.
enum class NackReason : uint8_t {
  kRetryable = 1,       // not ingested (spool error, pool stopping): resend
  kInFlight = 2,        // an earlier send of this seq has not resolved yet
  kSessionExpired = 3,  // session state gone: re-hello with a fresh session
  kMisrouted = 4,       // this group does not own the report: resend to the
                        // stamped target group (redirect, never ingested)
};

// Decoded view of a kNack payload.  Parsing is tolerant: an empty payload
// or an unknown reason byte degrades to kRetryable with the whole payload
// as the message, so a version-skewed peer still gets the safe behavior.
struct NackInfo {
  NackReason reason = NackReason::kRetryable;
  // kSessionExpired only: WHICH session the verdict is about (LE u64 after
  // the reason byte).  After a client rotates, expired NACKs for frames it
  // sent under the previous id keep arriving — the server answers every
  // frame already in the pipe — and acting on one would rotate again and
  // replay reports the new session has already committed (a duplicate
  // ingest).  The stamp lets the client drop those stale verdicts.  0 =
  // unstamped (a peer too old to know): the client rotates conservatively.
  uint64_t session_id = 0;
  // kMisrouted only: which shard group owns the report (LE u64 after the
  // reason byte) and the map version the verdict was made under (LE u64
  // after that).  The report was never ingested here — the client re-sends
  // it to the target group; the version lets it discard redirects issued
  // under a map older than one it already holds.  Short payloads degrade
  // to target 0 / version 0 (an unstamped legacy redirect).
  uint64_t redirect_group = 0;
  uint64_t map_version = 0;
  std::string message;
};
NackInfo ParseNackPayload(ByteSpan payload);

// A decoded frame: type, echoed/assigned sequence number, and payload.
struct Frame {
  FrameType type = FrameType::kReport;
  uint64_t seq = 0;
  Bytes payload;

  bool operator==(const Frame& other) const {
    return type == other.type && seq == other.seq && payload == other.payload;
  }
};

// CRC-32 (ISO-HDLC: reflected 0xEDB88320, init/xorout 0xFFFFFFFF).
uint32_t Crc32(ByteSpan data);

// The fixed-size header, parsed but not yet validated.  One parser serves
// every scanner (the wire decoders' resync probe and the spool's recovery
// scan), so a layout change cannot desynchronize them.
struct FrameHeader {
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  uint64_t seq = 0;
  uint32_t length = 0;
  uint32_t crc = 0;
};

// Parses kFrameHeaderSize bytes; false if `data` is shorter.
bool ParseFrameHeader(ByteSpan data, FrameHeader* out);

// The cheap pre-CRC sanity gate: magic, version, known type, sane length.
inline bool PlausibleFrameHeader(const FrameHeader& header) {
  return header.magic == kFrameMagic && header.version == kWireVersion &&
         IsKnownFrameType(header.type) && header.length <= kMaxFramePayload;
}

// Wire size of a frame carrying `payload_size` bytes.
constexpr size_t FrameWireSize(size_t payload_size) {
  return kFrameHeaderSize + payload_size;
}

// Appends a frame to an existing buffer.  The payload-only overload writes a
// report frame with seq 0 — the WAL's block path, where frames live in
// files and are never acknowledged.
void AppendFrame(Bytes& out, ByteSpan payload);
void AppendFrame(Bytes& out, FrameType type, uint64_t seq, ByteSpan payload);

// Encodes one frame.  EncodeFrame is the seq-0 report convenience.
Bytes EncodeFrame(ByteSpan payload);
Bytes EncodeReportFrame(uint64_t seq, ByteSpan payload);
Bytes EncodeAckFrame(uint64_t seq);
// The message-only overload is the plain "not ingested, resend" NACK.
Bytes EncodeNackFrame(uint64_t seq, const std::string& message);
Bytes EncodeNackFrame(uint64_t seq, NackReason reason, const std::string& message);
// The kSessionExpired NACK, stamped with the session the verdict is about
// (see NackInfo::session_id).
Bytes EncodeSessionExpiredNackFrame(uint64_t seq, uint64_t session_id,
                                    const std::string& message);
// The kMisrouted NACK, stamped with the owning group and the map version
// the routing decision was made under (see NackInfo::redirect_group).
Bytes EncodeMisroutedNackFrame(uint64_t seq, uint64_t target_group,
                               uint64_t map_version, const std::string& message);
// The group-map broadcast: seq carries the map's version, payload the
// serialized GroupMap.
Bytes EncodeGroupMapFrame(uint64_t version, ByteSpan map_payload);
Bytes EncodeHelloFrame(uint64_t session_id);
// seq echoes back in the server's ACK so the client can await it.
Bytes EncodeGoodbyeFrame(uint64_t seq);

// Decodes a buffer holding exactly one frame.  Errors distinguish the
// failure (short header, bad magic, unsupported version, unknown type,
// truncated payload, CRC mismatch) so tests and operators can tell
// tampering from truncation.  DecodeFrame returns the payload alone (the
// spool and legacy stream paths, where every frame is a report);
// DecodeTypedFrame returns the full frame.
Result<Bytes> DecodeFrame(ByteSpan frame);
Result<Frame> DecodeTypedFrame(ByteSpan frame);

struct FrameStreamStats {
  uint64_t frames_ok = 0;       // valid frames of any type
  uint64_t frames_corrupt = 0;  // magic found but frame failed to decode
  // Garbage bytes: resync scans plus the magic of every corrupt frame.  The
  // books balance exactly — once a stream is fully consumed,
  //   sum(FrameWireSize(payload_i) over good frames) + bytes_skipped
  // equals the bytes read (see wire_format_test's balance invariant).
  uint64_t bytes_skipped = 0;
  // Per-type breakdown of frames_ok (their sum equals frames_ok).
  uint64_t frames_report = 0;
  uint64_t frames_ack = 0;
  uint64_t frames_nack = 0;
  uint64_t frames_hello = 0;
  uint64_t frames_goodbye = 0;
  uint64_t frames_group_map = 0;

  void CountType(FrameType type) {
    switch (type) {
      case FrameType::kReport: frames_report++; break;
      case FrameType::kAck: frames_ack++; break;
      case FrameType::kNack: frames_nack++; break;
      case FrameType::kHello: frames_hello++; break;
      case FrameType::kGoodbye: frames_goodbye++; break;
      case FrameType::kGroupMap: frames_group_map++; break;
    }
  }
  void Fold(const FrameStreamStats& other) {
    frames_ok += other.frames_ok;
    frames_corrupt += other.frames_corrupt;
    bytes_skipped += other.bytes_skipped;
    frames_report += other.frames_report;
    frames_ack += other.frames_ack;
    frames_nack += other.frames_nack;
    frames_hello += other.frames_hello;
    frames_goodbye += other.frames_goodbye;
    frames_group_map += other.frames_group_map;
  }
};

// Streaming reader over a byte buffer containing zero or more frames.
// NextFrame() yields each valid frame in order; corrupt frames are skipped
// (with stats kept) by scanning forward for the next magic.  Next() is the
// payload-only view for streams known to hold report frames (files of
// frames, legacy buffers).
class FrameReader {
 public:
  explicit FrameReader(ByteSpan stream) : stream_(stream) {}

  // Next valid frame, or nullopt at end of stream.
  std::optional<Frame> NextFrame();
  // Next valid payload (any type), or nullopt at end of stream.
  std::optional<Bytes> Next();

  const FrameStreamStats& stats() const { return stats_; }

  // Byte offset just past the last frame of the unbroken valid prefix: every
  // frame before it decoded cleanly and no corruption had yet been seen.
  // A log reopened for appends truncates here, discarding a torn tail
  // without touching durable frames.
  size_t clean_prefix_end() const { return clean_prefix_end_; }

 private:
  ByteSpan stream_;
  size_t pos_ = 0;
  size_t clean_prefix_end_ = 0;
  bool saw_corruption_ = false;
  FrameStreamStats stats_;
};

// Incremental reframer for byte-stream transports (FrameConnection): bytes
// arrive in arbitrary chunks — a frame may be split across any number of
// reads — and complete frames are cut as soon as they materialize.
// Corruption handling and the stats books are identical to FrameReader: for
// the same total byte sequence, however chunked, Feed()+Finish() yields the
// same frames and the same frames_ok/frames_corrupt/bytes_skipped balance.
class StreamingFrameDecoder {
 public:
  // Consumes one chunk; appends each completed frame (or its payload, for
  // the legacy overload) to `out` and returns how many were produced.
  // Incomplete trailing bytes stay buffered.
  size_t Feed(ByteSpan chunk, std::vector<Frame>& out);
  size_t Feed(ByteSpan chunk, std::vector<Bytes>& out);

  // End of input: whatever is still buffered can never complete.  The
  // remainder is re-scanned with FrameReader semantics — a frame embedded
  // in a torn frame's claimed payload is recovered (appended to `out` when
  // given), and the torn bytes land in frames_corrupt/bytes_skipped exactly
  // as FrameReader accounts them.
  void Finish();
  void Finish(std::vector<Frame>* out);
  void Finish(std::vector<Bytes>* out);

  // Bytes buffered awaiting the rest of a frame (diagnostics/backpressure).
  size_t buffered_bytes() const { return buffer_.size(); }

  const FrameStreamStats& stats() const { return stats_; }

 private:
  Bytes buffer_;
  FrameStreamStats stats_;
};

}  // namespace prochlo

#endif  // PROCHLO_SRC_SERVICE_WIRE_H_
