#include "src/service/wire.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "src/util/serialization.h"

namespace prochlo {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

uint32_t Crc32Update(uint32_t crc, ByteSpan data) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  for (uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

// CRC over version || type || seq || length || payload, the frame's
// integrity span — everything after the magic.
uint32_t FrameCrc(uint8_t version, uint8_t type, uint64_t seq, uint32_t length,
                  ByteSpan payload) {
  std::array<uint8_t, 14> head = {
      version,
      type,
      static_cast<uint8_t>(seq),
      static_cast<uint8_t>(seq >> 8),
      static_cast<uint8_t>(seq >> 16),
      static_cast<uint8_t>(seq >> 24),
      static_cast<uint8_t>(seq >> 32),
      static_cast<uint8_t>(seq >> 40),
      static_cast<uint8_t>(seq >> 48),
      static_cast<uint8_t>(seq >> 56),
      static_cast<uint8_t>(length),
      static_cast<uint8_t>(length >> 8),
      static_cast<uint8_t>(length >> 16),
      static_cast<uint8_t>(length >> 24),
  };
  uint32_t crc = Crc32Update(0xFFFFFFFFu, ByteSpan(head.data(), head.size()));
  return Crc32Update(crc, payload) ^ 0xFFFFFFFFu;
}

}  // namespace

uint32_t Crc32(ByteSpan data) {
  return Crc32Update(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

bool ParseFrameHeader(ByteSpan data, FrameHeader* out) {
  Reader reader(data);
  return reader.GetU32(&out->magic) && reader.GetU8(&out->version) &&
         reader.GetU8(&out->type) && reader.GetU64(&out->seq) &&
         reader.GetU32(&out->length) && reader.GetU32(&out->crc);
}

void AppendFrame(Bytes& out, FrameType type, uint64_t seq, ByteSpan payload) {
  // Producing a frame the decoder is specified to reject is a caller bug.
  assert(payload.size() <= kMaxFramePayload);
  Writer w;
  w.PutU32(kFrameMagic);
  w.PutU8(kWireVersion);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU64(seq);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(FrameCrc(kWireVersion, static_cast<uint8_t>(type), seq,
                    static_cast<uint32_t>(payload.size()), payload));
  w.PutBytes(payload);
  Bytes frame = w.Take();
  out.insert(out.end(), frame.begin(), frame.end());
}

void AppendFrame(Bytes& out, ByteSpan payload) {
  AppendFrame(out, FrameType::kReport, 0, payload);
}

Bytes EncodeFrame(ByteSpan payload) { return EncodeReportFrame(0, payload); }

Bytes EncodeReportFrame(uint64_t seq, ByteSpan payload) {
  Bytes out;
  out.reserve(FrameWireSize(payload.size()));
  AppendFrame(out, FrameType::kReport, seq, payload);
  return out;
}

Bytes EncodeAckFrame(uint64_t seq) {
  Bytes out;
  out.reserve(FrameWireSize(0));
  AppendFrame(out, FrameType::kAck, seq, ByteSpan());
  return out;
}

Bytes EncodeNackFrame(uint64_t seq, const std::string& message) {
  return EncodeNackFrame(seq, NackReason::kRetryable, message);
}

Bytes EncodeNackFrame(uint64_t seq, NackReason reason, const std::string& message) {
  if (reason == NackReason::kSessionExpired) {
    // Expired NACK payloads always carry the session stamp (0 = unstamped)
    // so ParseNackPayload never has to guess where the message starts.
    return EncodeSessionExpiredNackFrame(seq, 0, message);
  }
  Bytes payload;
  payload.reserve(1 + message.size());
  payload.push_back(static_cast<uint8_t>(reason));
  payload.insert(payload.end(), message.begin(), message.end());
  Bytes out;
  out.reserve(FrameWireSize(payload.size()));
  AppendFrame(out, FrameType::kNack, seq, payload);
  return out;
}

Bytes EncodeSessionExpiredNackFrame(uint64_t seq, uint64_t session_id,
                                    const std::string& message) {
  Bytes payload;
  payload.reserve(9 + message.size());
  payload.push_back(static_cast<uint8_t>(NackReason::kSessionExpired));
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<uint8_t>(session_id >> (8 * i)));
  }
  payload.insert(payload.end(), message.begin(), message.end());
  Bytes out;
  out.reserve(FrameWireSize(payload.size()));
  AppendFrame(out, FrameType::kNack, seq, payload);
  return out;
}

NackInfo ParseNackPayload(ByteSpan payload) {
  NackInfo info;
  if (payload.empty()) {
    return info;
  }
  uint8_t reason = payload[0];
  if (reason >= static_cast<uint8_t>(NackReason::kRetryable) &&
      reason <= static_cast<uint8_t>(NackReason::kMisrouted)) {
    info.reason = static_cast<NackReason>(reason);
    size_t message_start = 1;
    if (info.reason == NackReason::kSessionExpired && payload.size() >= 9) {
      // The expired session's id rides after the reason byte (see
      // NackInfo::session_id); a short payload is an unstamped legacy NACK.
      for (int i = 0; i < 8; ++i) {
        info.session_id |= static_cast<uint64_t>(payload[1 + i]) << (8 * i);
      }
      message_start = 9;
    } else if (info.reason == NackReason::kMisrouted && payload.size() >= 17) {
      // Owning group then map version, LE u64 each (see
      // NackInfo::redirect_group); short payloads degrade to 0/0.
      for (int i = 0; i < 8; ++i) {
        info.redirect_group |= static_cast<uint64_t>(payload[1 + i]) << (8 * i);
        info.map_version |= static_cast<uint64_t>(payload[9 + i]) << (8 * i);
      }
      message_start = 17;
    }
    info.message.assign(payload.begin() + message_start, payload.end());
  } else {
    // Unknown reason byte (version skew): the whole payload is the message
    // and the safe fallback — plain resend — applies.
    info.message.assign(payload.begin(), payload.end());
  }
  return info;
}

Bytes EncodeMisroutedNackFrame(uint64_t seq, uint64_t target_group,
                               uint64_t map_version, const std::string& message) {
  Bytes payload;
  payload.reserve(17 + message.size());
  payload.push_back(static_cast<uint8_t>(NackReason::kMisrouted));
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<uint8_t>(target_group >> (8 * i)));
  }
  for (int i = 0; i < 8; ++i) {
    payload.push_back(static_cast<uint8_t>(map_version >> (8 * i)));
  }
  payload.insert(payload.end(), message.begin(), message.end());
  Bytes out;
  out.reserve(FrameWireSize(payload.size()));
  AppendFrame(out, FrameType::kNack, seq, payload);
  return out;
}

Bytes EncodeGroupMapFrame(uint64_t version, ByteSpan map_payload) {
  Bytes out;
  out.reserve(FrameWireSize(map_payload.size()));
  AppendFrame(out, FrameType::kGroupMap, version, map_payload);
  return out;
}

Bytes EncodeHelloFrame(uint64_t session_id) {
  Bytes out;
  out.reserve(FrameWireSize(0));
  AppendFrame(out, FrameType::kHello, session_id, ByteSpan());
  return out;
}

Bytes EncodeGoodbyeFrame(uint64_t seq) {
  Bytes out;
  out.reserve(FrameWireSize(0));
  AppendFrame(out, FrameType::kGoodbye, seq, ByteSpan());
  return out;
}

Result<Frame> DecodeTypedFrame(ByteSpan frame) {
  Reader reader(frame);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  uint64_t seq = 0;
  uint32_t length = 0;
  uint32_t crc = 0;
  if (!reader.GetU32(&magic) || !reader.GetU8(&version) || !reader.GetU8(&type) ||
      !reader.GetU64(&seq) || !reader.GetU32(&length) || !reader.GetU32(&crc)) {
    return Error{"frame header truncated"};
  }
  if (magic != kFrameMagic) {
    return Error{"bad frame magic"};
  }
  if (version != kWireVersion) {
    return Error{"unsupported frame version"};
  }
  if (!IsKnownFrameType(type)) {
    return Error{"unknown frame type"};
  }
  if (length > kMaxFramePayload) {
    return Error{"frame length exceeds limit"};
  }
  if (reader.remaining() < length) {
    return Error{"frame payload truncated"};
  }
  Frame out;
  out.type = static_cast<FrameType>(type);
  out.seq = seq;
  reader.GetBytes(length, &out.payload);
  if (FrameCrc(version, type, seq, length, out.payload) != crc) {
    return Error{"frame CRC mismatch"};
  }
  return out;
}

Result<Bytes> DecodeFrame(ByteSpan frame) {
  auto decoded = DecodeTypedFrame(frame);
  if (!decoded.ok()) {
    return decoded.error();
  }
  return std::move(decoded).value().payload;
}

namespace {

inline constexpr size_t kNoMagic = static_cast<size_t>(-1);

// Little-endian u32 at `p`; caller guarantees 4 readable bytes.
uint32_t ReadLeU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Index of the first complete 4-byte magic at/after `from`, or kNoMagic if
// none fits in the remaining bytes.
size_t FindMagic(ByteSpan stream, size_t from) {
  while (from + sizeof(kFrameMagic) <= stream.size()) {
    if (ReadLeU32(stream.data() + from) == kFrameMagic) {
      return from;
    }
    ++from;
  }
  return kNoMagic;
}

// Classification of the frame whose magic starts at `pos` — the one resync
// state machine shared by the complete-buffer reader and the streaming
// decoder, so their byte accounting can never drift apart.
enum class FrameProbe {
  kComplete,    // full frame present; *wire_size set (CRC still unchecked)
  kCorrupt,     // header untrustworthy (bad version/type or oversized length)
  kIncomplete,  // plausible header needs more bytes than `stream` holds
};

FrameProbe ProbeFrameAt(ByteSpan stream, size_t pos, size_t* wire_size) {
  FrameHeader header;
  if (!ParseFrameHeader(stream.subspan(pos), &header)) {
    return FrameProbe::kIncomplete;
  }
  if (!PlausibleFrameHeader(header)) {
    return FrameProbe::kCorrupt;
  }
  *wire_size = FrameWireSize(header.length);
  if (pos + *wire_size > stream.size()) {
    return FrameProbe::kIncomplete;
  }
  return FrameProbe::kComplete;
}

}  // namespace

std::optional<Frame> FrameReader::NextFrame() {
  while (pos_ < stream_.size()) {
    // Scan to the next magic; anything in between is garbage.
    size_t magic_at = FindMagic(stream_, pos_);
    if (magic_at == kNoMagic) {
      stats_.bytes_skipped += stream_.size() - pos_;
      saw_corruption_ = saw_corruption_ || pos_ < stream_.size();
      pos_ = stream_.size();
      return std::nullopt;
    }
    if (magic_at != pos_) {
      stats_.bytes_skipped += magic_at - pos_;
      saw_corruption_ = true;
      pos_ = magic_at;
    }

    size_t wire_size = 0;
    if (ProbeFrameAt(stream_, pos_, &wire_size) == FrameProbe::kComplete) {
      auto decoded = DecodeTypedFrame(stream_.subspan(pos_, wire_size));
      if (decoded.ok()) {
        pos_ += wire_size;
        stats_.frames_ok++;
        stats_.CountType(decoded.value().type);
        if (!saw_corruption_) {
          clean_prefix_end_ = pos_;
        }
        return std::move(decoded).value();
      }
    }
    // Corrupt frame at a magic boundary — an untrustworthy header, a frame
    // the buffer's end can never complete, or a CRC mismatch: count it,
    // step past the full 4-byte magic, and resynchronize on the next one.
    // Skipping all four bytes is safe — the magic's bytes are pairwise
    // distinct, so another magic cannot start inside this one — and those
    // bytes are garbage, so they land in bytes_skipped: every input byte
    // stays accounted to a good frame, a corrupt frame's magic, or skipped
    // garbage.
    stats_.frames_corrupt++;
    stats_.bytes_skipped += sizeof(kFrameMagic);
    saw_corruption_ = true;
    pos_ += sizeof(kFrameMagic);
  }
  return std::nullopt;
}

std::optional<Bytes> FrameReader::Next() {
  auto frame = NextFrame();
  if (!frame.has_value()) {
    return std::nullopt;
  }
  return std::move(frame->payload);
}

size_t StreamingFrameDecoder::Feed(ByteSpan chunk, std::vector<Frame>& out) {
  buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
  size_t produced = 0;
  size_t pos = 0;
  while (pos < buffer_.size()) {
    // Scan to the next magic.  Bytes that provably cannot start a magic are
    // garbage now; up to 3 trailing bytes might be a magic's prefix split
    // across chunks, so they stay buffered.
    size_t magic_at = FindMagic(buffer_, pos);
    if (magic_at == kNoMagic) {
      size_t keep = buffer_.size() >= sizeof(kFrameMagic) - 1
                        ? std::max(pos, buffer_.size() - (sizeof(kFrameMagic) - 1))
                        : pos;
      stats_.bytes_skipped += keep - pos;
      pos = keep;
      break;
    }
    stats_.bytes_skipped += magic_at - pos;
    pos = magic_at;

    size_t wire_size = 0;
    FrameProbe probe = ProbeFrameAt(buffer_, pos, &wire_size);
    if (probe == FrameProbe::kIncomplete) {
      break;  // unlike FrameReader, more bytes may still arrive: wait
    }
    if (probe == FrameProbe::kComplete) {
      auto decoded = DecodeTypedFrame(ByteSpan(buffer_.data() + pos, wire_size));
      if (decoded.ok()) {
        stats_.frames_ok++;
        stats_.CountType(decoded.value().type);
        out.push_back(std::move(decoded).value());
        produced++;
        pos += wire_size;
        continue;
      }
    }
    // kCorrupt or CRC mismatch: identical accounting to FrameReader.
    stats_.frames_corrupt++;
    stats_.bytes_skipped += sizeof(kFrameMagic);
    pos += sizeof(kFrameMagic);
  }
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<ptrdiff_t>(pos));
  return produced;
}

void StreamingFrameDecoder::Finish(std::vector<Frame>* out) {
  // Input is over, so no buffered frame can be completed by future bytes.
  // Run the complete-buffer reader over the remainder: a frame Feed was
  // still waiting on is now a torn tail, and FrameReader's resync can even
  // recover a valid frame embedded in its claimed payload.  Folding the
  // reader's books keeps the balance invariant — and the exact stats —
  // identical to FrameReader over the same total byte sequence.
  FrameReader reader(buffer_);
  while (auto frame = reader.NextFrame()) {
    if (out != nullptr) {
      out->push_back(std::move(*frame));
    }
  }
  stats_.Fold(reader.stats());
  buffer_.clear();
}

}  // namespace prochlo
