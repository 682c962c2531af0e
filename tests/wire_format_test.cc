// Robustness of the ingestion wire format (src/service/wire.h): random
// frames round-trip, truncated and bit-flipped frames are rejected with a
// Status (no crash), and the streaming reader's books balance exactly — a
// corrupt frame is never silently dropped without being counted.
#include <gtest/gtest.h>

#include "src/service/wire.h"
#include "src/util/rng.h"

namespace prochlo {
namespace {

Bytes RandomPayload(Rng& rng, size_t size) {
  Bytes payload(size);
  for (auto& byte : payload) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  return payload;
}

TEST(WireFormatTest, Crc32KnownVector) {
  // CRC-32/ISO-HDLC of "123456789" is the classic check value 0xCBF43926.
  Bytes data = ToBytes("123456789");
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
}

TEST(WireFormatTest, RoundTripFuzz) {
  Rng rng(0x57495245);
  for (int trial = 0; trial < 200; ++trial) {
    size_t size = static_cast<size_t>(rng.NextBelow(2048));
    Bytes payload = RandomPayload(rng, size);
    Bytes frame = EncodeFrame(payload);
    ASSERT_EQ(frame.size(), FrameWireSize(size));
    auto decoded = DecodeFrame(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value(), payload);
  }
}

TEST(WireFormatTest, EveryTruncationRejected) {
  Rng rng(0x5452554e);
  Bytes payload = RandomPayload(rng, 64);
  Bytes frame = EncodeFrame(payload);
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    auto decoded = DecodeFrame(ByteSpan(frame.data(), keep));
    EXPECT_FALSE(decoded.ok()) << "truncation to " << keep << " bytes accepted";
  }
}

TEST(WireFormatTest, EverySingleBitFlipRejected) {
  Rng rng(0x464c4950);
  Bytes payload = RandomPayload(rng, 48);
  Bytes frame = EncodeFrame(payload);
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes corrupted = frame;
      corrupted[byte] ^= static_cast<uint8_t>(1u << bit);
      auto decoded = DecodeFrame(corrupted);
      if (decoded.ok()) {
        // The only acceptance is the identical payload (impossible after a
        // real flip, but keep the check precise).
        EXPECT_NE(decoded.value(), payload)
            << "flip at byte " << byte << " bit " << bit << " accepted";
      }
    }
  }
}

TEST(WireFormatTest, OversizedLengthRejectedWithoutAllocation) {
  Bytes frame = EncodeFrame(ToBytes("x"));
  // Forge a huge length (LE u32 at offset 14); CRC will not even be
  // consulted.
  frame[14] = 0xFF;
  frame[15] = 0xFF;
  frame[16] = 0xFF;
  frame[17] = 0x7F;
  auto decoded = DecodeFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().message, "frame length exceeds limit");
}

TEST(WireFormatTest, UnknownFrameTypeRejected) {
  Bytes frame = EncodeFrame(ToBytes("typed"));
  frame[5] = 0x09;  // not a FrameType this version knows
  auto decoded = DecodeTypedFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().message, "unknown frame type");
}

// ------------------------------------------------------------- typed frames

TEST(WireFormatTest, TypedFramesRoundTrip) {
  Rng rng(0x54595045);
  Bytes report_payload = RandomPayload(rng, 300);

  Bytes report = EncodeReportFrame(/*seq=*/42, report_payload);
  auto report_frame = DecodeTypedFrame(report);
  ASSERT_TRUE(report_frame.ok()) << report_frame.error().message;
  EXPECT_EQ(report_frame.value().type, FrameType::kReport);
  EXPECT_EQ(report_frame.value().seq, 42u);
  EXPECT_EQ(report_frame.value().payload, report_payload);

  Bytes ack = EncodeAckFrame(/*seq=*/0xFFFFFFFF12345678ull);
  ASSERT_EQ(ack.size(), FrameWireSize(0));
  auto ack_frame = DecodeTypedFrame(ack);
  ASSERT_TRUE(ack_frame.ok());
  EXPECT_EQ(ack_frame.value().type, FrameType::kAck);
  EXPECT_EQ(ack_frame.value().seq, 0xFFFFFFFF12345678ull);
  EXPECT_TRUE(ack_frame.value().payload.empty());

  Bytes nack = EncodeNackFrame(/*seq=*/7, "spool append failed");
  auto nack_frame = DecodeTypedFrame(nack);
  ASSERT_TRUE(nack_frame.ok());
  EXPECT_EQ(nack_frame.value().type, FrameType::kNack);
  EXPECT_EQ(nack_frame.value().seq, 7u);
  // The payload leads with the reason byte (the message-only overload
  // defaults to kRetryable), then the human-readable message.
  NackInfo info = ParseNackPayload(nack_frame.value().payload);
  EXPECT_EQ(info.reason, NackReason::kRetryable);
  EXPECT_EQ(info.message, "spool append failed");

  Bytes hello = EncodeHelloFrame(/*session_id=*/0xC0FFEE);
  auto hello_frame = DecodeTypedFrame(hello);
  ASSERT_TRUE(hello_frame.ok());
  EXPECT_EQ(hello_frame.value().type, FrameType::kHello);
  EXPECT_EQ(hello_frame.value().seq, 0xC0FFEEu);

  Bytes goodbye = EncodeGoodbyeFrame(/*seq=*/91);
  ASSERT_EQ(goodbye.size(), FrameWireSize(0));
  auto goodbye_frame = DecodeTypedFrame(goodbye);
  ASSERT_TRUE(goodbye_frame.ok());
  EXPECT_EQ(goodbye_frame.value().type, FrameType::kGoodbye);
  EXPECT_EQ(goodbye_frame.value().seq, 91u);
  EXPECT_TRUE(goodbye_frame.value().payload.empty());
}

TEST(WireFormatTest, NackReasonsRoundTripAndDegradeTolerantly) {
  for (NackReason reason :
       {NackReason::kRetryable, NackReason::kInFlight, NackReason::kSessionExpired}) {
    Bytes frame = EncodeNackFrame(/*seq=*/5, reason, "because");
    auto decoded = DecodeTypedFrame(frame);
    ASSERT_TRUE(decoded.ok());
    NackInfo info = ParseNackPayload(decoded.value().payload);
    EXPECT_EQ(info.reason, reason);
    EXPECT_EQ(info.message, "because");
    EXPECT_EQ(info.session_id, 0u);  // plain encoders stamp "unspecified"
  }
  // The expired NACK carries the id of the session it expired, so a client
  // that already rotated can drop stale verdicts about its previous id.
  {
    Bytes frame = EncodeSessionExpiredNackFrame(/*seq=*/9, 0xFEEDFACECAFEBEEFull,
                                                "session expired");
    auto decoded = DecodeTypedFrame(frame);
    ASSERT_TRUE(decoded.ok());
    NackInfo info = ParseNackPayload(decoded.value().payload);
    EXPECT_EQ(info.reason, NackReason::kSessionExpired);
    EXPECT_EQ(info.session_id, 0xFEEDFACECAFEBEEFull);
    EXPECT_EQ(info.message, "session expired");
    // An unstamped (legacy, <9-byte) expired payload parses as session 0.
    Bytes legacy = {static_cast<uint8_t>(NackReason::kSessionExpired), 'x'};
    NackInfo unstamped = ParseNackPayload(legacy);
    EXPECT_EQ(unstamped.reason, NackReason::kSessionExpired);
    EXPECT_EQ(unstamped.session_id, 0u);
    EXPECT_EQ(unstamped.message, "x");
  }
  // Tolerant parsing: an empty payload and an unknown reason byte both
  // degrade to kRetryable (the safe behavior for a version-skewed peer),
  // the latter keeping the whole payload as the message.
  NackInfo empty = ParseNackPayload(ByteSpan());
  EXPECT_EQ(empty.reason, NackReason::kRetryable);
  EXPECT_TRUE(empty.message.empty());
  Bytes unknown = ToBytes("xlegacy message");
  unknown[0] = 0x7F;  // not a known reason byte
  NackInfo degraded = ParseNackPayload(unknown);
  EXPECT_EQ(degraded.reason, NackReason::kRetryable);
  EXPECT_EQ(degraded.message.size(), unknown.size());
}

TEST(WireFormatTest, MisroutedNackRoundTripsOwnerAndMapVersion) {
  Bytes frame = EncodeMisroutedNackFrame(/*seq=*/88, /*target_group=*/0xBEEFull,
                                         /*map_version=*/17, "misrouted; resend");
  auto decoded = DecodeTypedFrame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, FrameType::kNack);
  EXPECT_EQ(decoded.value().seq, 88u);
  NackInfo info = ParseNackPayload(decoded.value().payload);
  EXPECT_EQ(info.reason, NackReason::kMisrouted);
  EXPECT_EQ(info.redirect_group, 0xBEEFull);
  EXPECT_EQ(info.map_version, 17u);
  EXPECT_EQ(info.message, "misrouted; resend");
  // An unstamped misrouted payload (version-skewed peer) degrades to group 0
  // / version 0 rather than misparsing message bytes as the stamps.
  Bytes legacy = {static_cast<uint8_t>(NackReason::kMisrouted), 'm'};
  NackInfo unstamped = ParseNackPayload(legacy);
  EXPECT_EQ(unstamped.reason, NackReason::kMisrouted);
  EXPECT_EQ(unstamped.redirect_group, 0u);
  EXPECT_EQ(unstamped.map_version, 0u);
}

TEST(WireFormatTest, GroupMapFrameRoundTripsVersionAndPayload) {
  Rng rng(0x474d4150);
  Bytes map_payload = RandomPayload(rng, 120);
  Bytes frame = EncodeGroupMapFrame(/*version=*/9, map_payload);
  auto decoded = DecodeTypedFrame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, FrameType::kGroupMap);
  EXPECT_EQ(decoded.value().seq, 9u);  // seq carries the map version
  EXPECT_EQ(decoded.value().payload, map_payload);
}

TEST(WireFormatTest, EveryTruncationOfControlFramesRejected) {
  for (const Bytes& frame :
       {EncodeAckFrame(1234), EncodeNackFrame(99, "why"), EncodeHelloFrame(0xABCD),
        EncodeGoodbyeFrame(77), EncodeMisroutedNackFrame(5, 2, 3, "go"),
        EncodeGroupMapFrame(4, ToBytes("map"))}) {
    for (size_t keep = 0; keep < frame.size(); ++keep) {
      auto decoded = DecodeTypedFrame(ByteSpan(frame.data(), keep));
      EXPECT_FALSE(decoded.ok()) << "truncation to " << keep << " bytes accepted";
    }
  }
}

TEST(WireFormatTest, EverySingleBitFlipOfControlFramesRejected) {
  // ACK/NACK frames steer the client's retry decisions, so a flipped seq or
  // type must never decode: the CRC covers every header field after the
  // magic (and a flipped magic makes the buffer garbage, not a frame).
  for (const Bytes& frame :
       {EncodeAckFrame(0x123456789ABCDEFull), EncodeNackFrame(31337, "retry"),
        EncodeGoodbyeFrame(4242), EncodeMisroutedNackFrame(8, 1, 2, "owner"),
        EncodeGroupMapFrame(11, ToBytes("topology"))}) {
    auto original = DecodeTypedFrame(frame);
    ASSERT_TRUE(original.ok());
    for (size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes corrupted = frame;
        corrupted[byte] ^= static_cast<uint8_t>(1u << bit);
        auto decoded = DecodeTypedFrame(corrupted);
        EXPECT_FALSE(decoded.ok())
            << "flip at byte " << byte << " bit " << bit << " accepted";
      }
    }
  }
}

TEST(WireFormatTest, ReaderYieldsAllFramesInOrder) {
  Rng rng(0x524541);
  std::vector<Bytes> payloads;
  Bytes stream;
  for (int i = 0; i < 50; ++i) {
    payloads.push_back(RandomPayload(rng, 16 + static_cast<size_t>(rng.NextBelow(100))));
    AppendFrame(stream, payloads.back());
  }
  FrameReader reader(stream);
  for (const auto& expected : payloads) {
    auto got = reader.Next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expected);
  }
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.stats().frames_ok, 50u);
  EXPECT_EQ(reader.stats().frames_corrupt, 0u);
  EXPECT_EQ(reader.stats().bytes_skipped, 0u);
  EXPECT_EQ(reader.clean_prefix_end(), stream.size());
}

TEST(WireFormatTest, ReaderSkipsCorruptFrameAndResynchronizes) {
  Rng rng(0x534b4950);
  Bytes a = RandomPayload(rng, 40);
  Bytes b = RandomPayload(rng, 40);
  Bytes c = RandomPayload(rng, 40);
  Bytes stream;
  AppendFrame(stream, a);
  size_t b_start = stream.size();
  AppendFrame(stream, b);
  AppendFrame(stream, c);
  // Corrupt a payload byte of frame b.
  stream[b_start + kFrameHeaderSize + 3] ^= 0x40;

  FrameReader reader(stream);
  auto first = reader.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, a);
  auto second = reader.Next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, c);  // b skipped, c recovered
  EXPECT_FALSE(reader.Next().has_value());

  // No silent miscount: exactly one corrupt frame on the books, and the
  // clean prefix ends before the corruption.
  EXPECT_EQ(reader.stats().frames_ok, 2u);
  EXPECT_GE(reader.stats().frames_corrupt, 1u);
  EXPECT_EQ(reader.clean_prefix_end(), b_start);
}

TEST(WireFormatTest, ReaderSkipsLeadingAndTrailingGarbage) {
  Rng rng(0x47415242);
  Bytes payload = RandomPayload(rng, 32);
  Bytes stream = RandomPayload(rng, 17);
  // Ensure the garbage prefix cannot alias a magic (clear any 'P').
  for (auto& byte : stream) {
    if (byte == 0x50) {
      byte = 0;
    }
  }
  size_t garbage_prefix = stream.size();
  AppendFrame(stream, payload);
  stream.push_back(0xDE);
  stream.push_back(0xAD);

  FrameReader reader(stream);
  auto got = reader.Next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.stats().frames_ok, 1u);
  EXPECT_EQ(reader.stats().bytes_skipped, garbage_prefix + 2);
  // Corruption precedes the first good frame, so the clean prefix is empty.
  EXPECT_EQ(reader.clean_prefix_end(), 0u);
}

TEST(WireFormatTest, StatsBalanceOnCorruptFrameThenValidFrame) {
  // The balance invariant: once the stream is fully consumed, every input
  // byte is accounted to exactly one of a decoded frame's wire bytes or
  // bytes_skipped (which includes corrupt frames' magic bytes).
  Rng rng(0x42414c41);
  Bytes good_a = RandomPayload(rng, 48);
  Bytes bad = RandomPayload(rng, 32);
  Bytes good_b = RandomPayload(rng, 27);
  Bytes stream;
  AppendFrame(stream, good_a);
  size_t bad_start = stream.size();
  AppendFrame(stream, bad);
  stream[bad_start + 9] ^= 0xFF;  // corrupt the CRC field itself
  AppendFrame(stream, good_b);

  FrameReader reader(stream);
  size_t good_wire_bytes = 0;
  std::vector<Bytes> yielded;
  while (auto payload = reader.Next()) {
    good_wire_bytes += FrameWireSize(payload->size());
    yielded.push_back(std::move(*payload));
  }
  ASSERT_EQ(yielded.size(), 2u);
  EXPECT_EQ(yielded[0], good_a);
  EXPECT_EQ(yielded[1], good_b);  // resynchronized past the corrupt frame
  EXPECT_EQ(reader.stats().frames_ok, 2u);
  EXPECT_EQ(reader.stats().frames_corrupt, 1u);
  // The corrupt frame's full wire size lands in bytes_skipped: its 4 magic
  // bytes when the decode fails, the rest during the resync scan.
  EXPECT_EQ(reader.stats().bytes_skipped, FrameWireSize(bad.size()));
  EXPECT_EQ(good_wire_bytes + reader.stats().bytes_skipped, stream.size());
  EXPECT_EQ(reader.clean_prefix_end(), bad_start);
}

TEST(WireFormatTest, StatsBalanceAcrossMixedGarbageAndFrames) {
  // Garbage prefix + good frame + corrupt frame + garbage + good frame +
  // torn tail: the books must still balance exactly.
  Rng rng(0x4d495845);
  Bytes a = RandomPayload(rng, 20);
  Bytes b = RandomPayload(rng, 33);
  Bytes c = RandomPayload(rng, 41);
  Bytes stream = RandomPayload(rng, 11);
  for (auto& byte : stream) {
    if (byte == 0x50) {
      byte = 0;  // keep the garbage free of magic aliases
    }
  }
  AppendFrame(stream, a);
  size_t bad_start = stream.size();
  AppendFrame(stream, b);
  stream[bad_start + kFrameHeaderSize + 1] ^= 0x04;  // payload corruption
  stream.push_back(0x00);
  stream.push_back(0x13);
  AppendFrame(stream, c);
  AppendFrame(stream, RandomPayload(rng, 60));
  stream.resize(stream.size() - 30);  // torn tail

  FrameReader reader(stream);
  size_t good_wire_bytes = 0;
  size_t frames = 0;
  while (auto payload = reader.Next()) {
    good_wire_bytes += FrameWireSize(payload->size());
    frames++;
  }
  EXPECT_EQ(frames, 2u);
  EXPECT_EQ(reader.stats().frames_ok, 2u);
  EXPECT_GE(reader.stats().frames_corrupt, 2u);  // corrupt frame + torn tail
  EXPECT_EQ(good_wire_bytes + reader.stats().bytes_skipped, stream.size());
}

TEST(WireFormatTest, TruncatedFinalFrameLeavesCleanPrefixIntact) {
  Rng rng(0x544f524e);
  Bytes a = RandomPayload(rng, 64);
  Bytes b = RandomPayload(rng, 64);
  Bytes stream;
  AppendFrame(stream, a);
  size_t clean_end = stream.size();
  AppendFrame(stream, b);
  stream.resize(stream.size() - 10);  // torn tail, as after a crash

  FrameReader reader(stream);
  auto got = reader.Next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, a);
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.stats().frames_ok, 1u);
  EXPECT_GE(reader.stats().frames_corrupt, 1u);
  EXPECT_EQ(reader.clean_prefix_end(), clean_end);
}

// ------------------------------------------------- incremental reframing

// Chunked delivery through StreamingFrameDecoder must be equivalent to
// FrameReader over the whole buffer: same payloads, same books — for any
// chunking of any stream (valid frames, corrupt frames, garbage, torn
// tails).
void ExpectDecoderMatchesReader(const Bytes& stream, size_t chunk_size) {
  FrameReader reader(stream);
  std::vector<Bytes> expected;
  while (auto payload = reader.Next()) {
    expected.push_back(std::move(*payload));
  }

  StreamingFrameDecoder decoder;
  std::vector<Frame> frames;
  for (size_t off = 0; off < stream.size(); off += chunk_size) {
    size_t len = std::min(chunk_size, stream.size() - off);
    decoder.Feed(ByteSpan(stream.data() + off, len), frames);
  }
  decoder.Finish(&frames);
  std::vector<Bytes> got;
  for (Frame& frame : frames) {
    got.push_back(std::move(frame.payload));
  }

  EXPECT_EQ(got, expected) << "chunk=" << chunk_size;
  EXPECT_EQ(decoder.stats().frames_ok, reader.stats().frames_ok) << "chunk=" << chunk_size;
  EXPECT_EQ(decoder.stats().frames_corrupt, reader.stats().frames_corrupt)
      << "chunk=" << chunk_size;
  EXPECT_EQ(decoder.stats().bytes_skipped, reader.stats().bytes_skipped)
      << "chunk=" << chunk_size;
  // Balance carries over to the chunked stream.
  size_t good_bytes = 0;
  for (const auto& payload : got) {
    good_bytes += FrameWireSize(payload.size());
  }
  EXPECT_EQ(good_bytes + decoder.stats().bytes_skipped, stream.size());
}

TEST(WireFormatTest, StreamingDecoderMatchesReaderOnCleanStream) {
  Rng rng(0x57a11);
  Bytes stream;
  for (int i = 0; i < 20; ++i) {
    AppendFrame(stream, RandomPayload(rng, 1 + static_cast<size_t>(rng.NextBelow(200))));
  }
  for (size_t chunk : {1u, 2u, 3u, 7u, 13u, 64u, 4096u}) {
    ExpectDecoderMatchesReader(stream, chunk);
  }
}

TEST(WireFormatTest, StreamingDecoderMatchesReaderOnCorruptStream) {
  Rng rng(0x57a12);
  Bytes stream;
  stream.insert(stream.end(), {0x01, 0x02, 0x03});  // leading garbage
  AppendFrame(stream, RandomPayload(rng, 40));
  size_t corrupt_at = stream.size();
  AppendFrame(stream, RandomPayload(rng, 33));
  stream[corrupt_at + kFrameHeaderSize + 5] ^= 0x80;  // CRC failure
  stream.insert(stream.end(), {0xAA, 0xBB});          // inter-frame garbage
  AppendFrame(stream, RandomPayload(rng, 64));
  size_t bad_version_at = stream.size();
  AppendFrame(stream, RandomPayload(rng, 10));
  stream[bad_version_at + 4] = 0x7F;  // unsupported version
  AppendFrame(stream, RandomPayload(rng, 12));
  AppendFrame(stream, RandomPayload(rng, 80));
  stream.resize(stream.size() - 11);  // torn tail

  for (size_t chunk : {1u, 2u, 5u, 13u, 31u, 4096u}) {
    ExpectDecoderMatchesReader(stream, chunk);
  }
}

TEST(WireFormatTest, StreamingDecoderFuzzedChunkingMatchesReader) {
  Rng rng(0x57a13);
  for (int round = 0; round < 30; ++round) {
    Bytes stream;
    int pieces = 1 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < pieces; ++i) {
      switch (rng.NextBelow(4)) {
        case 0:  // valid frame
          AppendFrame(stream, RandomPayload(rng, 1 + static_cast<size_t>(rng.NextBelow(120))));
          break;
        case 1: {  // corrupt frame (bit flip anywhere)
          size_t at = stream.size();
          AppendFrame(stream, RandomPayload(rng, 1 + static_cast<size_t>(rng.NextBelow(60))));
          size_t idx = at + static_cast<size_t>(rng.NextBelow(stream.size() - at));
          stream[idx] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
          break;
        }
        case 2:  // garbage run
          for (int b = 0; b < 9; ++b) {
            stream.push_back(static_cast<uint8_t>(rng.Next()));
          }
          break;
        default: {  // torn frame
          Bytes frame = EncodeFrame(RandomPayload(rng, 30));
          frame.resize(1 + rng.NextBelow(frame.size() - 1));
          stream.insert(stream.end(), frame.begin(), frame.end());
          break;
        }
      }
    }
    size_t chunk = 1 + static_cast<size_t>(rng.NextBelow(40));
    ExpectDecoderMatchesReader(stream, chunk);
  }
}

// Typed equivalence: for any chunking of any stream interleaving report,
// ACK, NACK, and HELLO frames (plus corruption, garbage, and torn frames),
// the streaming decoder must yield the same typed frames — type, seq, and
// payload — and the same books, including the per-type counters, as
// FrameReader over the whole buffer.
void ExpectTypedDecoderMatchesReader(const Bytes& stream, size_t chunk_size) {
  FrameReader reader(stream);
  std::vector<Frame> expected;
  while (auto frame = reader.NextFrame()) {
    expected.push_back(std::move(*frame));
  }

  StreamingFrameDecoder decoder;
  std::vector<Frame> got;
  for (size_t off = 0; off < stream.size(); off += chunk_size) {
    size_t len = std::min(chunk_size, stream.size() - off);
    decoder.Feed(ByteSpan(stream.data() + off, len), got);
  }
  decoder.Finish(&got);

  ASSERT_EQ(got.size(), expected.size()) << "chunk=" << chunk_size;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "frame " << i << " chunk=" << chunk_size;
  }
  EXPECT_EQ(decoder.stats().frames_ok, reader.stats().frames_ok) << "chunk=" << chunk_size;
  EXPECT_EQ(decoder.stats().frames_corrupt, reader.stats().frames_corrupt)
      << "chunk=" << chunk_size;
  EXPECT_EQ(decoder.stats().bytes_skipped, reader.stats().bytes_skipped)
      << "chunk=" << chunk_size;
  EXPECT_EQ(decoder.stats().frames_report, reader.stats().frames_report);
  EXPECT_EQ(decoder.stats().frames_ack, reader.stats().frames_ack);
  EXPECT_EQ(decoder.stats().frames_nack, reader.stats().frames_nack);
  EXPECT_EQ(decoder.stats().frames_hello, reader.stats().frames_hello);
  EXPECT_EQ(decoder.stats().frames_goodbye, reader.stats().frames_goodbye);
  EXPECT_EQ(decoder.stats().frames_group_map, reader.stats().frames_group_map);
  // The per-type counters partition frames_ok, and the balance invariant
  // carries over to typed streams.
  EXPECT_EQ(reader.stats().frames_report + reader.stats().frames_ack +
                reader.stats().frames_nack + reader.stats().frames_hello +
                reader.stats().frames_goodbye + reader.stats().frames_group_map,
            reader.stats().frames_ok);
  size_t good_bytes = 0;
  for (const auto& frame : got) {
    good_bytes += FrameWireSize(frame.payload.size());
  }
  EXPECT_EQ(good_bytes + decoder.stats().bytes_skipped, stream.size());
}

TEST(WireFormatTest, InterleavedTypedFramesFuzzedChunkingMatchesReader) {
  Rng rng(0x41434b53);
  for (int round = 0; round < 40; ++round) {
    Bytes stream;
    int pieces = 2 + static_cast<int>(rng.NextBelow(10));
    for (int i = 0; i < pieces; ++i) {
      switch (rng.NextBelow(8)) {
        case 0:  // report frame with a live sequence number
          AppendFrame(stream, FrameType::kReport, rng.Next(),
                      RandomPayload(rng, 1 + static_cast<size_t>(rng.NextBelow(120))));
          break;
        case 1: {  // ack
          Bytes ack = EncodeAckFrame(rng.Next());
          stream.insert(stream.end(), ack.begin(), ack.end());
          break;
        }
        case 2: {  // nack: plain retryable or a stamped misrouted redirect
          Bytes nack = rng.NextBelow(2) == 0
                           ? EncodeNackFrame(rng.Next(), "nack-" + std::to_string(i))
                           : EncodeMisroutedNackFrame(rng.Next(), rng.Next(), rng.Next(),
                                                      "owner-" + std::to_string(i));
          stream.insert(stream.end(), nack.begin(), nack.end());
          break;
        }
        case 3: {  // hello, goodbye, or a group-map announcement
          Bytes control;
          switch (rng.NextBelow(3)) {
            case 0: control = EncodeHelloFrame(rng.Next()); break;
            case 1: control = EncodeGoodbyeFrame(rng.Next()); break;
            default:
              control = EncodeGroupMapFrame(rng.Next(),
                                            RandomPayload(rng, 8 + rng.NextBelow(64)));
              break;
          }
          stream.insert(stream.end(), control.begin(), control.end());
          break;
        }
        case 4: {  // corrupt frame of a random type (bit flip anywhere)
          size_t at = stream.size();
          AppendFrame(stream, static_cast<FrameType>(1 + rng.NextBelow(6)), rng.Next(),
                      RandomPayload(rng, static_cast<size_t>(rng.NextBelow(60))));
          size_t idx = at + static_cast<size_t>(rng.NextBelow(stream.size() - at));
          stream[idx] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
          break;
        }
        case 5: {  // unknown frame type (header-corrupt, resynced past)
          size_t at = stream.size();
          AppendFrame(stream, FrameType::kReport, rng.Next(), RandomPayload(rng, 20));
          // 7.. is past kGroupMap, the highest known type in this version.
          stream[at + 5] = static_cast<uint8_t>(7 + rng.NextBelow(199));
          break;
        }
        case 6:  // garbage run
          for (int b = 0; b < 7; ++b) {
            stream.push_back(static_cast<uint8_t>(rng.Next()));
          }
          break;
        default: {  // torn frame (ack tails are header-only and tear too)
          Bytes frame = rng.NextBool(0.5)
                            ? EncodeAckFrame(rng.Next())
                            : EncodeReportFrame(rng.Next(), RandomPayload(rng, 30));
          frame.resize(1 + rng.NextBelow(frame.size() - 1));
          stream.insert(stream.end(), frame.begin(), frame.end());
          break;
        }
      }
    }
    size_t chunk = 1 + static_cast<size_t>(rng.NextBelow(48));
    ExpectTypedDecoderMatchesReader(stream, chunk);
  }
}

TEST(WireFormatTest, StreamingDecoderCutsFrameTheMomentItCompletes) {
  Bytes frame = EncodeFrame(ToBytes("prompt"));
  StreamingFrameDecoder decoder;
  std::vector<Frame> out;
  // Everything but the last byte: nothing can be produced yet.
  EXPECT_EQ(decoder.Feed(ByteSpan(frame.data(), frame.size() - 1), out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(decoder.buffered_bytes(), frame.size() - 1);
  // The final byte completes the frame immediately — no Finish needed.
  EXPECT_EQ(decoder.Feed(ByteSpan(frame.data() + frame.size() - 1, 1), out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(ToString(out[0].payload), "prompt");
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

}  // namespace
}  // namespace prochlo
