// Tests for the core ESA layer: report format, encoder, shuffler semantics,
// blind two-shuffler protocol, and analyzer recovery.
#include <gtest/gtest.h>

#include "src/core/analyzer.h"
#include "src/core/blind_shuffler.h"
#include "src/core/encoder.h"
#include "src/core/fragment.h"
#include "src/core/report.h"
#include "src/core/shuffler.h"

namespace prochlo {
namespace {

struct CoreFixture {
  SecureRandom rng{ToBytes("core-test")};
  Rng noise_rng{42};
  KeyPair shuffler_keys{KeyPair::Generate(rng)};
  KeyPair analyzer_keys{KeyPair::Generate(rng)};
};

TEST(ReportTest, PadUnpadRoundTrip) {
  auto padded = PadPayload(ToBytes("hello"), 64);
  ASSERT_TRUE(padded.has_value());
  EXPECT_EQ(padded->size(), 64u);
  auto unpadded = UnpadPayload(*padded);
  ASSERT_TRUE(unpadded.has_value());
  EXPECT_EQ(*unpadded, ToBytes("hello"));
}

TEST(ReportTest, PadRejectsOversizedPayload) {
  EXPECT_FALSE(PadPayload(Bytes(64, 1), 64).has_value());  // needs 4-byte header
  EXPECT_TRUE(PadPayload(Bytes(60, 1), 64).has_value());
}

TEST(ReportTest, SealOpenRoundTrip) {
  CoreFixture fx;
  CrowdPart crowd;
  crowd.mode = CrowdIdMode::kPlainHash;
  crowd.plain_hash = CrowdIdHash("my-crowd");
  auto padded = PadPayload(ToBytes("payload"), 64);
  Bytes report = SealReport(crowd, *padded, fx.shuffler_keys.public_key,
                            fx.analyzer_keys.public_key, fx.rng);

  auto view = OpenReport(fx.shuffler_keys, report);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->crowd.plain_hash, CrowdIdHash("my-crowd"));

  auto inner = OpenInnerBox(fx.analyzer_keys, view->inner_box);
  ASSERT_TRUE(inner.has_value());
  auto payload = UnpadPayload(*inner);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, ToBytes("payload"));
}

TEST(ReportTest, ShufflerCannotReadInnerLayer) {
  CoreFixture fx;
  CrowdPart crowd;
  crowd.plain_hash = 1;
  auto padded = PadPayload(ToBytes("secret"), 64);
  Bytes report = SealReport(crowd, *padded, fx.shuffler_keys.public_key,
                            fx.analyzer_keys.public_key, fx.rng);
  auto view = OpenReport(fx.shuffler_keys, report);
  ASSERT_TRUE(view.has_value());
  // Opening the inner box with the shuffler's key must fail.
  EXPECT_FALSE(OpenInnerBox(fx.shuffler_keys, view->inner_box).has_value());
}

TEST(ReportTest, WrongShufflerKeyFails) {
  CoreFixture fx;
  KeyPair other = KeyPair::Generate(fx.rng);
  CrowdPart crowd;
  crowd.plain_hash = 1;
  auto padded = PadPayload(ToBytes("x"), 64);
  Bytes report = SealReport(crowd, *padded, fx.shuffler_keys.public_key,
                            fx.analyzer_keys.public_key, fx.rng);
  EXPECT_FALSE(OpenReport(other, report).has_value());
}

TEST(ReportTest, ReportsAreEqualSized) {
  CoreFixture fx;
  CrowdPart crowd;
  crowd.plain_hash = 7;
  auto short_payload = PadPayload(ToBytes("a"), 64);
  auto long_payload = PadPayload(ToBytes("a considerably longer value"), 64);
  Bytes r1 = SealReport(crowd, *short_payload, fx.shuffler_keys.public_key,
                        fx.analyzer_keys.public_key, fx.rng);
  Bytes r2 = SealReport(crowd, *long_payload, fx.shuffler_keys.public_key,
                        fx.analyzer_keys.public_key, fx.rng);
  EXPECT_EQ(r1.size(), r2.size());
  EXPECT_EQ(r1.size(), ReportWireSize(64, CrowdIdMode::kPlainHash));
}

TEST(EncoderTest, AttestationGatedKeyExtraction) {
  SecureRandom rng(ToBytes("encoder-attest"));
  IntelRootAuthority intel(rng);
  auto platform = intel.ProvisionPlatform(rng);
  Enclave enclave(EnclaveConfig{}, platform, rng);
  auto key = VerifyShufflerAttestation(enclave.quote(), MeasureCode("prochlo-shuffler"),
                                       intel.root_public());
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key.value(), enclave.keys().public_key);

  auto wrong = VerifyShufflerAttestation(enclave.quote(), MeasureCode("other-code"),
                                         intel.root_public());
  EXPECT_FALSE(wrong.ok());
}

std::vector<Bytes> EncodeValues(Encoder& encoder, const std::vector<std::string>& values,
                                SecureRandom& rng) {
  std::vector<Bytes> reports;
  for (const auto& value : values) {
    auto report = encoder.EncodeValue(value, rng);
    EXPECT_TRUE(report.ok());
    reports.push_back(std::move(report).value());
  }
  return reports;
}

TEST(ShufflerTest, NaiveThresholdDropsSmallCrowds) {
  CoreFixture fx;
  ShufflerConfig config;
  config.threshold_mode = ThresholdMode::kNaive;
  config.policy.threshold = 3;
  Shuffler shuffler(fx.shuffler_keys, config);

  EncoderConfig encoder_config;
  encoder_config.shuffler_public = fx.shuffler_keys.public_key;
  encoder_config.analyzer_public = fx.analyzer_keys.public_key;
  Encoder encoder(encoder_config);

  // "common" x5, "rare" x2.
  std::vector<std::string> values = {"common", "common", "common", "common", "common",
                                     "rare", "rare"};
  auto reports = EncodeValues(encoder, values, fx.rng);
  auto forwarded = shuffler.ProcessBatch(reports, fx.rng, fx.noise_rng);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(forwarded.value().size(), 5u);
  EXPECT_EQ(shuffler.stats().crowds_seen, 2u);
  EXPECT_EQ(shuffler.stats().crowds_forwarded, 1u);
  EXPECT_EQ(shuffler.stats().dropped_threshold, 2u);

  Analyzer analyzer(fx.analyzer_keys);
  auto payloads = analyzer.DecryptBatch(forwarded.value());
  auto histogram = Analyzer::HistogramOfValues(payloads);
  EXPECT_EQ(histogram.size(), 1u);
  EXPECT_EQ(histogram.at("common"), 5u);
}

TEST(ShufflerTest, RandomizedThresholdingDropsNoise) {
  CoreFixture fx;
  ShufflerConfig config;
  config.threshold_mode = ThresholdMode::kRandomized;
  config.policy = ThresholdPolicy{5, 3, 1};  // T=5, drop ~3 per crowd
  Shuffler shuffler(fx.shuffler_keys, config);

  EncoderConfig encoder_config;
  encoder_config.shuffler_public = fx.shuffler_keys.public_key;
  encoder_config.analyzer_public = fx.analyzer_keys.public_key;
  Encoder encoder(encoder_config);

  std::vector<std::string> values(30, "popular");
  auto reports = EncodeValues(encoder, values, fx.rng);
  auto forwarded = shuffler.ProcessBatch(reports, fx.rng, fx.noise_rng);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_LT(forwarded.value().size(), 30u);           // some dropped as noise
  EXPECT_GE(forwarded.value().size(), 20u);           // but most survive
  EXPECT_GT(shuffler.stats().dropped_noise, 0u);
}

TEST(ShufflerTest, MinBatchSizeEnforced) {
  CoreFixture fx;
  ShufflerConfig config;
  config.min_batch_size = 10;
  Shuffler shuffler(fx.shuffler_keys, config);
  std::vector<Bytes> tiny_batch(3, Bytes(100, 0));
  EXPECT_FALSE(shuffler.ProcessBatch(tiny_batch, fx.rng, fx.noise_rng).ok());
}

TEST(ShufflerTest, MalformedReportsAreCounted) {
  CoreFixture fx;
  ShufflerConfig config;
  config.threshold_mode = ThresholdMode::kNone;
  Shuffler shuffler(fx.shuffler_keys, config);

  EncoderConfig encoder_config;
  encoder_config.shuffler_public = fx.shuffler_keys.public_key;
  encoder_config.analyzer_public = fx.analyzer_keys.public_key;
  Encoder encoder(encoder_config);
  auto reports = EncodeValues(encoder, {"a", "b"}, fx.rng);
  reports.push_back(Bytes(reports[0].size(), 0xaa));  // garbage
  auto forwarded = shuffler.ProcessBatch(reports, fx.rng, fx.noise_rng);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(forwarded.value().size(), 2u);
  EXPECT_EQ(shuffler.stats().malformed, 1u);
}

TEST(BlindShufflerTest, EndToEndBlindThresholding) {
  SecureRandom rng(ToBytes("blind-test"));
  Rng noise_rng(7);
  ShufflerConfig config;
  config.threshold_mode = ThresholdMode::kNaive;
  config.policy.threshold = 3;
  BlindShufflerPair pair(rng, config);
  KeyPair analyzer_keys = KeyPair::Generate(rng);

  EncoderConfig encoder_config;
  encoder_config.shuffler_public = pair.shuffler1_public();
  encoder_config.shuffler2_public = pair.shuffler2_elgamal_public();
  encoder_config.analyzer_public = analyzer_keys.public_key;
  encoder_config.crowd_mode = CrowdIdMode::kBlinded;
  Encoder encoder(encoder_config);

  std::vector<std::string> values = {"frequent", "frequent", "frequent", "frequent",
                                     "one-off"};
  std::vector<Bytes> reports;
  for (const auto& value : values) {
    auto report = encoder.EncodeValue(value, rng);
    ASSERT_TRUE(report.ok());
    reports.push_back(std::move(report).value());
  }

  auto forwarded = pair.ProcessBatch(reports, rng, noise_rng);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(forwarded.value().size(), 4u);  // "one-off" crowd dropped
  EXPECT_EQ(pair.stats2().crowds_seen, 2u);
  EXPECT_EQ(pair.stats2().crowds_forwarded, 1u);

  Analyzer analyzer(analyzer_keys);
  auto payloads = analyzer.DecryptBatch(forwarded.value());
  auto histogram = Analyzer::HistogramOfValues(payloads);
  EXPECT_EQ(histogram.at("frequent"), 4u);
}

TEST(BlindShufflerTest, PlainHashReportsRejectedInBlindedPipeline) {
  SecureRandom rng(ToBytes("blind-reject"));
  Rng noise_rng(7);
  ShufflerConfig config;
  config.threshold_mode = ThresholdMode::kNone;
  BlindShufflerPair pair(rng, config);
  KeyPair analyzer_keys = KeyPair::Generate(rng);

  EncoderConfig encoder_config;
  encoder_config.shuffler_public = pair.shuffler1_public();
  encoder_config.analyzer_public = analyzer_keys.public_key;
  encoder_config.crowd_mode = CrowdIdMode::kPlainHash;  // wrong mode
  Encoder encoder(encoder_config);
  auto report = encoder.EncodeValue("x", rng);
  ASSERT_TRUE(report.ok());
  auto forwarded = pair.ProcessBatch({report.value()}, rng, noise_rng);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_TRUE(forwarded.value().empty());
  EXPECT_EQ(pair.stats1().malformed, 1u);
}

TEST(AnalyzerTest, SecretShareRecoveryThreshold) {
  SecureRandom rng(ToBytes("analyzer-ss"));
  SecretSharer sharer(3);
  std::vector<Bytes> payloads;
  // 4 shares of "unlocked", 2 of "locked".
  for (int i = 0; i < 4; ++i) {
    SecureRandom client(ToBytes("c" + std::to_string(i)));
    payloads.push_back(sharer.Encode(ToBytes("unlocked"), client).Serialize());
  }
  for (int i = 0; i < 2; ++i) {
    SecureRandom client(ToBytes("d" + std::to_string(i)));
    payloads.push_back(sharer.Encode(ToBytes("locked"), client).Serialize());
  }
  auto result = Analyzer::RecoverSecretShared(payloads, 3);
  EXPECT_EQ(result.values.size(), 1u);
  EXPECT_EQ(result.values.at("unlocked"), 4u);
  EXPECT_EQ(result.locked_groups, 1u);
  EXPECT_EQ(result.malformed, 0u);
}

TEST(AnalyzerTest, MalformedPayloadsCounted) {
  std::vector<Bytes> payloads = {ToBytes("not a secret share encoding")};
  auto result = Analyzer::RecoverSecretShared(payloads, 2);
  EXPECT_EQ(result.malformed, 1u);
}

// DecryptBatch opens fixed-size chunks on the batched ct ladder: its payload
// order and undecryptable count must not depend on the pool, and every kind
// of bad box must be counted without disturbing its neighbours' slots.  The
// input spans three chunks (the last one partial).
TEST(AnalyzerTest, DecryptBatchIsIdenticalAtAnyThreadCount) {
  CoreFixture fx;
  KeyPair foreign = KeyPair::Generate(fx.rng);
  std::vector<Bytes> boxes;
  std::vector<Bytes> expected;
  uint64_t bad = 0;
  for (int i = 0; i < 600; ++i) {
    Bytes value = ToBytes("value-" + std::to_string(i));
    auto padded = PadPayload(value, 64);
    ASSERT_TRUE(padded.has_value());
    switch (i % 10) {
      case 3:  // sealed to another analyzer's key
        boxes.push_back(
            HybridSeal(foreign.public_key, *padded, kAnalyzerLayerContext, fx.rng).Serialize());
        ++bad;
        break;
      case 5: {  // truncated mid-ciphertext
        Bytes box =
            HybridSeal(fx.analyzer_keys.public_key, *padded, kAnalyzerLayerContext, fx.rng)
                .Serialize();
        box.resize(box.size() - 7);
        boxes.push_back(std::move(box));
        ++bad;
        break;
      }
      case 7:  // malformed: too short to deserialize, or garbage
        boxes.push_back(i % 20 == 7 ? Bytes(12, 0x42) : fx.rng.RandomBytes(160));
        ++bad;
        break;
      default:
        boxes.push_back(
            HybridSeal(fx.analyzer_keys.public_key, *padded, kAnalyzerLayerContext, fx.rng)
                .Serialize());
        expected.push_back(value);
    }
  }

  Analyzer serial(fx.analyzer_keys);
  std::vector<Bytes> reference = serial.DecryptBatch(boxes);
  EXPECT_EQ(reference, expected);
  EXPECT_EQ(serial.stats().received, boxes.size());
  EXPECT_EQ(serial.stats().undecryptable, bad);
  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    Analyzer analyzer(fx.analyzer_keys);
    EXPECT_EQ(analyzer.DecryptBatch(boxes, &pool), reference) << threads << " threads";
    EXPECT_EQ(analyzer.stats().received, boxes.size()) << threads << " threads";
    EXPECT_EQ(analyzer.stats().undecryptable, bad) << threads << " threads";
  }
}

TEST(FragmentTest, PairwiseFragments) {
  std::vector<int> items = {1, 2, 3};
  auto pairs = PairwiseFragments(items);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (std::pair<int, int>{1, 2}));
  EXPECT_EQ(pairs[1], (std::pair<int, int>{1, 3}));
  EXPECT_EQ(pairs[2], (std::pair<int, int>{2, 3}));
  EXPECT_TRUE(PairwiseFragments(std::vector<int>{1}).empty());
}

TEST(FragmentTest, DisjointTuples) {
  std::vector<int> sequence = {1, 2, 3, 4, 5, 6, 7};
  auto tuples = DisjointTuples(sequence, 3);
  ASSERT_EQ(tuples.size(), 2u);  // trailing 7 dropped
  EXPECT_EQ(tuples[0], (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(tuples[1], (std::vector<int>{4, 5, 6}));
  EXPECT_TRUE(DisjointTuples(sequence, 0).empty());
}

TEST(FragmentTest, SampleCapped) {
  Rng rng(3);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sampled = SampleCapped(items, 3, rng);
  EXPECT_EQ(sampled.size(), 3u);
  for (int v : sampled) {
    EXPECT_TRUE(std::find(items.begin(), items.end(), v) != items.end());
  }
  auto unchanged = SampleCapped(items, 100, rng);
  EXPECT_EQ(unchanged.size(), items.size());
}

}  // namespace
}  // namespace prochlo
