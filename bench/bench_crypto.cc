// Crypto microbenchmarks (google-benchmark): the primitive costs that drive
// the pipeline tables, plus the §5.2 claim that secret-share encoding costs
// the client "less than 50 µs per encoding" (with OpenSSL; our from-scratch
// field arithmetic is the constant to compare against).
#include <benchmark/benchmark.h>

#include "bench/json_out.h"
#include "src/core/report.h"
#include "src/crypto/ecdsa.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/hash_to_curve.h"
#include "src/crypto/p256_field.h"
#include "src/crypto/secret_share.h"
#include "src/crypto/sha256.h"

namespace prochlo {
namespace {

void BM_Sha256_1KB(benchmark::State& state) {
  Bytes data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KB);

void BM_AesGcmSeal_318B(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench"));
  AesGcm aead(rng.RandomBytes(16));
  Bytes plaintext(318, 0x55);
  GcmNonce nonce = rng.RandomNonce();
  for (auto _ : state) {
    benchmark::DoNotOptimize(aead.Seal(nonce, plaintext, {}));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 318);
}
BENCHMARK(BM_AesGcmSeal_318B);

// One P-256 Montgomery multiplication, chained so each call waits for the
// previous result (latency, the way the point formulas use it).  Inputs are
// drawn at run time so nothing folds away.
void BM_FieldMontMul(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-field"));
  const ModField& f = P256::Get().field();
  U256 acc = rng.RandomScalar(f.modulus());
  const U256 b = rng.RandomScalar(f.modulus());
  for (auto _ : state) {
    acc = f.MontMul(acc, b);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FieldMontMul);

// One P-256 Montgomery squaring, chained the same way.
void BM_FieldMontSqr(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-field-sqr"));
  const ModField& f = P256::Get().field();
  U256 acc = rng.RandomScalar(f.modulus());
  for (auto _ : state) {
    acc = f.MontSqr(acc);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FieldMontSqr);

// One P-256 field addition and one subtraction (the field core itself, not
// ModField), chained the same way.
void BM_FieldAdd(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-field-add"));
  U256 acc = rng.RandomScalar(p256_field::kPrime);
  const U256 b = rng.RandomScalar(p256_field::kPrime);
  for (auto _ : state) {
    acc = p256_field::Add(acc, b);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FieldAdd);

void BM_FieldSub(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-field-sub"));
  U256 acc = rng.RandomScalar(p256_field::kPrime);
  const U256 b = rng.RandomScalar(p256_field::kPrime);
  for (auto _ : state) {
    acc = p256_field::Sub(acc, b);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FieldSub);

// Two independent MontMul chains per iteration, reported per multiplication:
// what a second point in lockstep gains when the core overlaps the chains.
void BM_FieldMontMul2(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-field-2"));
  const ModField& f = P256::Get().field();
  U256 acc0 = rng.RandomScalar(f.modulus());
  U256 acc1 = rng.RandomScalar(f.modulus());
  const U256 b = rng.RandomScalar(f.modulus());
  for (auto _ : state) {
    acc0 = f.MontMul(acc0, b);
    acc1 = f.MontMul(acc1, b);
    benchmark::DoNotOptimize(acc0);
    benchmark::DoNotOptimize(acc1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_FieldMontMul2);

// Variable-base multiplication (wNAF) with a public scalar against an
// arbitrary point — nothing to precompute.
void BM_P256_ScalarMult(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-ec"));
  const P256& curve = P256::Get();
  U256 k = rng.RandomScalar(curve.order());
  EcPoint p = curve.generator();
  for (auto _ : state) {
    p = curve.ScalarMult(p, k);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_P256_ScalarMult);

// The constant-time ladder for Secret<> scalars (fixed-window, full-scan
// masked lookups) on one point: a batch of one, so it pays the table
// normalization and the Fermat output inversion alone.
void BM_P256_ScalarMultSecret(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-ec-ct"));
  const P256& curve = P256::Get();
  Secret<U256> k = rng.RandomSecretScalar(curve.order());
  EcPoint p = curve.generator();
  for (auto _ : state) {
    p = curve.ScalarMultSecret(p, k);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_P256_ScalarMultSecret);

// The pre-wNAF reference ladder (plain double-and-add, one bit at a time):
// the baseline the wNAF and batched paths are cross-checked against.
void BM_P256_ScalarMult_DoubleAdd(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-ec-ref"));
  const P256& curve = P256::Get();
  U256 k = rng.RandomScalar(curve.order());
  EcPoint p = curve.generator();
  for (auto _ : state) {
    p = curve.FromJacobian(curve.JacScalarMultReference(curve.ToJacobian(p), k));
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_P256_ScalarMult_DoubleAdd);

// Batched variable-base multiplication on the public lane, in the open
// shape: 256 distinct points, one scalar.  All odd-multiple wNAF tables are
// normalized with one shared inversion (mixed additions in every main loop)
// and the results with a second.
void BM_P256_BatchScalarMult256(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-ec-batchvar"));
  const P256& curve = P256::Get();
  U256 k = rng.RandomScalar(curve.order());
  std::vector<EcPoint> points;
  for (int i = 0; i < 256; ++i) {
    points.push_back(curve.BaseMult(rng.RandomScalar(curve.order())));
  }
  std::vector<U256> scalars(points.size(), k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.BatchScalarMult(points, scalars));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_P256_BatchScalarMult256);

// The same shape on the constant-time lane: one Secret<> scalar, 256
// distinct points — the private-key open of both report layers.  Tables
// share one inversion, the results one Fermat inversion.
void BM_P256_BatchScalarMultSecret256(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-ec-batchsecret"));
  const P256& curve = P256::Get();
  Secret<U256> k = rng.RandomSecretScalar(curve.order());
  std::vector<EcPoint> points;
  for (int i = 0; i < 256; ++i) {
    points.push_back(curve.BaseMult(rng.RandomScalar(curve.order())));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.BatchScalarMultSecret(points, k));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_P256_BatchScalarMultSecret256);

// The generic double-and-add path on G, bypassing the fixed-base table —
// the baseline every BaseMult used to pay.
void BM_P256_BaseMult_Generic(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-ec-generic"));
  const P256& curve = P256::Get();
  U256 k = rng.RandomScalar(curve.order());
  P256::Jacobian g = curve.ToJacobian(curve.generator());
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.FromJacobian(curve.JacScalarMult(g, k)));
  }
}
BENCHMARK(BM_P256_BaseMult_Generic);

// The comb/windowed fixed-base path: 64 mixed additions, no doublings.
void BM_P256_BaseMult_Fixed(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-ec-fixed"));
  const P256& curve = P256::Get();
  U256 k = rng.RandomScalar(curve.order());
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.BaseMult(k));
  }
}
BENCHMARK(BM_P256_BaseMult_Fixed);

// Fixed-base path on a caller-registered point (a shuffler public key).
void BM_P256_ScalarMult_Registered(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-ec-registered"));
  const P256& curve = P256::Get();
  EcPoint base = curve.BaseMult(rng.RandomScalar(curve.order()));
  curve.RegisterFixedBase(base);
  U256 k = rng.RandomScalar(curve.order());
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.ScalarMult(base, k));
  }
}
BENCHMARK(BM_P256_ScalarMult_Registered);

// Fixed-base multiplication plus batch affine conversion: the amortized
// per-item cost of BatchBaseMult over 256-scalar batches.
void BM_P256_BatchBaseMult256(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-ec-batch"));
  const P256& curve = P256::Get();
  std::vector<U256> scalars;
  for (int i = 0; i < 256; ++i) {
    scalars.push_back(rng.RandomScalar(curve.order()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.BatchBaseMult(scalars));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_P256_BatchBaseMult256);

void BM_HybridSeal_64B(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-hybrid"));
  KeyPair recipient = KeyPair::Generate(rng);
  Bytes payload(64, 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HybridSeal(recipient.public_key, payload, "ctx", rng));
  }
}
BENCHMARK(BM_HybridSeal_64B);

void BM_HybridOpen_64B(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-hybrid-open"));
  KeyPair recipient = KeyPair::Generate(rng);
  HybridBox box = HybridSeal(recipient.public_key, Bytes(64, 0x11), "ctx", rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HybridOpen(recipient, box, "ctx"));
  }
}
BENCHMARK(BM_HybridOpen_64B);

// The shuffler's per-report open cost, amortized over a 256-report batch:
// deserialize, batched ECDH (shared inversions), AEAD, view parse.
void BM_BatchOpenReports256(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-batch-open"));
  KeyPair shuffler = KeyPair::Generate(rng);
  KeyPair analyzer = KeyPair::Generate(rng);
  std::vector<CrowdPart> crowds(256);
  std::vector<Bytes> payloads(256);
  for (int i = 0; i < 256; ++i) {
    crowds[i].plain_hash = static_cast<uint64_t>(i % 7);
    payloads[i] = *PadPayload(Bytes(60, 0x22), 64);
  }
  std::vector<Bytes> reports =
      BatchSealReports(crowds, payloads, shuffler.public_key, analyzer.public_key, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BatchOpenReports(shuffler, reports));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_BatchOpenReports256);

// The §5.2 claim: "at a minimal computational cost to clients (less than
// 50 µs per encoding)" with OpenSSL on the paper's Xeon.
void BM_SecretShareEncode(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-ss"));
  SecretSharer sharer(20);
  Bytes message = ToBytes("a-vocab-word");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sharer.Encode(message, rng));
  }
}
BENCHMARK(BM_SecretShareEncode);

void BM_SecretShareRecover20(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-ss-rec"));
  SecretSharer sharer(20);
  Bytes message = ToBytes("a-vocab-word");
  std::vector<SecretShare> shares;
  Bytes ciphertext;
  for (int i = 0; i < 20; ++i) {
    auto enc = sharer.Encode(message, rng);
    ciphertext = enc.ciphertext;
    shares.push_back(enc.share);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sharer.Recover(ciphertext, shares));
  }
}
BENCHMARK(BM_SecretShareRecover20);

void BM_HashToCurve(benchmark::State& state) {
  std::string input = "crowd-id-value";
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashToCurve(input));
  }
}
BENCHMARK(BM_HashToCurve);

void BM_ElGamalEncrypt(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-eg"));
  KeyPair recipient = KeyPair::Generate(rng);
  EcPoint mu = HashToCurve(std::string("crowd"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElGamalEncrypt(recipient.public_key, mu, rng));
  }
}
BENCHMARK(BM_ElGamalEncrypt);

void BM_ElGamalBlind(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-eg-blind"));
  KeyPair recipient = KeyPair::Generate(rng);
  ElGamalCiphertext ct = ElGamalEncrypt(recipient.public_key, HashToCurve(std::string("c")), rng);
  Secret<U256> alpha = rng.RandomSecretScalar(P256::Get().order());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElGamalBlind(ct, alpha));
  }
}
BENCHMARK(BM_ElGamalBlind);

// One-inversion-per-chunk batch blinding — Shuffler 1's per-report cost.
void BM_ElGamalBlindBatch256(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-eg-blind-batch"));
  KeyPair recipient = KeyPair::Generate(rng);
  Secret<U256> alpha = rng.RandomSecretScalar(P256::Get().order());
  std::vector<ElGamalCiphertext> cts;
  for (int i = 0; i < 256; ++i) {
    cts.push_back(ElGamalEncrypt(recipient.public_key, HashToCurve(std::string("c")), rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElGamalBlindBatch(cts, alpha));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ElGamalBlindBatch256);

void BM_ElGamalRerandomize(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-eg-rr"));
  KeyPair recipient = KeyPair::Generate(rng);
  ElGamalCiphertext ct = ElGamalEncrypt(recipient.public_key, HashToCurve(std::string("c")), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElGamalRerandomize(ct, recipient.public_key, rng));
  }
}
BENCHMARK(BM_ElGamalRerandomize);

// Fixed-base G and recipient tables plus batch affine conversion — the
// re-encryption cost the stash shuffle's distribution phase scales with.
void BM_ElGamalRerandomizeBatch256(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-eg-rr-batch"));
  KeyPair recipient = KeyPair::Generate(rng);
  P256::Get().RegisterFixedBase(recipient.public_key);  // long-lived shuffler key
  std::vector<ElGamalCiphertext> cts;
  for (int i = 0; i < 256; ++i) {
    cts.push_back(ElGamalEncrypt(recipient.public_key, HashToCurve(std::string("c")), rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElGamalRerandomizeBatch(cts, recipient.public_key, rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ElGamalRerandomizeBatch256);

void BM_ElGamalDecryptBatch256(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-eg-dec-batch"));
  KeyPair recipient = KeyPair::Generate(rng);
  std::vector<ElGamalCiphertext> cts;
  for (int i = 0; i < 256; ++i) {
    cts.push_back(ElGamalEncrypt(recipient.public_key, HashToCurve(std::string("c")), rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ElGamalDecryptBatch(recipient.private_key, cts));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_ElGamalDecryptBatch256);

void BM_EcdsaSign(benchmark::State& state) {
  SecureRandom rng(ToBytes("bench-ecdsa"));
  KeyPair signer = KeyPair::Generate(rng);
  Bytes message = ToBytes("quote payload");
  for (auto _ : state) {
    benchmark::DoNotOptimize(EcdsaSign(signer.private_key, message));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EncodeFullReport(benchmark::State& state) {
  // One complete client report: pad, inner box, outer box (the per-client
  // cost in Table 3's Encoder column).
  SecureRandom rng(ToBytes("bench-report"));
  KeyPair shuffler = KeyPair::Generate(rng);
  KeyPair analyzer = KeyPair::Generate(rng);
  CrowdPart crowd;
  crowd.plain_hash = 1234;
  auto padded = PadPayload(Bytes(60, 0x22), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SealReport(crowd, *padded, shuffler.public_key, analyzer.public_key, rng));
  }
}
BENCHMARK(BM_EncodeFullReport);

// Console output as usual, plus BENCH_crypto.json via bench/json_out.h.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(BenchJsonWriter* writer) : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      double ns_per_op = run.GetAdjustedRealTime();  // default time unit: ns
      double ops_per_sec = ns_per_op > 0 ? 1e9 / ns_per_op : 0;
      uint64_t n = static_cast<uint64_t>(run.iterations);
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        // Batch benchmarks: report the amortized per-item figures.
        ops_per_sec = items->second.value;
        ns_per_op = ops_per_sec > 0 ? 1e9 / ops_per_sec : 0;
      }
      writer_->Add(run.benchmark_name(), n, ns_per_op, ops_per_sec);
    }
  }

 private:
  BenchJsonWriter* writer_;
};

}  // namespace
}  // namespace prochlo

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  prochlo::BenchJsonWriter writer("crypto");
  prochlo::JsonCaptureReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  writer.Write();
  return 0;
}
