// ctgrind-style dynamic constant-time verifier.
//
// The idea (Langley's ctgrind): mark secret bytes as *undefined* for
// valgrind/MSan shadow tracking, run the real crypto, and let the tool flag
// any branch or memory address computed from them — exactly the signals a
// timing attacker sees.  The static taint lint (scripts/lint.py) reasons
// about names; this harness tracks the actual data flow, so the two cover
// each other's blind spots.
//
// Usage:  ct_harness <scenario> [--inject=branch|index|tag-memcmp|wnaf-recode|field-branch]
//
// Scenarios (all must be shadow-clean under valgrind/MSan):
//   ecdh                   poisoned long-term scalar -> EcdhSharedSecret
//   elgamal-decrypt        poisoned private key -> ElGamalDecrypt (ct ladder)
//   batch-ecdh             poisoned long-term scalar -> EcdhSharedSecretBatch
//                          (the batched ct ladder both report layers open on)
//   batch-ecdh-even        the same with an even number of finite peers and
//                          the identity second
//   batch-elgamal-decrypt  poisoned private key -> ElGamalDecryptBatch
//   gcm-verify             poisoned 16 provided-tag bytes -> AesGcm::Open
//   hmac-verify            poisoned key and expected MAC -> HmacVerify
//   all                    every scenario above in sequence
//
// --inject deliberately violates the discipline on poisoned bytes (a branch,
// a secret-indexed load, an early-exit memcmp, a wNAF recode of a secret
// scalar on the public batch path, a field correction branched on a
// borrow).  scripts/ct_verify.sh runs the positives expecting a clean shadow
// report AND the negatives expecting the tool to complain — a verifier that
// can't see planted bugs proves nothing.
//
// Without a backend (plain build, no valgrind) the poison calls are no-ops
// and this binary is a plain functional smoke test; it prints
// `backend-active=no` so the driver knows the run carries no ct evidence.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/crypto/ct.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/gcm.h"
#include "src/crypto/hash_to_curve.h"
#include "src/crypto/hmac.h"
#include "src/crypto/keys.h"
#include "src/crypto/p256.h"
#include "src/crypto/random.h"

namespace prochlo {
namespace {

// Shared across injections so the violating loads can't be optimized out.
volatile uint8_t g_sink;

bool ScenarioEcdh() {
  SecureRandom rng(ToBytes("ct-harness-ecdh"));
  KeyPair a = KeyPair::Generate(rng);
  KeyPair b = KeyPair::Generate(rng);
  // Poison only a's scalar: the b-side run stays clean and provides the
  // expected value for the functional check.
  ct::PoisonObject(a.private_key.ExposeMutable());
  auto ab = EcdhSharedSecret(a.private_key, b.public_key);
  auto ba = EcdhSharedSecret(b.private_key, a.public_key);
  if (!ab.has_value() || !ba.has_value()) {
    return false;
  }
  // ct:declassify(harness-side agreement check on the finished shared secret)
  return ab->Declassify() == ba->Declassify();
}

bool ScenarioElGamalDecrypt() {
  SecureRandom rng(ToBytes("ct-harness-elgamal"));
  KeyPair recipient = KeyPair::Generate(rng);
  EcPoint message = HashToCurve(std::string("ct-harness-message"));
  ElGamalCiphertext ciphertext = ElGamalEncrypt(recipient.public_key, message, rng);
  ct::PoisonObject(recipient.private_key.ExposeMutable());
  EcPoint opened = ElGamalDecrypt(recipient.private_key, ciphertext);
  return opened == message;
}

// A batch with an identity placeholder in the middle, so the public
// skip-the-identity branch runs next to poisoned-scalar ladders.
std::vector<EcPoint> HarnessPeers(SecureRandom& rng) {
  const P256& curve = P256::Get();
  return {KeyPair::Generate(rng).public_key, EcPoint::Infinity(),
          KeyPair::Generate(rng).public_key, curve.generator()};
}

// Four finite peers with the identity in the second slot.
std::vector<EcPoint> HarnessPeersEven(SecureRandom& rng) {
  const P256& curve = P256::Get();
  return {KeyPair::Generate(rng).public_key, EcPoint::Infinity(),
          KeyPair::Generate(rng).public_key, KeyPair::Generate(rng).public_key,
          curve.generator()};
}

// Poisons one long-term scalar and opens `peers` through the batched ct
// ladder; every slot must match the unpoisoned single-shot path.
bool CheckBatchEcdh(SecureRandom& rng, const std::vector<EcPoint>& peers) {
  KeyPair a = KeyPair::Generate(rng);
  // Expected values from the unpoisoned single-shot path.
  std::vector<std::optional<Secret<U256>>> expected;
  for (const EcPoint& peer : peers) {
    expected.push_back(EcdhSharedSecret(a.private_key, peer));
  }
  ct::PoisonObject(a.private_key.ExposeMutable());
  auto shared = EcdhSharedSecretBatch(a.private_key, peers);
  for (size_t i = 0; i < peers.size(); ++i) {
    if (shared[i].has_value() != expected[i].has_value()) {
      return false;
    }
    // ct:declassify(harness-side agreement check on the finished shared secrets)
    if (shared[i].has_value() && !(shared[i]->Declassify() == expected[i]->Declassify())) {
      return false;
    }
  }
  return true;
}

bool ScenarioBatchEcdh() {
  SecureRandom rng(ToBytes("ct-harness-batch-ecdh"));
  return CheckBatchEcdh(rng, HarnessPeers(rng));
}

bool ScenarioBatchEcdhEven() {
  SecureRandom rng(ToBytes("ct-harness-batch-ecdh-even"));
  return CheckBatchEcdh(rng, HarnessPeersEven(rng));
}

bool ScenarioBatchElGamalDecrypt() {
  SecureRandom rng(ToBytes("ct-harness-batch-elgamal"));
  KeyPair recipient = KeyPair::Generate(rng);
  std::vector<EcPoint> messages;
  std::vector<ElGamalCiphertext> ciphertexts;
  for (int i = 0; i < 4; ++i) {
    messages.push_back(HashToCurve("ct-harness-batch-message-" + std::to_string(i)));
    ciphertexts.push_back(ElGamalEncrypt(recipient.public_key, messages.back(), rng));
  }
  // An identity c1 (a degenerate but well-formed ciphertext) decrypts to c2.
  messages.push_back(messages[0]);
  ciphertexts.push_back(ElGamalCiphertext{EcPoint::Infinity(), messages[0]});
  ct::PoisonObject(recipient.private_key.ExposeMutable());
  return ElGamalDecryptBatch(recipient.private_key, ciphertexts) == messages;
}

bool ScenarioGcmVerify() {
  // The key itself is NOT poisoned: the AES key schedule is table-driven and
  // deliberately outside the ct contract (see docs/constant-time.md).  What
  // must be constant-time is the tag comparison, so poison the 16
  // provided-tag bytes the verifier compares against.
  Bytes key(16, 0x42);
  AesGcm aead((ByteSpan(key)));
  GcmNonce nonce{};
  nonce[0] = 7;
  Bytes plaintext = ToBytes("ct-harness gcm payload");
  Bytes aad = ToBytes("aad");
  Bytes sealed = aead.Seal(nonce, plaintext, aad);
  ct::PoisonSecret(sealed.data() + sealed.size() - kGcmTagSize, kGcmTagSize);
  auto opened = aead.Open(nonce, sealed, aad);
  return opened.has_value() && *opened == plaintext;
}

bool ScenarioHmacVerify() {
  // Both the MAC key and the expected MAC are secrets here; SHA-256 is pure
  // arithmetic, so the taint must flow through the whole recomputation and
  // die only at the declassified verdict inside ct::CtEq.
  Bytes key(32, 0x5a);
  Bytes data = ToBytes("ct-harness hmac message");
  Sha256Digest mac = HmacSha256(ByteSpan(key), ByteSpan(data));
  ct::PoisonSecret(key.data(), key.size());
  ct::PoisonSecret(mac.data(), mac.size());
  return HmacVerify(ByteSpan(key), ByteSpan(data),
                    ByteSpan(mac.data(), mac.size()));
}

// Planted violations: each does to a poisoned byte exactly what the
// discipline forbids.  A working backend MUST report these.
int RunInjection(const std::string& kind) {
  Bytes secret(32, 0xc3);
  ct::PoisonSecret(secret.data(), secret.size());
  if (kind == "branch") {
    if (secret[0] & 1) {  // secret-dependent branch
      g_sink = 1;
    }
    return 0;
  }
  if (kind == "index") {
    static const uint8_t table[256] = {1};
    g_sink = table[secret[1]];  // secret-derived address
    return 0;
  }
  if (kind == "tag-memcmp") {
    uint8_t other[16] = {0};
    if (std::memcmp(secret.data(), other, sizeof(other)) == 0) {  // early exit
      g_sink = 2;
    }
    return 0;
  }
  if (kind == "wnaf-recode") {
    // What the batch opens did before they moved to the ct ladder: a
    // private scalar fed to the public wNAF path, whose recode branches on
    // every scalar bit and indexes its table by the digits.
    const P256& curve = P256::Get();
    U256 scalar = U256::FromBytes(secret);
    std::vector<EcPoint> points = {curve.generator()};
    auto out = curve.BatchScalarMult(points, {scalar});
    g_sink = static_cast<uint8_t>(out.size());
    return 0;
  }
  if (kind == "field-branch") {
    // A field subtraction that takes its correction with a branch on the
    // borrow of poisoned operands, where the field core masks it in.
    const U256 a = U256::FromBytes(ByteSpan(secret.data(), 32));
    U256 b = a;
    b.limbs[0] ^= 1;
    U256 diff;
    if (SubWithBorrow(a, b, &diff) != 0) {  // secret-dependent branch
      AddWithCarry(diff, P256::Get().field().modulus(), &diff);
      g_sink = 3;
    }
    g_sink = static_cast<uint8_t>(diff.limbs[0]);
    return 0;
  }
  std::fprintf(stderr, "ct_harness: unknown injection '%s'\n", kind.c_str());
  return 2;
}

int Run(const std::string& scenario, const std::string& inject) {
  std::printf("backend-active=%s\n", ct::PoisonBackendActive() ? "yes" : "no");
  if (!inject.empty()) {
    return RunInjection(inject);
  }
  struct Entry {
    const char* name;
    bool (*fn)();
  };
  static const Entry kScenarios[] = {
      {"ecdh", &ScenarioEcdh},
      {"elgamal-decrypt", &ScenarioElGamalDecrypt},
      {"batch-ecdh", &ScenarioBatchEcdh},
      {"batch-ecdh-even", &ScenarioBatchEcdhEven},
      {"batch-elgamal-decrypt", &ScenarioBatchElGamalDecrypt},
      {"gcm-verify", &ScenarioGcmVerify},
      {"hmac-verify", &ScenarioHmacVerify},
  };
  bool matched = false;
  bool all_ok = true;
  for (const Entry& e : kScenarios) {
    if (scenario != "all" && scenario != e.name) {
      continue;
    }
    matched = true;
    bool ok = e.fn();
    std::printf("scenario=%s ok=%d\n", e.name, ok ? 1 : 0);
    all_ok = all_ok && ok;
  }
  if (!matched) {
    std::fprintf(stderr, "ct_harness: unknown scenario '%s'\n", scenario.c_str());
    return 2;
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace prochlo

int main(int argc, char** argv) {
  std::string scenario;
  std::string inject;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--inject=", 0) == 0) {
      inject = arg.substr(9);
    } else if (scenario.empty()) {
      scenario = arg;
    }
  }
  if (scenario.empty() && inject.empty()) {
    std::fprintf(stderr,
                 "usage: ct_harness <ecdh|elgamal-decrypt|batch-ecdh|batch-ecdh-even|"
                 "batch-elgamal-decrypt|"
                 "gcm-verify|hmac-verify|all> "
                 "[--inject=branch|index|tag-memcmp|wnaf-recode|field-branch]\n");
    return 2;
  }
  if (scenario.empty()) {
    scenario = "all";
  }
  return prochlo::Run(scenario, inject);
}
