// The PROCHLO report wire format: nested encryption with a crowd ID visible
// only to the shuffler (paper §3.2, §5.1).
//
// A report as it travels:
//
//   network ──► [ outer HybridBox to the SHUFFLER ]
//                  └── plaintext: CrowdPart || inner box
//   shuffler ──► strips metadata, thresholds on the CrowdPart, shuffles,
//                forwards [ inner HybridBox to the ANALYZER ]
//   analyzer ──► decrypts to the fixed-size payload
//
// The CrowdPart is either an 8-byte hash of the crowd ID (single-shuffler
// mode) or an EC-El-Gamal ciphertext of H(crowd ID) (blinded two-shuffler
// mode, §4.3).  Payloads are padded to a fixed size so that all reports in a
// pipeline are indistinguishable by length.
#ifndef PROCHLO_SRC_CORE_REPORT_H_
#define PROCHLO_SRC_CORE_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/crypto/elgamal.h"
#include "src/crypto/keys.h"
#include "src/util/bytes.h"
#include "src/util/serialization.h"
#include "src/util/thread_pool.h"

namespace prochlo {

// HKDF context labels binding each nested layer to its role.
inline constexpr char kShufflerLayerContext[] = "prochlo-layer-shuffler";
inline constexpr char kAnalyzerLayerContext[] = "prochlo-layer-analyzer";

enum class CrowdIdMode : uint8_t {
  kPlainHash = 0,  // shuffler sees an 8-byte keyless hash of the crowd ID
  kBlinded = 1,    // shuffler sees El Gamal ciphertext; only blinded IDs leak
};

// 8-byte crowd hash used in kPlainHash mode.
uint64_t CrowdIdHash(const std::string& crowd_id);

// The shuffler-visible portion of a decrypted report.
struct CrowdPart {
  CrowdIdMode mode = CrowdIdMode::kPlainHash;
  uint64_t plain_hash = 0;                       // kPlainHash
  std::optional<ElGamalCiphertext> blinded_ct;   // kBlinded

  Bytes Serialize() const;
  static std::optional<CrowdPart> Deserialize(Reader& reader);
};

// The plaintext the shuffler sees after removing the outer layer.
struct ShufflerView {
  CrowdPart crowd;
  Bytes inner_box;  // serialized HybridBox for the analyzer

  Bytes Serialize() const;
  static std::optional<ShufflerView> Deserialize(ByteSpan data);
};

// Pads a payload with a length header to `target_size` (must fit).
std::optional<Bytes> PadPayload(ByteSpan payload, size_t target_size);
// Recovers the original payload from a padded buffer.
std::optional<Bytes> UnpadPayload(ByteSpan padded);

// Builds a full report: inner box to the analyzer, outer box to the
// shuffler.  The payload must already be padded to the pipeline's fixed
// size.  Returns the outer box wire bytes.
Bytes SealReport(const CrowdPart& crowd, ByteSpan padded_payload,
                 const EcPoint& shuffler_public, const EcPoint& analyzer_public,
                 SecureRandom& rng);

// Batch analogue of SealReport for a cohort of N reports (crowds[i] pairs
// with padded_payloads[i]).  Amortizes the EC work across the cohort: all
// 2N ephemeral public keys come from one BatchBaseMult and all 2N ECDH
// shared points are normalized with one batch inversion, instead of 4N
// per-point affine conversions (ROADMAP: batch the encoder side end to
// end).  Output reports are byte-compatible with SealReport's (the batch is
// a cost optimization, not a format change).
std::vector<Bytes> BatchSealReports(const std::vector<CrowdPart>& crowds,
                                    const std::vector<Bytes>& padded_payloads,
                                    const EcPoint& shuffler_public,
                                    const EcPoint& analyzer_public, SecureRandom& rng);

// Shuffler side: opens the outer layer.
std::optional<ShufflerView> OpenReport(const KeyPair& shuffler_keys, ByteSpan report);

// Batch analogue of OpenReport — the shuffler-side counterpart of
// BatchSealReports, and the decrypt half of the paper's Table 2/3 cost.
// Every report carries a distinct ephemeral key, so the outer-layer ECDH
// runs on the batched constant-time ladder (HybridOpenBatch ->
// P256::BatchScalarMultSecret), in fixed 256-report chunks so results are
// identical with and without a pool; chunks fan out across `pool` when one
// is supplied.  Slot i is nullopt exactly when OpenReport(shuffler_keys,
// reports[i]) would fail.
std::vector<std::optional<ShufflerView>> BatchOpenReports(const KeyPair& shuffler_keys,
                                                          const std::vector<Bytes>& reports,
                                                          ThreadPool* pool = nullptr);

// Analyzer side: opens an inner box to the padded payload.
std::optional<Bytes> OpenInnerBox(const KeyPair& analyzer_keys, ByteSpan inner_box);

// Batch analogue of OpenInnerBox, on the same chunked, batched
// constant-time open as BatchOpenReports.  Slot i is nullopt exactly when
// OpenInnerBox(analyzer_keys, inner_boxes[i]) would fail.
std::vector<std::optional<Bytes>> BatchOpenInnerBoxes(const KeyPair& analyzer_keys,
                                                      const std::vector<Bytes>& inner_boxes,
                                                      ThreadPool* pool = nullptr);

// Wire size of a report for a given padded payload size and crowd mode —
// the analogue of the paper's 318-byte records (64-byte data + 8-byte crowd
// ID under our encodings).
size_t ReportWireSize(size_t padded_payload_size, CrowdIdMode mode);

}  // namespace prochlo

#endif  // PROCHLO_SRC_CORE_REPORT_H_
