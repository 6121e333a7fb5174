// The traced decomposition: each one-call path of the library (answer,
// verify, rotation, recovery) re-run as the chain of public stage calls it
// makes, one Span per stage. Only traced runs call these; the library's own
// one-call path still produces (and verifies) every result, and the
// decomposition must agree with it — byte for byte on answers, decision for
// decision on verifies, signature for signature on rotations, version for
// version on recovery.
#ifndef SPAUTH_BENCH_E2E_E2E_STAGES_H_
#define SPAUTH_BENCH_E2E_E2E_STAGES_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dij.h"
#include "core/engine.h"
#include "core/forest_certificate.h"
#include "core/snapshot_store.h"
#include "core/verify_workspace.h"
#include "core/wal.h"

namespace spauth::e2e {

/// One owner rotation: either an edge re-weighting batch or a structural
/// batch (exactly one of the vectors is non-empty).
struct RotationBatch {
  std::vector<EdgeWeightUpdate> weights;
  std::vector<StructuralUpdate> ops;
  bool structural() const { return !ops.empty(); }
};

/// DIJ answer as search -> ball -> prove -> assemble over the pinned
/// snapshot's graph and certificate, proving from `twin` (a BuildDijAds
/// twin of the engine's ADS). Returns the assembled wire bytes (nullopt on
/// a failed stage); `stages_us` receives the summed stage time.
std::optional<std::vector<uint8_t>> DecomposeDijAnswer(
    const EngineState& state, const NetworkAds& twin, const Query& query,
    SearchWorkspace& ws, uint64_t request, double* stages_us);

/// FULL/LDM/HYP answers are one span; their providers' first stage (the
/// shortest-path search on the snapshot graph) is timed on its own.
void ProbeProviderSearch(const EngineState& state, const Query& query,
                         SearchWorkspace& ws, uint64_t request);

/// Client verify as decode -> certificate (or forest path) check -> Merkle
/// replay -> index -> path check -> optimality stage, in each method's own
/// order. `forest` is null for signed certificates. Returns the accept
/// decision; `stages_us` receives the summed stage time.
bool DecomposeVerify(const RsaPublicKey& owner_key,
                     const ForestCertificate* forest,
                     std::span<const uint8_t> forest_path_bytes,
                     uint32_t shard, const Query& query,
                     std::span<const uint8_t> wire_bytes, VerifyWorkspace& ws,
                     uint64_t request, double* stages_us);

/// A private copy of the owner's state that replays each rotation as its
/// stages: copy-on-write re-hash (unsigned apply), RSA signing, WAL append.
class ShadowOwner {
 public:
  ShadowOwner(const Graph& graph, DijAds ads, Wal wal)
      : graph_(graph), ads_(std::move(ads)), wal_(std::move(wal)) {}

  /// Applies `batch` on top of the shadow's current version. On success
  /// `stages_us` holds the summed stage time.
  Status Rotate(const RsaKeyPair& keys, const RotationBatch& batch,
                uint64_t request, double* stages_us);

  /// The shadow log restarts when the owner checkpoints.
  Status ResetLog() { return wal_.Reset(); }

  const Certificate& certificate() const { return ads_.certificate; }
  /// The owner's current network ADS: the answer twin of an engine that
  /// rotates.
  const NetworkAds& network() const { return ads_.network; }

 private:
  Graph graph_;
  DijAds ads_;
  Wal wal_;
};

/// RecoverDijEngine as LoadNewest -> Wal::Read -> MakeDijEngineFromState +
/// per-record replay. Returns the recovered engine's version (0 on any
/// failure); `stages_us` receives the summed stage time.
uint32_t DecomposeRecovery(const SnapshotStore& store,
                           const std::string& wal_path,
                           const EngineOptions& options,
                           const RsaKeyPair& keys, uint64_t request,
                           double* stages_us);

}  // namespace spauth::e2e

#endif  // SPAUTH_BENCH_E2E_E2E_STAGES_H_
