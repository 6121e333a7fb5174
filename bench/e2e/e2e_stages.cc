#include "e2e_stages.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <unordered_map>

#include "core/algosp.h"
#include "core/certificate.h"
#include "core/client_search.h"
#include "core/updates.h"
#include "e2e_trace.h"
#include "hints/hiti.h"
#include "merkle/merkle_btree.h"

namespace spauth::e2e {

namespace {

/// Runs `fn` inside a span named `name` and adds its duration to `*sum_us`.
template <typename Fn>
auto Stage(const char* name, uint64_t request, double* sum_us, Fn&& fn) {
  Span span(name, request);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    span.End();
    *sum_us += span.elapsed_us();
  } else {
    auto result = fn();
    span.End();
    *sum_us += span.elapsed_us();
    return result;
  }
}

bool ShapeMatches(const MerkleSubsetProof& p, uint32_t leaves, uint32_t fanout,
                  HashAlgorithm alg) {
  return p.num_leaves == leaves && p.fanout == fanout && p.alg == alg;
}

bool ClaimPositive(double distance) {
  return distance > 0 && std::isfinite(distance);
}

bool WithinSlack(double a, double b) {
  return std::abs(a - b) <= VerifySlack(b);
}

/// The network-tuple chain of DIJ, LDM and FULL: replay -> index -> path
/// check. DIJ and LDM also require a positive claim before the path check;
/// FULL compares its claim with the certified distance later instead.
bool TupleChain(const Certificate& cert, const Query& query,
                const TupleSetProof& tuples, const Path& path, double distance,
                bool require_positive, VerifyWorkspace& ws, uint64_t request,
                double* sum_us) {
  const bool authentic = Stage("merkle.replay_us", request, sum_us, [&] {
    return ShapeMatches(tuples.proof, cert.params.num_network_leaves,
                        cert.params.fanout, cert.params.alg) &&
           tuples.VerifyAgainstRoot(cert.network_root, ws.merkle,
                                    &ws.leaf_scratch)
               .ok();
  });
  if (!authentic) {
    return false;
  }
  const bool indexed =
      Stage("core.client_search.index_us", request, sum_us, [&] {
        return tuples.IndexInto(cert.params.num_network_leaves, &ws.index)
            .ok();
      });
  if (!indexed) {
    return false;
  }
  return Stage("core.client_search.path_check_us", request, sum_us, [&] {
    return (!require_positive || ClaimPositive(distance)) &&
           CheckPathAgainstTuples(ws.index, query, path, distance,
                                  &ws.path_scratch)
               .accepted;
  });
}

/// The optimality stage of DIJ (Dijkstra) and LDM (A*) over the index.
bool SearchOptimal(const SubgraphSearchOutcome& search, double claimed) {
  return search.code == SubgraphSearchOutcome::Code::kOk &&
         WithinSlack(search.distance, claimed);
}

bool VerifyDij(const Certificate& cert, const Query& query,
               const DijAnswer& a, VerifyWorkspace& ws, uint64_t request,
               double* sum_us) {
  if (cert.params.method != MethodKind::kDij ||
      !TupleChain(cert, query, a.subgraph, a.path, a.distance, true, ws,
                  request, sum_us)) {
    return false;
  }
  const SubgraphSearchOutcome search =
      Stage("core.client.optimality_us", request, sum_us, [&] {
        return DijkstraOverTuples(ws.index, query.source, query.target,
                                  a.distance, ws.search);
      });
  Count("core.client_search.settled_per_answer",
        static_cast<double>(search.settled));
  return SearchOptimal(search, a.distance);
}

bool VerifyLdm(const Certificate& cert, const Query& query,
               const LdmAnswer& a, VerifyWorkspace& ws, uint64_t request,
               double* sum_us) {
  if (cert.params.method != MethodKind::kLdm || !cert.params.has_landmarks ||
      !(cert.params.lambda > 0) ||
      !TupleChain(cert, query, a.subgraph, a.path, a.distance, true, ws,
                  request, sum_us)) {
    return false;
  }
  const SubgraphSearchOutcome search =
      Stage("core.client.optimality_us", request, sum_us, [&] {
        return AStarOverTuples(ws.index, query.source, query.target,
                               a.distance, cert.params.lambda, ws.search);
      });
  Count("core.client_search.settled_per_answer",
        static_cast<double>(search.settled));
  return SearchOptimal(search, a.distance);
}

bool VerifyFull(const Certificate& cert, const Query& query,
                const FullAnswer& a, VerifyWorkspace& ws, uint64_t request,
                double* sum_us) {
  if (cert.params.method != MethodKind::kFull ||
      !cert.params.has_distance_tree) {
    return false;
  }
  const MerkleBTreeProof& dp = a.distance_proof;
  const bool distance_authentic =
      Stage("merkle.replay_us", request, sum_us, [&] {
        if (!ShapeMatches(dp.tree_proof, cert.params.num_distance_leaves,
                          cert.params.distance_fanout, cert.params.alg) ||
            dp.entries.size() != 1 ||
            dp.entries[0].key != PackNodePairKey(query.source, query.target)) {
          return false;
        }
        auto root = ReconstructBTreeRoot(dp, ws.merkle, &ws.leaf_scratch);
        return root.ok() && root.value() == cert.distance_root;
      });
  if (!distance_authentic ||
      !TupleChain(cert, query, a.path_tuples, a.path, a.distance, false, ws,
                  request, sum_us)) {
    return false;
  }
  Count("core.client_search.settled_per_answer", 0);
  // FULL's optimality stage is the comparison with the certified distance.
  return Stage("core.client.optimality_us", request, sum_us, [&] {
    return WithinSlack(a.distance, dp.entries[0].value);
  });
}

bool VerifyHyp(const Certificate& cert, const Query& query,
               const HypAnswer& a, VerifyWorkspace& ws, uint64_t request,
               double* sum_us) {
  if (cert.params.method != MethodKind::kHyp || !cert.params.has_cells ||
      !cert.params.has_distance_tree ||
      cert.params.cell_counts.size() != cert.params.num_cells) {
    return false;
  }
  const bool authentic = Stage("merkle.replay_us", request, sum_us, [&] {
    return ShapeMatches(a.tuples.proof, cert.params.num_network_leaves,
                        cert.params.fanout, cert.params.alg) &&
           a.tuples.VerifyAgainstRoot(cert.network_root, ws.merkle,
                                      &ws.leaf_scratch)
               .ok();
  });
  if (!authentic ||
      !Stage("core.client_search.index_us", request, sum_us, [&] {
        return a.tuples.IndexInto(cert.params.num_network_leaves, &ws.index)
            .ok();
      })) {
    return false;
  }
  const TupleLane& tuples = ws.index;
  uint32_t cell_s = 0;
  uint32_t cell_t = 0;
  // Cell completeness and border sets (HYP's own step between index and
  // the hyper-edge replay).
  const bool complete = Stage("core.client.hyp_cells_us", request, sum_us, [&] {
    const ExtendedTuple* ts = tuples.Find(query.source);
    const ExtendedTuple* tt = tuples.Find(query.target);
    if (ts == nullptr || tt == nullptr || !ts->has_cell_data ||
        !tt->has_cell_data) {
      return false;
    }
    cell_s = ts->cell;
    cell_t = tt->cell;
    if (cell_s >= cert.params.num_cells || cell_t >= cert.params.num_cells) {
      return false;
    }
    size_t count_s = 0;
    size_t count_t = 0;
    ws.borders_s.clear();
    ws.borders_t.clear();
    for (const ExtendedTuple& t : a.tuples.tuples) {
      if (!t.has_cell_data) {
        return false;
      }
      if (t.cell == cell_s) {
        ++count_s;
        if (t.is_border) {
          ws.borders_s.push_back(t.id);
        }
      }
      if (t.cell == cell_t && cell_t != cell_s) {
        ++count_t;
        if (t.is_border) {
          ws.borders_t.push_back(t.id);
        }
      }
    }
    if (cell_t == cell_s) {
      count_t = count_s;
      ws.borders_t.assign(ws.borders_s.begin(), ws.borders_s.end());
    }
    return count_s == cert.params.cell_counts[cell_s] &&
           count_t == cert.params.cell_counts[cell_t];
  });
  if (!complete) {
    return false;
  }
  std::unordered_map<uint64_t, double>& hyper = ws.hyper;
  hyper.clear();
  if (a.has_hyper_edges) {
    const MerkleBTreeProof& dp = a.hyper_edges;
    const bool hyper_authentic =
        Stage("merkle.replay_us", request, sum_us, [&] {
          if (!ShapeMatches(dp.tree_proof, cert.params.num_distance_leaves,
                            cert.params.distance_fanout, cert.params.alg)) {
            return false;
          }
          auto root = ReconstructBTreeRoot(dp, ws.merkle, &ws.leaf_scratch);
          return root.ok() && root.value() == cert.distance_root;
        });
    if (!hyper_authentic) {
      return false;
    }
  }
  const bool pairs_present =
      Stage("core.client.hyp_cells_us", request, sum_us, [&] {
        if (a.has_hyper_edges) {
          hyper.reserve(a.hyper_edges.entries.size());
          for (const DistanceEntry& e : a.hyper_edges.entries) {
            hyper[e.key] = e.value;
          }
        }
        for (NodeId bs : ws.borders_s) {
          for (NodeId bt : ws.borders_t) {
            if (bs != bt &&
                hyper.find(HyperEdgeKey(cell_s, bs, cell_t, bt)) ==
                    hyper.end()) {
              return false;
            }
          }
        }
        return true;
      });
  if (!pairs_present) {
    return false;
  }
  std::vector<NodeId>& reached = ws.path_scratch;
  const double best = Stage("core.client.optimality_us", request, sum_us, [&] {
    SearchLane& d_src = ws.search.forward;
    SearchLane& d_tgt = ws.search.backward;
    reached.clear();
    InCellDijkstraOverTuples(tuples, query.source, cell_s, &d_src,
                             &ws.search.heap, &reached);
    InCellDijkstraOverTuples(tuples, query.target, cell_t, &d_tgt,
                             &ws.search.heap, &reached);
    double b = cell_s == cell_t ? d_src.Dist(query.target) : kInfDistance;
    for (NodeId bs : ws.borders_s) {
      const double ds = d_src.Dist(bs);
      if (ds == kInfDistance) {
        continue;
      }
      for (NodeId bt : ws.borders_t) {
        const double dt = d_tgt.Dist(bt);
        if (dt == kInfDistance) {
          continue;
        }
        const double w =
            bs == bt ? 0.0 : hyper.at(HyperEdgeKey(cell_s, bs, cell_t, bt));
        b = std::min(b, ds + w + dt);
      }
    }
    return b;
  });
  Count("core.client_search.settled_per_answer",
        static_cast<double>(reached.size()));
  if (best == kInfDistance) {
    return false;
  }
  const bool path_ok =
      Stage("core.client_search.path_check_us", request, sum_us, [&] {
        return ClaimPositive(a.distance) &&
               CheckPathAgainstTuples(tuples, query, a.path, a.distance,
                                      &ws.path_scratch)
                   .accepted;
      });
  return path_ok && WithinSlack(a.distance, best);
}

}  // namespace

std::optional<std::vector<uint8_t>> DecomposeDijAnswer(
    const EngineState& state, const NetworkAds& twin, const Query& query,
    SearchWorkspace& ws, uint64_t request, double* stages_us) {
  *stages_us = 0;
  PathSearchResult sp = Stage("graph.sp_search_us", request, stages_us, [&] {
    return RunShortestPath(*state.graph, query.source, query.target,
                           SpAlgorithm::kDijkstra, ws);
  });
  Count("graph.settled_per_query", static_cast<double>(sp.settled));
  if (!sp.reachable) {
    return std::nullopt;
  }
  Stage("graph.ball_search_us", request, stages_us, [&] {
    DijkstraBall(*state.graph, query.source,
                 sp.distance + ProviderSlack(sp.distance), ws, &ws.ball);
  });
  auto proof = Stage("core.network_ads.prove_us", request, stages_us,
                     [&] { return twin.ProveTuples(ws.ball.nodes); });
  if (!proof.ok()) {
    return std::nullopt;
  }
  ByteWriter bytes;
  Stage("core.engine.assemble_us", request, stages_us, [&] {
    DijAnswer answer;
    answer.path = std::move(sp.path);
    answer.distance = sp.distance;
    answer.subgraph = std::move(proof).value();
    bytes.Reserve(state.cert_size + answer.SerializedSize());
    state.certificate.Serialize(&bytes);
    answer.Serialize(&bytes);
  });
  return bytes.TakeBytes();
}

void ProbeProviderSearch(const EngineState& state, const Query& query,
                         SearchWorkspace& ws, uint64_t request) {
  Span span("graph.sp_search_us", request);
  PathSearchResult sp = RunShortestPath(*state.graph, query.source,
                                        query.target, SpAlgorithm::kDijkstra,
                                        ws);
  span.End();
  Count("graph.settled_per_query", static_cast<double>(sp.settled));
}

bool DecomposeVerify(const RsaPublicKey& owner_key,
                     const ForestCertificate* forest,
                     std::span<const uint8_t> forest_path_bytes,
                     uint32_t shard, const Query& query,
                     std::span<const uint8_t> wire_bytes, VerifyWorkspace& ws,
                     uint64_t request, double* stages_us) {
  *stages_us = 0;
  Certificate& cert = ws.cert;
  const bool decoded = Stage("core.client.decode_us", request, stages_us, [&] {
    if (forest != nullptr) {
      ByteReader path_reader(forest_path_bytes);
      if (!ForestPath::DeserializeInto(&path_reader, &ws.forest_path).ok() ||
          !path_reader.AtEnd()) {
        return false;
      }
    }
    ByteReader reader(wire_bytes);
    if (!Certificate::DeserializeInto(&reader, &cert).ok()) {
      return false;
    }
    Status s;
    switch (cert.params.method) {
      case MethodKind::kDij:
        s = DijAnswer::DeserializeInto(&reader, &ws.dij);
        break;
      case MethodKind::kFull:
        s = FullAnswer::DeserializeInto(&reader, &ws.full);
        break;
      case MethodKind::kLdm:
        s = LdmAnswer::DeserializeInto(&reader, &ws.ldm);
        break;
      case MethodKind::kHyp:
        s = HypAnswer::DeserializeInto(&reader, &ws.hyp);
        break;
    }
    return s.ok() && reader.AtEnd();
  });
  if (!decoded) {
    return false;
  }
  const bool certified =
      Stage("core.client.cert_check_us", request, stages_us, [&] {
        if (forest == nullptr) {
          return VerifyCertificate(owner_key, cert);
        }
        return ws.forest_path.shard == shard &&
               CheckForestPath(*forest, ws.forest_path, cert.BodyDigest())
                   .ok();
      });
  if (!certified) {
    return false;
  }
  switch (cert.params.method) {
    case MethodKind::kDij:
      return VerifyDij(cert, query, ws.dij, ws, request, stages_us);
    case MethodKind::kFull:
      return VerifyFull(cert, query, ws.full, ws, request, stages_us);
    case MethodKind::kLdm:
      return VerifyLdm(cert, query, ws.ldm, ws, request, stages_us);
    case MethodKind::kHyp:
      return VerifyHyp(cert, query, ws.hyp, ws, request, stages_us);
  }
  return false;
}

Status ShadowOwner::Rotate(const RsaKeyPair& keys, const RotationBatch& batch,
                           uint64_t request, double* stages_us) {
  *stages_us = 0;
  WalRecord record;
  record.base_version = ads_.certificate.params.version;
  Status applied = Stage("core.updates.cow_rehash_us", request, stages_us, [&] {
    return batch.structural()
               ? ApplyStructuralUpdatesUnsigned(&graph_, &ads_, batch.ops)
               : ApplyEdgeWeightUpdatesUnsigned(&graph_, &ads_, batch.weights);
  });
  SPAUTH_RETURN_IF_ERROR(applied);
  auto cert = Stage("crypto.rsa_sign_us", request, stages_us, [&] {
    return MakeCertificate(keys, ads_.certificate.params, ads_.network.root(),
                           Digest());
  });
  SPAUTH_RETURN_IF_ERROR(cert.status());
  ads_.certificate = std::move(cert).value();
  if (batch.structural()) {
    record.kind = WalRecordKind::kStructural;
    record.structural = batch.ops;
  } else {
    record.updates = batch.weights;
  }
  return Stage("core.wal.append_fsync_us", request, stages_us,
               [&] { return wal_.Append(record); });
}

uint32_t DecomposeRecovery(const SnapshotStore& store,
                           const std::string& wal_path,
                           const EngineOptions& options,
                           const RsaKeyPair& keys, uint64_t request,
                           double* stages_us) {
  *stages_us = 0;
  auto state = Stage("core.snapshot_store.load_verify_ms", request, stages_us,
                     [&] { return store.LoadNewest(keys.public_key()); });
  if (!state.ok()) {
    return 0;
  }
  auto replay = Stage("core.wal.read_ms", request, stages_us,
                      [&] { return Wal::Read(wal_path); });
  if (!replay.ok()) {
    return 0;
  }
  size_t replayed = 0;
  const uint32_t version =
      Stage("core.recovery.replay_ms", request, stages_us, [&]() -> uint32_t {
        auto engine = MakeDijEngineFromState(options, state.value().graph,
                                             std::move(state.value().ads),
                                             keys.public_key());
        if (!engine.ok()) {
          return 0;
        }
        MethodEngine& e = *engine.value();
        for (const WalRecord& record : replay.value().records) {
          const uint32_t current = e.certificate().params.version;
          if (record.base_version < current) {
            continue;  // absorbed by the snapshot
          }
          if (record.base_version > current) {
            return 0;  // a gap in the log
          }
          auto applied =
              record.kind == WalRecordKind::kStructural
                  ? e.ApplyStructuralUpdates(keys, record.structural)
                  : e.ApplyEdgeWeightUpdates(keys, record.updates);
          if (!applied.ok()) {
            return 0;
          }
          ++replayed;
        }
        return e.certificate().params.version;
      });
  Count("core.wal.replayed_records", static_cast<double>(replayed));
  return version;
}

}  // namespace spauth::e2e
