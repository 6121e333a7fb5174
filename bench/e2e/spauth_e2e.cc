// spauth_e2e — one workload of the end-to-end benchmark per process.
//
//   spauth_e2e --workload NAME --seed N --seconds S --scratch-dir DIR
//              [--trace FILE] [--smoke] [--out FILE]
//
// A run sets the deployment up, then runs six rounds over about S seconds.
// Every round holds a slice of every phase, so each end-to-end metric
// samples the whole run rather than one stretch of it, and a burst of host
// interference spoils a slice instead of a metric:
//
//   setup      (once, before the rounds) ADS builds, certificate/forest
//              signing and server start — repeated, median kept. Then,
//              untimed: the owner engine's WAL and snapshot store, and the
//              recovery fixture (a checkpoint plus a fixed WAL tail);
//   in-process serial ShardedEngine::Answer + Client::Verify{,Forest} on
//              one thread with one reused workspace (answer/verify qps,
//              proof bytes);
//   net        an in-process SpauthServer (epoll loop, one worker, one
//              batch thread) on 127.0.0.1 and an open-loop generator over
//              two NetClient connections;
//   owner      rotations back to back (9 of 10 re-weight 8 edges, 1 of 10
//              is structural) on a one-group DIJ engine with a WAL (fsync
//              per rotation) and a SnapshotStore, checkpointing every N
//              rotations;
//   recovery   RecoverDijEngine from the fixture, each cycle ending with the
//              first verified answer at the fixture's acknowledged version.
//
// owner-churn serves its reads from the owner engine while it rotates;
// every other workload serves its own fleet and rotates a separate one-group
// DIJ owner unloaded (DIJ is the only method with an update path).
//
// Answers, verifies, rotations and recoveries all run on the main thread,
// which counts its user-space instructions and CPU cycles. The bounded
// metrics count instructions, which move with the code path and nothing
// else; cycles, wall-clock rates and latencies are reported beside them,
// unbounded.
//
// With --trace FILE every one-call path is also re-run as its chain of
// public stage calls (e2e_stages.h); FILE receives the Chrome trace and
// FILE.summary.json the per-layer summary. Any failed operation or
// correctness gate makes the process exit 1. Output: one JSON document on
// stdout (or --out).
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "core/client.h"
#include "core/sharded_engine.h"
#include "core/snapshot_store.h"
#include "core/verify_workspace.h"
#include "core/wal.h"
#include "crypto/rsa.h"
#include "e2e_stages.h"
#include "e2e_trace.h"
#include "net/client.h"
#include "net/server.h"
#include "util/rng.h"

namespace spauth::e2e {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads and the fixed setting
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  MethodKind method;
  size_t groups;  // routing groups of the serving fleet
  bool forest;    // EnableForestCertificates on the serving fleet
  bool zipf;      // Zipfian pairs instead of uniform pairs
  bool churn;     // reads served by the owner engine while it rotates
};

constexpr WorkloadSpec kWorkloads[] = {
    {"dij-uniform", MethodKind::kDij, 2, false, false, false},
    {"dij-zipf-forest", MethodKind::kDij, 2, true, true, false},
    {"owner-churn", MethodKind::kDij, 1, false, false, true},
    {"full-uniform", MethodKind::kFull, 1, false, false, false},
    {"ldm-uniform", MethodKind::kLdm, 1, false, false, false},
    {"hyp-uniform", MethodKind::kHyp, 1, false, false, false},
};

constexpr size_t kConnections = 2;
// Offered net load, all connections. A DIJ query holds its connection for
// about 0.75 ms (answer, loopback, client verify), so 500 qps per connection
// keeps each connection under half busy: latency is service, not queueing.
constexpr double kReadRate = 1000;
// The owner queue's coalesced batch in bench_throughput --update-storm.
constexpr size_t kEdgesPerRotation = 8;
constexpr size_t kStructuralEvery = 10;  // 1 of every 10 rotations
// YCSB's Zipfian constant (Cooper et al., SoCC 2010).
constexpr double kZipfTheta = 0.99;
constexpr double kSloUs = 5000;           // query_p99_us limit
constexpr double kWakeLateLimitUs = 500;  // generator lateness => invalid run
constexpr double kResidualTolerance = 0.15;
// Answers are timed and counted in windows of this many.
constexpr size_t kRateWindow = 250;
// Instructions are reported as means. Cycles are read at low percentiles:
// the host runs a core at two speeds, about 9 % apart in cycles, for
// seconds at a time; a median flips between them from run to run, a low
// percentile reads the undisturbed level. Windows are already means over a
// query mix, so their quartile suffices; single rotations and recoveries
// take the tenth percentile.
constexpr double kWindowPercentile = 25;
constexpr double kOpPercentile = 10;
// From the last connection's handshake to the first scheduled arrival.
constexpr int64_t kNetLeadNs = 1'000'000;

/// Phase sizes. Slices are timed, derived from --seconds; counts are fixed
/// for a given --seconds, so the determinism counts repeat exactly for a
/// seed.
struct Plan {
  size_t rounds = 6;
  double inproc_s = 0;          // per round
  double net_s = 0;             // per round; 0 for owner-churn
  size_t rotations = 0;         // per round, back to back
  size_t counted = 1000;        // answers counted per round (at least)
  size_t checkpoint_every = 100;
  size_t tail = 10;             // WAL records of the recovery fixture
  size_t recovery_cycles = 2;   // per round
  size_t setup_min = 5;         // set-ups: at least this many ...
  double setup_budget_s = 1.0;  // ... and until this much time is spent
  size_t setup_max = 40;
  size_t zipf_warm = 8192;      // the serving fleet's cache capacity
};

Plan MakePlan(const WorkloadSpec& spec, double seconds, bool smoke) {
  Plan plan;
  if (smoke) {
    plan.rounds = 2;
  }
  const double round_s = seconds / static_cast<double>(plan.rounds);
  if (spec.churn) {
    // At ~8.5 ms a rotation, the owner rotates for about half the round.
    plan.inproc_s = 0.3 * round_s;
    plan.rotations = static_cast<size_t>(60 * round_s);
  } else {
    // The in-process slice carries the bounded answer and verify counts;
    // 210 rotations over six rounds leave twenty below the tenth percentile.
    plan.inproc_s = 0.55 * round_s;
    plan.net_s = 0.25 * round_s;
    plan.rotations = 35;
  }
  if (smoke) {
    plan.rotations /= 4;
    plan.counted = kRateWindow;
    plan.checkpoint_every = 10;
    plan.tail = 3;
    plan.recovery_cycles = 1;
    plan.setup_min = 2;
    plan.setup_budget_s = 0.1;
    plan.zipf_warm = 500;
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Books: attempted/failed operations and correctness gates
// ---------------------------------------------------------------------------

struct Books {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the report

  bool Op(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) {
        failures.push_back(what);
      }
    }
    return ok;
  }
  void Merge(const Books& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& f : other.failures) {
      if (failures.size() < 8) {
        failures.push_back(f);
      }
    }
  }
};

/// Open-loop threads sleep until each scheduled arrival; the default 50 us
/// timer slack would otherwise show up as generator lateness.
void PreciseSleeps() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

/// CPU slots of the four-CPU thread budget: the owner and in-process
/// thread, one per generator connection, and the server (its epoll loop and
/// worker inherit the slot of the thread that starts it). Each busy thread
/// gets a CPU of its own: a thread woken on a CPU that is busy (signing a
/// rotation, say) can wait there for a scheduler tick, which showed up as
/// multi-millisecond generator lateness.
enum CpuSlot : size_t { kOwnerCpu = 0, kFirstClientCpu = 1, kServerCpu = 3 };

/// Pins the calling thread to slot `slot` of the allowed CPUs; a no-op on
/// hosts that allow fewer than four.
void PinToCpu(size_t slot) {
  // The first call runs on the main thread, before anything is pinned.
  static const std::vector<int> budget = [] {
    std::vector<int> cpus;
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 4; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          cpus.push_back(cpu);
        }
      }
    }
    return cpus;
  }();
  if (budget.size() < 4) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(budget[slot], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

uint64_t NextRequest() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// The ground-truth-free acceptance check of bench_net_loadgen: the path
/// joins the query's endpoints and its distance is finite and positive.
bool SaneAccept(const Query& query, const WireVerification& v) {
  if (!v.outcome.accepted || v.path.empty() ||
      v.path.source() != query.source || v.path.target() != query.target) {
    return false;
  }
  return std::isfinite(v.distance) && v.distance > 0;
}

// ---------------------------------------------------------------------------
// Seeded inputs: queries and rotations
// ---------------------------------------------------------------------------

/// Every stream of a run (a round's queries, a connection's queries, the
/// rotations) draws from its own generator, so a stream's inputs do not
/// depend on how far a timed slice got in another.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
}

enum Stream : uint64_t {
  kRotationStream = 77,
  kWarmStream = 78,
  kInProcessStream = 1000,   // + round
  kRecoveryStream = 20000,   // + round
  kNetStream = 40000,        // + round * kConnections + connection
};

Query UniformPair(Rng& rng, uint32_t num_nodes) {
  Query q;
  q.source = static_cast<NodeId>(rng.NextBounded(num_nodes));
  do {
    q.target = static_cast<NodeId>(rng.NextBounded(num_nodes));
  } while (q.target == q.source);
  return q;
}

uint64_t Fnv1a64(uint64_t x) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((x >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

/// YCSB's Zipfian generator (Gray et al., SIGMOD 1994) at YCSB's constant
/// over every ordered pair of distinct nodes, with ranks scattered over the
/// pairs by an FNV-1a hash as YCSB scatters its hot keys. The key space is
/// the graph's own, so the workload has no size of its own to choose.
class ZipfPairs {
 public:
  explicit ZipfPairs(uint32_t num_nodes)
      : num_nodes_(num_nodes),
        items_(static_cast<uint64_t>(num_nodes) * (num_nodes - 1)) {
    for (uint64_t i = 1; i <= items_; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), kZipfTheta);
    }
    const double zeta2 = 1.0 + std::pow(0.5, kZipfTheta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(items_), 1.0 - kZipfTheta)) /
           (1.0 - zeta2 / zetan_);
  }

  Query Draw(Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    uint64_t rank = 0;
    if (uz >= 1.0 + std::pow(0.5, kZipfTheta)) {
      rank = static_cast<uint64_t>(
          static_cast<double>(items_) *
          std::pow(eta_ * u - eta_ + 1.0, 1.0 / (1.0 - kZipfTheta)));
    } else if (uz >= 1.0) {
      rank = 1;
    }
    const uint64_t item = Fnv1a64(std::min(rank, items_ - 1)) % items_;
    Query q;
    q.source = static_cast<NodeId>(item / (num_nodes_ - 1));
    const auto t = static_cast<NodeId>(item % (num_nodes_ - 1));
    q.target = t >= q.source ? t + 1 : t;
    return q;
  }

 private:
  uint32_t num_nodes_;
  uint64_t items_;
  double zetan_ = 0;
  double eta_ = 0;
};

/// One query stream (s != t, both original nodes of the connected graph).
class QuerySource {
 public:
  QuerySource(uint32_t num_nodes, uint64_t stream_seed, const ZipfPairs* zipf)
      : rng_(stream_seed), num_nodes_(num_nodes), zipf_(zipf) {}

  Query Next() {
    return zipf_ == nullptr ? UniformPair(rng_, num_nodes_) : zipf_->Draw(rng_);
  }

 private:
  Rng rng_;
  uint32_t num_nodes_;
  const ZipfPairs* zipf_;
};

uint64_t PairKey(const Query& q) {
  return static_cast<uint64_t>(q.source) << 32 | q.target;
}

/// The owner's update stream. Weight batches re-weight 8 distinct original
/// edges within +-20 % of their original weight; every tenth rotation adds
/// a vertex, wires it in with two edges and removes an edge the previous
/// structural rotation added, so the query cost stays stationary.
class RotationSource {
 public:
  RotationSource(const Graph& g, uint64_t seed)
      : g_(g),
        rng_(StreamSeed(seed, kRotationStream)),
        next_id_(g.num_nodes()) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const Edge& e : g.Neighbors(u)) {
        if (u < e.to) {
          edges_.push_back({u, e.to, e.weight});
        }
      }
    }
  }

  RotationBatch Next() {
    RotationBatch batch;
    if (++k_ % kStructuralEvery == 0) {
      const NodeId u = static_cast<NodeId>(rng_.NextBounded(g_.num_nodes()));
      const auto nbrs = g_.Neighbors(u);
      const NodeId nb = nbrs[rng_.NextBounded(nbrs.size())].to;
      const NodeId id = next_id_++;
      const double x = g_.x(u) + 0.5;
      const double y = g_.y(u) + 0.5;
      batch.ops.push_back(StructuralUpdate::AddVertex(x, y));
      batch.ops.push_back(StructuralUpdate::AddEdge(id, u, 1.1));
      batch.ops.push_back(StructuralUpdate::AddEdge(
          id, nb, std::hypot(g_.x(nb) - x, g_.y(nb) - y) * 1.25 + 1.0));
      if (prev_.has_value()) {
        batch.ops.push_back(
            StructuralUpdate::RemoveEdge(prev_->first, prev_->second));
      }
      prev_ = std::make_pair(id, nb);
      return batch;
    }
    while (batch.weights.size() < kEdgesPerRotation) {
      const EdgeWeightUpdate& e = edges_[rng_.NextBounded(edges_.size())];
      const bool repeated = std::any_of(
          batch.weights.begin(), batch.weights.end(),
          [&](const EdgeWeightUpdate& w) { return w.u == e.u && w.v == e.v; });
      if (!repeated) {
        batch.weights.push_back(
            {e.u, e.v, e.new_weight * rng_.NextDoubleIn(0.8, 1.2)});
      }
    }
    return batch;
  }

 private:
  const Graph& g_;
  Rng rng_;
  NodeId next_id_;
  size_t k_ = 0;                         // rotations drawn so far
  std::vector<EdgeWeightUpdate> edges_;  // original edges (new_weight = w)
  std::optional<std::pair<NodeId, NodeId>> prev_;
};

// ---------------------------------------------------------------------------
// Deployment (the set-up that setup_s times) and the owner's durable state
// ---------------------------------------------------------------------------

EngineOptions ServingOptions(MethodKind method) {
  EngineOptions options = bench::DefaultEngineOptions(method);
  options.enable_proof_cache = true;  // default 4096 entries per engine
  options.full_use_floyd_warshall = false;  // as bench_throughput
  return options;
}

struct Deployment {
  // Members tear down in reverse order: the server stops before the fleets
  // it serves, and the WAL outlives the engine it is attached to.
  std::unique_ptr<Wal> wal;
  std::unique_ptr<SnapshotStore> store;
  std::unique_ptr<ShardedEngine> fleet;        // serves reads
  std::unique_ptr<ShardedEngine> owner_fleet;  // null when fleet is the owner
  std::unique_ptr<SpauthServer> server;

  ShardedEngine& owner() { return owner_fleet ? *owner_fleet : *fleet; }
};

/// What setup_s times: the serving fleet's ADS builds, its certificate (and
/// forest) signing and the server start.
Result<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& spec,
                                          const Graph& g,
                                          const RsaKeyPair& keys) {
  auto d = std::make_unique<Deployment>();
  SPAUTH_ASSIGN_OR_RETURN(
      d->fleet, ShardedEngine::BuildReplicated(g, ServingOptions(spec.method),
                                               spec.groups, keys));
  if (spec.forest) {
    SPAUTH_RETURN_IF_ERROR(d->fleet->EnableForestCertificates(keys));
  }
  ServerOptions server_options;
  server_options.worker_threads = 1;
  server_options.batch_threads = 1;
  d->server = std::make_unique<SpauthServer>(d->fleet.get(), keys.public_key(),
                                             server_options);
  PinToCpu(kServerCpu);
  const Status started = d->server->Start();
  PinToCpu(kOwnerCpu);
  SPAUTH_RETURN_IF_ERROR(started);
  return d;
}

/// Where recovery starts from: a snapshot plus a WAL tail of Plan::tail
/// records, written once and recovered every round, so every recovery
/// replays the same records.
struct Fixture {
  std::string store_dir;
  std::string wal_path;
  uint32_t version = 0;  // the last acknowledged version
};

/// The library's rotation call and what it cost.
struct RotationTimes {
  double call_us = 0;
  CpuCounts call_counts;
  double stages_us = 0;  // traced: the shadow's stage chain
  uint64_t signs = 0;
  uint64_t clone_bytes = 0;
};

/// Applies `batch` to the owner; in traced runs the shadow replays it as its
/// stages, and its signature must equal the published one.
Result<uint32_t> ApplyRotation(ShardedEngine& owner, const RsaKeyPair& keys,
                               const RotationBatch& batch,
                               ShadowOwner* shadow, Books& books,
                               RotationTimes* times) {
  const MethodEngine& engine = owner.shard(0);
  const uint64_t request = NextRequest();
  const uint64_t signs_before = RsaSignOps();
  const uint64_t clone_before = engine.rotation_clone_bytes();
  Span span("core.engine.rotation_us", request);
  const CpuCounts counts_before = ThreadCounts();
  auto rotated = batch.structural()
                     ? owner.ApplyStructuralUpdates(0, keys, batch.ops)
                     : owner.ApplyEdgeWeightUpdates(0, keys, batch.weights);
  times->call_counts = ThreadCounts() - counts_before;
  times->call_us = span.elapsed_us();
  span.End();
  times->signs = RsaSignOps() - signs_before;
  times->clone_bytes = engine.rotation_clone_bytes() - clone_before;
  if (rotated.ok() && shadow != nullptr) {
    const Status s = shadow->Rotate(keys, batch, request, &times->stages_us);
    books.Op(s.ok() && shadow->certificate().signature ==
                           engine.certificate().signature,
             "shadow rotation signature differs from the published one");
  }
  return rotated;
}

/// SnapshotStore::Checkpoint, timed; the shadow log restarts with it.
Status TimedCheckpoint(SnapshotStore& store, const MethodEngine& engine,
                       Wal* wal, ShadowOwner* shadow, Samples* ms) {
  Span checkpoint("core.snapshot_store.checkpoint_ms");
  Status s = store.Checkpoint(engine, wal);
  ms->Add(static_cast<double>(checkpoint.End()) / 1e6);
  if (s.ok() && shadow != nullptr) {
    s = shadow->ResetLog();
  }
  return s;
}

/// Not part of setup_s — its cost is the disk's fsync latency and RSA
/// signing, which the owner phase measures. Writes the recovery fixture
/// under `dir`/fixture, then attaches the owner engine to its own WAL and
/// snapshot store under `dir`.
Status AttachDurability(const Plan& plan, Deployment* d, const fs::path& dir,
                        const RsaKeyPair& keys, RotationSource& rotations,
                        ShadowOwner* shadow, Books& books, Samples* ms,
                        Fixture* fixture) {
  std::error_code ec;
  fs::create_directories(dir / "fixture" / "snapshots", ec);
  fs::create_directories(dir / "snapshots", ec);
  if (ec) {
    return Status::Internal("cannot create " + dir.string());
  }
  MethodEngine& engine = d->owner().shard(0);
  {
    SPAUTH_ASSIGN_OR_RETURN(
        Wal wal, Wal::Open((dir / "fixture" / "owner.wal").string()));
    SnapshotStore store((dir / "fixture" / "snapshots").string());
    engine.AttachWal(&wal);
    Status s = TimedCheckpoint(store, engine, &wal, shadow, ms);
    for (size_t i = 0; s.ok() && i < plan.tail; ++i) {
      RotationTimes times;
      auto rotated = ApplyRotation(d->owner(), keys, rotations.Next(), shadow,
                                   books, &times);
      s = rotated.status();
      if (s.ok()) {
        fixture->version = rotated.value();
      }
    }
    engine.AttachWal(nullptr);
    SPAUTH_RETURN_IF_ERROR(s);
    fixture->store_dir = store.dir();
    fixture->wal_path = wal.path();
  }
  SPAUTH_ASSIGN_OR_RETURN(Wal wal, Wal::Open((dir / "owner.wal").string()));
  d->wal = std::make_unique<Wal>(std::move(wal));
  d->store = std::make_unique<SnapshotStore>((dir / "snapshots").string());
  engine.AttachWal(d->wal.get());
  return TimedCheckpoint(*d->store, engine, d->wal.get(), shadow, ms);
}

// ---------------------------------------------------------------------------
// In-process phase
// ---------------------------------------------------------------------------

struct InProcessRun {
  Samples answer_us;
  Samples verify_us;
  // Mean cycles and instructions per answer and per verify of each window.
  Samples answer_kcycles, answer_kinstr;
  Samples verify_kcycles, verify_kinstr;
  // Exact counts over the first Plan::counted answers of every round.
  size_t counted = 0;
  double proof_bytes = 0;
  double tuples = 0;
  double digests = 0;
  double rsa_verifies = 0;
  ProofCacheStats cache;  // over the first round's counted answers
  // Traced only: end-to-end time and residual of the decomposed paths.
  Samples answer_miss_us, answer_residual_us;
  Samples verify_residual_us;
};

/// What the in-process phase keeps across rounds: one workspace per party
/// and the client, whose version watermarks persist.
struct InProcess {
  explicit InProcess(const RsaPublicKey& owner_key) : client(owner_key) {}

  SearchWorkspace ws;
  VerifyWorkspace decompose_ws;
  Client client;
  std::unordered_set<uint64_t> seen;  // traced: pairs answered so far
  InProcessRun run;
};

ProofCacheStats CacheDelta(const ProofCacheStats& a, const ProofCacheStats& b) {
  ProofCacheStats d;
  d.hits = b.hits - a.hits;
  d.misses = b.misses - a.misses;
  d.evictions = b.evictions - a.evictions;
  return d;
}

/// One answered query of an in-process window.
struct Answered {
  Query query;
  size_t group = 0;
  uint64_t request = 0;
  std::shared_ptr<const ProofBundle> bundle;  // null when the answer failed
};

/// The traced answer: the engine call, and for a DIJ miss its stage chain
/// (bytes must match). On every other fresh query the chain runs before the
/// engine call, so CPU-cache warmth favours neither side of the residual.
void TracedAnswer(const WorkloadSpec& spec, const ShardedEngine& fleet,
                  const NetworkAds* twin, InProcess& p, Answered* a,
                  Books& books) {
  const MethodEngine& engine = fleet.shard(a->group);
  Span acquire("core.engine.snapshot_acquire_us", a->request);
  const std::shared_ptr<const EngineState> state = engine.CurrentState();
  acquire.End();
  const uint64_t hits_before = engine.proof_cache_stats().hits;
  const bool dij = spec.method == MethodKind::kDij;
  const bool chain_first =
      dij && a->request % 2 == 0 && p.seen.insert(PairKey(a->query)).second;
  std::optional<std::vector<uint8_t>> recomposed;
  double stages_us = 0;
  if (chain_first) {
    recomposed = DecomposeDijAnswer(*state, *twin, a->query, p.ws, a->request,
                                    &stages_us);
  }

  Span answer_span("core.engine.answer_us", a->request);
  auto answered = fleet.Answer(a->query, p.ws);
  const double answer_us = answer_span.elapsed_us();
  answer_span.End();
  p.run.answer_us.Add(answer_us);
  if (!books.Op(answered.ok(), "in-process answer failed")) {
    return;
  }
  a->bundle = std::move(answered).value();
  if (engine.proof_cache_stats().hits > hits_before) {
    Count("util.proof_cache.hit_us", answer_us, "us");
  } else if (dij) {
    if (!chain_first) {
      p.seen.insert(PairKey(a->query));
      recomposed = DecomposeDijAnswer(*state, *twin, a->query, p.ws,
                                      a->request, &stages_us);
    }
    books.Op(recomposed.has_value() &&
                 std::ranges::equal(*recomposed, a->bundle->bytes),
             "re-composed DIJ bytes differ from the engine's bundle");
    p.run.answer_miss_us.Add(answer_us);
    p.run.answer_residual_us.Add(answer_us - stages_us);
    Count("core.engine.answer_residual_us", answer_us - stages_us, "us");
  } else {
    ProbeProviderSearch(*state, a->query, p.ws, a->request);
  }
}

/// One round's in-process slice: windows of answers, each followed by its
/// verifies, for Plan::inproc_s and at least Plan::counted answers.
void RunInProcessRound(const WorkloadSpec& spec, const Plan& plan,
                       size_t round, const ShardedEngine& fleet,
                       const RsaPublicKey& owner_key, QuerySource& source,
                       const NetworkAds* twin, InProcess& p, Books& books) {
  const bool traced = TracingEnabled();
  const std::shared_ptr<const FleetCertificate> forest = fleet.forest();
  const ProofCacheStats cache_before = fleet.GetStats().totals.cache;
  const int64_t deadline = NowNs() + static_cast<int64_t>(plan.inproc_s * 1e9);
  size_t counted = 0;
  std::vector<Query> queries(kRateWindow);
  std::vector<Answered> batch;
  batch.reserve(kRateWindow);
  while (NowNs() < deadline || counted < plan.counted) {
    // The provider answers a window back to back, then the client verifies
    // it: they are two parties, and interleaving them per query would make
    // each evict the other's working set from the CPU caches. The window's
    // queries are drawn first, so its CPU counts are the library's.
    const size_t counted_before_window = counted;
    batch.clear();
    for (Query& q : queries) {
      q = source.Next();
    }
    const CpuCounts answers_start = ThreadCounts();
    for (size_t i = 0; i < kRateWindow; ++i) {
      Answered a;
      a.query = queries[i];
      a.group = fleet.RouteOf(a.query);
      a.request = NextRequest();
      if (traced) {
        TracedAnswer(spec, fleet, twin, p, &a, books);
      } else {
        const int64_t t0 = NowNs();
        auto answered = fleet.Answer(a.query, p.ws);
        p.run.answer_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
        if (!books.Op(answered.ok(), "in-process answer failed")) {
          continue;
        }
        a.bundle = std::move(answered).value();
      }
      if (a.bundle != nullptr) {
        batch.push_back(std::move(a));
      }
    }
    const CpuCounts verifies_start = ThreadCounts();

    for (const Answered& a : batch) {
      const ProofBundle& bundle = *a.bundle;
      const std::span<const uint8_t> path_bytes =
          spec.forest
              ? std::span<const uint8_t>(forest->encoded_paths[a.group])
              : std::span<const uint8_t>();
      const uint64_t rsa_before = RsaVerifyOps();
      Span verify_span("core.client.verify_us", a.request);
      const WireVerification v =
          spec.forest
              ? p.client.VerifyForest(a.query, bundle.bytes, path_bytes,
                                      a.group)
              : p.client.Verify(a.query, bundle.bytes, a.group);
      const double verify_us = verify_span.elapsed_us();
      verify_span.End();
      const double rsa = static_cast<double>(RsaVerifyOps() - rsa_before);
      books.Op(SaneAccept(a.query, v), "in-process verify rejected an answer");
      p.run.verify_us.Add(verify_us);
      if (traced) {
        double stages_us = 0;
        const bool accepted = DecomposeVerify(
            owner_key, spec.forest ? &forest->certificate : nullptr,
            path_bytes, static_cast<uint32_t>(a.group), a.query, bundle.bytes,
            p.decompose_ws, a.request, &stages_us);
        books.Op(accepted == v.outcome.accepted,
                 "decomposed verify disagrees with Client::Verify");
        p.run.verify_residual_us.Add(verify_us - stages_us);
        Count("core.client.verify_residual_us", verify_us - stages_us, "us");
      }

      if (counted < plan.counted) {
        ++counted;
        ++p.run.counted;
        p.run.proof_bytes += static_cast<double>(bundle.bytes.size());
        p.run.tuples += static_cast<double>(bundle.stats.sp_items);
        p.run.digests += static_cast<double>(bundle.stats.t_items);
        p.run.rsa_verifies += rsa;
        Count("core.proof.tuples_per_answer",
              static_cast<double>(bundle.stats.sp_items));
        Count("core.proof.digests_per_answer",
              static_cast<double>(bundle.stats.t_items));
        Count("crypto.rsa_verifies_per_answer", rsa);
      }
    }
    // Traced windows include the decompositions: the tracing overhead.
    if (!batch.empty()) {
      const CpuCounts answers = verifies_start - answers_start;
      const CpuCounts verifies = ThreadCounts() - verifies_start;
      const double n_answers = 1e3 * static_cast<double>(kRateWindow);
      const double n_verifies = 1e3 * static_cast<double>(batch.size());
      p.run.answer_kcycles.Add(static_cast<double>(answers.cycles) /
                               n_answers);
      p.run.answer_kinstr.Add(static_cast<double>(answers.instructions) /
                              n_answers);
      p.run.verify_kcycles.Add(static_cast<double>(verifies.cycles) /
                               n_verifies);
      p.run.verify_kinstr.Add(static_cast<double>(verifies.instructions) /
                              n_verifies);
    }
    // Plan::counted is a whole number of windows, so this delta covers
    // exactly the counted answers; later rounds share the cache with net
    // traffic whose arrival order is not fixed.
    if (round == 0 && counted == plan.counted &&
        counted_before_window < plan.counted) {
      p.run.cache = CacheDelta(cache_before, fleet.GetStats().totals.cache);
      Count("util.proof_cache.hit_ratio", p.run.cache.hit_rate());
      Count("util.proof_cache.evictions_per_query",
            static_cast<double>(p.run.cache.evictions) /
                static_cast<double>(plan.counted));
    }
  }
}

// ---------------------------------------------------------------------------
// Net phase: open loop over kConnections NetClient connections
// ---------------------------------------------------------------------------

struct NetLoad {
  Samples latency_us;  // scheduled arrival -> verified; failures are +inf
  Samples wait_us;     // scheduled arrival -> send (queued behind the conn)
  Samples wake_late_us;
  Samples query_us;    // NetClient::Query, send -> verified
  Books books;

  void Merge(const NetLoad& o) {
    latency_us.Append(o.latency_us);
    wait_us.Append(o.wait_us);
    wake_late_us.Append(o.wake_late_us);
    query_us.Append(o.query_us);
    books.Merge(o.books);
  }
};

/// Connects every connection, then offers kReadRate queries/s for
/// `seconds`, or until `*stop` is set. The schedule's start is published in
/// `*started` (when given). Connection c draws its queries from stream
/// `first_stream` + c.
NetLoad RunNetLoad(uint16_t port, const RsaPublicKey& owner_key,
                   double seconds, uint64_t seed, uint64_t first_stream,
                   uint32_t num_nodes, const ZipfPairs* zipf,
                   const std::atomic<bool>* stop = nullptr,
                   std::atomic<int64_t>* started = nullptr) {
  std::vector<NetLoad> per_conn(kConnections);
  const double conn_rate = kReadRate / static_cast<double>(kConnections);
  const int64_t interval = static_cast<int64_t>(1e9 / conn_rate);
  const size_t total = static_cast<size_t>(conn_rate * seconds);
  std::atomic<size_t> connected{0};
  std::atomic<int64_t> schedule{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      PinToCpu(kFirstClientCpu + c);
      PreciseSleeps();
      NetLoad& out = per_conn[c];
      NetClientOptions options;
      options.host = "127.0.0.1";
      options.port = port;
      NetClient client(owner_key, options);
      const bool up = client.Connect().ok();
      connected.fetch_add(1, std::memory_order_release);
      if (!out.books.Op(up, "net connect failed")) {
        return;
      }
      int64_t start = 0;
      while ((start = schedule.load(std::memory_order_acquire)) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      QuerySource source(num_nodes, StreamSeed(seed, first_stream + c), zipf);
      // Phase-staggered so the connections do not fire in lock-step.
      const int64_t phase =
          interval * static_cast<int64_t>(c) / static_cast<int64_t>(kConnections);
      for (size_t k = 0; k < total; ++k) {
        if (stop != nullptr && stop->load(std::memory_order_acquire)) {
          break;
        }
        const int64_t scheduled =
            start + phase + interval * static_cast<int64_t>(k);
        int64_t now = NowNs();
        if (now < scheduled) {
          std::this_thread::sleep_until(
              Clock::time_point(std::chrono::nanoseconds(scheduled)));
          now = NowNs();
          out.wake_late_us.Add(static_cast<double>(now - scheduled) / 1e3);
        }
        const double wait_us =
            static_cast<double>(std::max<int64_t>(0, now - scheduled)) / 1e3;
        out.wait_us.Add(wait_us);
        Count("net.loadgen.wait_us", wait_us, "us");
        const Query q = source.Next();
        Span span("net.client.query_us", NextRequest());
        auto r = client.Query(q);
        out.query_us.Add(span.elapsed_us());
        span.End();
        const bool ok = r.ok() && SaneAccept(q, r.value());
        out.books.Op(ok, r.ok() ? "net answer rejected or insane"
                                : "net query failed");
        out.latency_us.Add(ok ? static_cast<double>(NowNs() - scheduled) / 1e3
                              : std::numeric_limits<double>::infinity());
      }
    });
  }
  while (connected.load(std::memory_order_acquire) < kConnections) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const int64_t start = NowNs() + kNetLeadNs;
  if (started != nullptr) {
    started->store(start, std::memory_order_release);
  }
  schedule.store(start, std::memory_order_release);
  for (std::thread& t : threads) {
    t.join();
  }
  NetLoad merged;
  for (const NetLoad& p : per_conn) {
    merged.Merge(p);
  }
  return merged;
}

/// Server-side books, summed over the net slices.
struct ServerBooks {
  uint64_t answer_micros = 0;  // engine answer time while serving
  uint64_t queries = 0;
  uint64_t received = 0;
  uint64_t batches = 0;
  uint64_t bytes_sent = 0;
  uint64_t answers_ok = 0;
  uint64_t backpressure_stalls = 0;
  uint64_t proof_bytes_copied = 0;

  void Add(const ServerStats& before, const ServerStats& after,
           const ShardStats& engine_before, const ShardStats& engine_after) {
    answer_micros += engine_after.answer_micros - engine_before.answer_micros;
    queries += engine_after.queries - engine_before.queries;
    received += after.queries_received - before.queries_received;
    batches += after.batches_dispatched - before.batches_dispatched;
    bytes_sent += after.proof_bytes_sent - before.proof_bytes_sent;
    answers_ok += after.answers_ok - before.answers_ok;
    backpressure_stalls +=
        after.backpressure_stalls - before.backpressure_stalls;
    proof_bytes_copied = after.proof_bytes_copied;
  }
};

// ---------------------------------------------------------------------------
// Owner phase and recovery
// ---------------------------------------------------------------------------

struct OwnerRun {
  Samples rotation_ms;  // the Apply*Updates call
  Samples rotation_mcycles, rotation_minstr;
  Samples checkpoint_ms;
  Samples call_us, residual_us;  // traced: rotation call vs its stages
  size_t rotated = 0;            // successful rotations of the rounds
  double rsa_signs = 0;
  size_t live_snapshots_max = 0;
};

/// Plan::rotations back to back: the owner at its own maximum rate, so no
/// update rate is assumed. A checkpoint every Plan::checkpoint_every
/// rotations is not on the rotation path, but reads run through it.
void RunOwner(const Plan& plan, ShardedEngine& owner, SnapshotStore& store,
              Wal& wal, const RsaKeyPair& keys, RotationSource& rotations,
              ShadowOwner* shadow, Books& books, OwnerRun* out) {
  MethodEngine& engine = owner.shard(0);
  for (size_t i = 0; i < plan.rotations; ++i) {
    RotationTimes times;
    auto rotated =
        ApplyRotation(owner, keys, rotations.Next(), shadow, books, &times);
    if (!books.Op(rotated.ok(), "rotation failed")) {
      continue;
    }
    out->rotation_ms.Add(times.call_us / 1e3);
    out->rotation_mcycles.Add(static_cast<double>(times.call_counts.cycles) /
                              1e6);
    out->rotation_minstr.Add(
        static_cast<double>(times.call_counts.instructions) / 1e6);
    out->rsa_signs += static_cast<double>(times.signs);
    Count("crypto.rsa_signs_per_rotation", static_cast<double>(times.signs));
    Count("core.engine.rotation_clone_bytes",
          static_cast<double>(times.clone_bytes), "B");
    out->live_snapshots_max =
        std::max(out->live_snapshots_max, engine.live_snapshots());
    if (shadow != nullptr) {
      out->call_us.Add(times.call_us);
      out->residual_us.Add(times.call_us - times.stages_us);
      Count("core.engine.rotation_residual_us",
            times.call_us - times.stages_us, "us");
    }
    if (++out->rotated % plan.checkpoint_every == 0) {
      books.Op(TimedCheckpoint(store, engine, &wal, shadow,
                               &out->checkpoint_ms)
                   .ok(),
               "checkpoint failed");
    }
  }
}

struct RecoveryRun {
  Samples recovery_ms;  // RecoverDijEngine + first verified answer
  Samples recovery_mcycles, recovery_minstr;
  Samples call_ms, residual_ms;  // traced: RecoverDijEngine vs its stages
  size_t replayed = 0;
};

void RunRecovery(const Plan& plan, const Fixture& fixture,
                 const RsaKeyPair& keys, QuerySource& source, Books& books,
                 RecoveryRun* out) {
  const EngineOptions options = ServingOptions(MethodKind::kDij);
  const SnapshotStore store(fixture.store_dir);
  for (size_t cycle = 0; cycle < plan.recovery_cycles; ++cycle) {
    const Query q = source.Next();
    const uint64_t request = NextRequest();
    Span total("core.recovery.total_ms", request);
    const CpuCounts counts_before = ThreadCounts();
    const int64_t call_start = NowNs();
    auto report = RecoverDijEngine(store, fixture.wal_path, options, keys);
    const double call_ms = static_cast<double>(NowNs() - call_start) / 1e6;
    bool ok = report.ok() && report.value().recovered_version == fixture.version;
    if (ok) {
      auto answered = report.value().engine->AnswerShared(q);
      Client client(keys.public_key());
      ok = answered.ok();
      if (ok) {
        const WireVerification v = client.Verify(q, answered.value()->bytes);
        ok = SaneAccept(q, v) && v.version == fixture.version;
      }
    }
    const CpuCounts counts = ThreadCounts() - counts_before;
    out->recovery_mcycles.Add(static_cast<double>(counts.cycles) / 1e6);
    out->recovery_minstr.Add(static_cast<double>(counts.instructions) / 1e6);
    out->recovery_ms.Add(static_cast<double>(total.End()) / 1e6);
    books.Op(ok, "recovery missed the last acknowledged version");
    if (report.ok()) {
      out->replayed = report.value().wal_records_replayed;
    }
    if (TracingEnabled()) {
      double stages_us = 0;
      const uint32_t version = DecomposeRecovery(
          store, fixture.wal_path, options, keys, request, &stages_us);
      books.Op(version == fixture.version,
               "decomposed recovery missed the last acknowledged version");
      out->call_ms.Add(call_ms);
      out->residual_ms.Add(call_ms - stages_us / 1e3);
      Count("core.recovery.residual_ms", call_ms - stages_us / 1e3, "ms");
    }
  }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// `"name": {"value": v, "unit": u, "n": n}`.
std::string Metric(const char* name, double value, const char* unit,
                   size_t n) {
  return std::string("\"") + name + "\": {\"value\": " + Num(value) +
         ", \"unit\": \"" + unit + "\", \"n\": " + std::to_string(n) + "}";
}

/// p50 plus the highest percentile with at least ten samples beyond it.
std::string Timing(const char* name, const Samples& s, const char* unit) {
  const double tail = s.TailPercentileRank();
  return std::string("\"") + name + "\": {\"unit\": \"" + unit +
         "\", \"n\": " + std::to_string(s.n()) +
         ", \"p50\": " + Num(s.Percentile(50)) +
         ", \"tail_percentile\": " + Num(tail) +
         ", \"tail\": " + Num(s.Percentile(tail)) + "}";
}

std::string JoinLines(const std::vector<std::string>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "\n    " : ",\n    ") + items[i];
  }
  return out + "\n  ";
}

double Rate(const Samples& us) {
  return us.Sum() > 0 ? static_cast<double>(us.n()) / (us.Sum() / 1e6) : 0;
}

/// A traced path's residual as a share of its end-to-end mean.
double ResidualShare(const Samples& residual, const Samples& e2e) {
  return e2e.Mean() > 0 ? residual.Mean() / e2e.Mean() : 0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string scratch_dir;
  std::string trace;
  std::string out;
  bool smoke = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return std::nullopt;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--scratch-dir") {
      args.scratch_dir = value;
    } else if (flag == "--trace") {
      args.trace = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || args.scratch_dir.empty() ||
      !(args.seconds > 0)) {
    return std::nullopt;
  }
  return args;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Everything one run measured.
struct RunResults {
  Samples setup_s;
  InProcessRun inproc;
  NetLoad net;
  ServerBooks server;
  OwnerRun owner;
  RecoveryRun recovery;
  double peak_rss_mb = 0;
  std::vector<std::string> residuals;  // traced: per-path residual shares
};

/// Traced runs fail when a decomposition no longer adds up to its path.
void CheckResiduals(RunResults* r, Books& books) {
  auto check = [&](const char* path, const Samples& residual,
                   const Samples& e2e) {
    if (e2e.empty()) {
      return;
    }
    const double share = ResidualShare(residual, e2e);
    books.Op(std::abs(share) <= kResidualTolerance,
             "a path residual exceeds 15 % of its end-to-end mean");
    r->residuals.push_back(std::string("\"") + path + "\": {\"share\": " +
                           Num(share) + ", \"e2e_mean\": " + Num(e2e.Mean()) +
                           ", \"n\": " + std::to_string(e2e.n()) + "}");
  };
  check("answer_us", r->inproc.answer_residual_us, r->inproc.answer_miss_us);
  check("verify_us", r->inproc.verify_residual_us, r->inproc.verify_us);
  check("rotation_us", r->owner.residual_us, r->owner.call_us);
  check("recovery_ms", r->recovery.residual_ms, r->recovery.call_ms);
}

std::string ReportJson(const Args& args, const RunResults& r,
                       const Books& books) {
  const InProcessRun& in = r.inproc;
  const double counted = static_cast<double>(std::max<size_t>(in.counted, 1));
  const double rotated =
      static_cast<double>(std::max<size_t>(r.owner.rotated, 1));
  const Samples& latency_us = r.net.latency_us;
  const double query_p99 = latency_us.Percentile(99);
  const double wake_late_p99 = r.net.wake_late_us.Percentile(99);
  // The bounded metrics: CPU work in instructions, bytes, memory, set-up.
  const std::vector<std::string> metrics = {
      Metric("setup_s", r.setup_s.Percentile(50), "s", r.setup_s.n()),
      Metric("answer_kinstr", in.answer_kinstr.Mean(), "kinstr",
             in.answer_kinstr.n()),
      Metric("verify_kinstr", in.verify_kinstr.Mean(), "kinstr",
             in.verify_kinstr.n()),
      Metric("rotation_minstr", r.owner.rotation_minstr.Mean(), "Minstr",
             r.owner.rotation_minstr.n()),
      Metric("recovery_minstr", r.recovery.recovery_minstr.Mean(), "Minstr",
             r.recovery.recovery_minstr.n()),
      Metric("proof_bytes_mean", in.proof_bytes / counted, "B", in.counted),
      Metric("peak_rss_mb", r.peak_rss_mb, "MiB", 1),
  };
  // Reported, not bounded: on a shared host cycles move with other tenants'
  // load on the core and its caches, and wall-clock rates and latencies also
  // with the clock speed and the cost of wake-ups.
  const std::vector<std::string> unbounded = {
      Metric("answer_kcycles", in.answer_kcycles.Percentile(kWindowPercentile),
             "kcycles", in.answer_kcycles.n()),
      Metric("verify_kcycles", in.verify_kcycles.Percentile(kWindowPercentile),
             "kcycles", in.verify_kcycles.n()),
      Metric("rotation_mcycles",
             r.owner.rotation_mcycles.Percentile(kOpPercentile), "Mcycles",
             r.owner.rotation_mcycles.n()),
      Metric("recovery_mcycles",
             r.recovery.recovery_mcycles.Percentile(kOpPercentile), "Mcycles",
             r.recovery.recovery_mcycles.n()),
      Metric("answer_qps", in.answer_us.WindowMedian(kRateWindow, Rate),
             "1/s", in.answer_us.n()),
      Metric("verify_qps", in.verify_us.WindowMedian(kRateWindow, Rate),
             "1/s", in.verify_us.n()),
      Metric("query_p50_us", latency_us.Percentile(50), "us", latency_us.n()),
      Metric("query_p99_us", query_p99, "us", latency_us.n()),
      Metric("rotation_p50_ms", r.owner.rotation_ms.Percentile(50), "ms",
             r.owner.rotation_ms.n()),
      Metric("recovery_ms", r.recovery.recovery_ms.Percentile(50), "ms",
             r.recovery.recovery_ms.n()),
  };
  const std::vector<std::string> timings = {
      Timing("setup_s", r.setup_s, "s"),
      Timing("answer_kcycles", in.answer_kcycles, "kcycles"),
      Timing("verify_kcycles", in.verify_kcycles, "kcycles"),
      Timing("rotation_mcycles", r.owner.rotation_mcycles, "Mcycles"),
      Timing("recovery_mcycles", r.recovery.recovery_mcycles, "Mcycles"),
      Timing("answer_us", in.answer_us, "us"),
      Timing("verify_us", in.verify_us, "us"),
      Timing("query_us", latency_us, "us"),
      Timing("net_client_query_us", r.net.query_us, "us"),
      Timing("loadgen_wait_us", r.net.wait_us, "us"),
      Timing("loadgen_wake_late_us", r.net.wake_late_us, "us"),
      Timing("rotation_ms", r.owner.rotation_ms, "ms"),
      Timing("checkpoint_ms", r.owner.checkpoint_ms, "ms"),
      Timing("recovery_ms", r.recovery.recovery_ms, "ms"),
  };
  const std::vector<std::string> determinism = {
      "\"proof_bytes_mean\": " + Num(in.proof_bytes / counted),
      "\"tuples_per_answer\": " + Num(in.tuples / counted),
      "\"digests_per_answer\": " + Num(in.digests / counted),
      "\"rsa_verifies_per_answer\": " + Num(in.rsa_verifies / counted),
      "\"rsa_signs_per_rotation\": " + Num(r.owner.rsa_signs / rotated),
      "\"wal_replayed_records\": " + std::to_string(r.recovery.replayed),
      "\"cache_hit_ratio\": " + Num(in.cache.hit_rate()),
  };
  const ServerBooks& s = r.server;
  const std::vector<std::string> server = {
      "\"answer_us\": " + Num(Ratio(s.answer_micros, s.queries)),
      "\"queries_per_batch\": " + Num(Ratio(s.received, s.batches)),
      "\"bytes_per_answer\": " + Num(Ratio(s.bytes_sent, s.answers_ok)),
      "\"backpressure_stalls\": " + std::to_string(s.backpressure_stalls),
      "\"proof_bytes_copied\": " + std::to_string(s.proof_bytes_copied),
  };
  std::string failures;
  for (const std::string& f : books.failures) {
    failures += (failures.empty() ? "\"" : ", \"") + f + "\"";
  }
  auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  return "{\n  \"workload\": \"" + args.workload +
         "\",\n  \"seed\": " + std::to_string(args.seed) +
         ",\n  \"seconds\": " + Num(args.seconds) +
         ",\n  \"smoke\": " + flag(args.smoke) +
         ",\n  \"traced\": " + flag(TracingEnabled()) +
         ",\n  \"valid\": " + flag(wake_late_p99 <= kWakeLateLimitUs) +
         ",\n  \"slo_met\": " + flag(query_p99 <= kSloUs) +
         ",\n  \"correct\": " + flag(books.failed == 0) +
         ",\n  \"ops_attempted\": " + std::to_string(books.attempted) +
         ",\n  \"ops_failed\": " + std::to_string(books.failed) +
         ",\n  \"fail_ratio\": " + Num(Ratio(books.failed, books.attempted)) +
         ",\n  \"failures\": [" + failures + "]" +
         ",\n  \"metrics\": {" + JoinLines(metrics) + "}" +
         ",\n  \"unbounded\": {" + JoinLines(unbounded) + "}" +
         ",\n  \"timings\": {" + JoinLines(timings) + "}" +
         ",\n  \"determinism\": {" + JoinLines(determinism) + "}" +
         ",\n  \"server\": {" + JoinLines(server) + "}" +
         ",\n  \"residuals\": {" + JoinLines(r.residuals) + "}\n}\n";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool written = std::fputs(text.c_str(), f) >= 0;
  return std::fclose(f) == 0 && written;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Plan plan = MakePlan(*spec, args.seconds, args.smoke);
  PinToCpu(kOwnerCpu);
  ThreadCounts();  // opens this thread's counters; every cost is read here

  // Inputs and keys: key generation is out-of-band provisioning and the
  // graph is the owner's input, so neither counts toward setup_s.
  Graph smoke_graph;
  if (args.smoke) {
    RoadNetworkOptions options;
    options.num_nodes = 300;
    options.seed = 42;
    auto g = GenerateRoadNetwork(options);
    if (!g.ok()) {
      std::fprintf(stderr, "smoke graph: %s\n", g.status().ToString().c_str());
      return 1;
    }
    smoke_graph = std::move(g).value();
  }
  const Graph& graph =
      args.smoke ? smoke_graph : bench::DatasetGraph(Dataset::kDE);
  const uint32_t num_nodes = static_cast<uint32_t>(graph.num_nodes());
  const RsaKeyPair& keys = bench::OwnerKeys();
  const RsaPublicKey& owner_key = keys.public_key();
  std::optional<ZipfPairs> zipf_pairs;
  if (spec->zipf) {
    zipf_pairs.emplace(num_nodes);
  }
  const ZipfPairs* zipf = zipf_pairs ? &*zipf_pairs : nullptr;
  if (!args.trace.empty()) {
    EnableTracing();
  }
  const fs::path dir = args.scratch_dir;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  Books books;
  RunResults r;

  std::unique_ptr<Deployment> d;
  const int64_t setup_start = NowNs();
  while (r.setup_s.n() < plan.setup_min ||
         (r.setup_s.n() < plan.setup_max &&
          NowNs() - setup_start < static_cast<int64_t>(plan.setup_budget_s * 1e9))) {
    d.reset();
    const int64_t t0 = NowNs();
    auto deployed = SetUp(*spec, graph, keys);
    r.setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
    if (!books.Op(deployed.ok(), "setup failed")) {
      std::fprintf(stderr, "setup: %s\n",
                   deployed.status().ToString().c_str());
      return 1;
    }
    d = std::move(deployed).value();
  }
  if (ThreadCounts().instructions == 0) {
    std::fprintf(stderr,
                 "no CPU cycle and instruction counters (perf_event_open); "
                 "the bounded costs are counted with them\n");
    return 1;
  }
  double ads_build_s = 0;
  for (size_t i = 0; i < d->fleet->num_shards(); ++i) {
    ads_build_s += d->fleet->shard(i).construction_seconds();
  }
  Count("core.ads_build_s", ads_build_s, "s");
  if (!spec->churn) {
    auto owner = ShardedEngine::BuildReplicated(
        graph, ServingOptions(MethodKind::kDij), 1, keys);
    if (!books.Op(owner.ok(), "owner engine failed to build")) {
      return 1;
    }
    d->owner_fleet = std::move(owner).value();
  }

  // Traced runs decompose against private twins built outside setup_s. The
  // shadow mirrors the owner's rotations, so it is also the answer twin of
  // an engine that rotates; a fleet that never rotates gets its own.
  std::optional<DijAds> answer_twin;
  std::optional<ShadowOwner> shadow;
  const NetworkAds* answer_network = nullptr;
  if (TracingEnabled()) {
    const EngineOptions eo = ServingOptions(MethodKind::kDij);
    DijOptions o;
    o.ordering = eo.ordering;
    o.fanout = eo.fanout;
    o.alg = eo.alg;
    o.seed = eo.seed;
    auto shadow_ads = BuildDijAds(graph, o, keys);
    auto shadow_wal = Wal::Open((dir / "shadow.wal").string());
    if (!books.Op(shadow_ads.ok() && shadow_wal.ok(),
                  "shadow owner failed to build")) {
      return 1;
    }
    shadow.emplace(graph, std::move(shadow_ads).value(),
                   std::move(shadow_wal).value());
    answer_network = &shadow->network();
    if (!spec->churn) {
      auto twin = BuildDijAds(graph, o, keys);
      if (!books.Op(twin.ok(), "answer twin failed to build")) {
        return 1;
      }
      answer_twin = std::move(twin).value();
      answer_network = &answer_twin->network;
    }
  }
  ShadowOwner* const shadow_owner = shadow ? &*shadow : nullptr;

  RotationSource rotations(graph, args.seed);
  Fixture fixture;
  if (const Status s =
          AttachDurability(plan, d.get(), dir, keys, rotations, shadow_owner,
                           books, &r.owner.checkpoint_ms, &fixture);
      !books.Op(s.ok(), "owner durability setup failed")) {
    std::fprintf(stderr, "durability: %s\n", s.ToString().c_str());
    return 1;
  }

  InProcess inproc(owner_key);
  inproc.client.TrackShardVersions(d->fleet->num_groups());
  if (spec->forest) {
    const std::shared_ptr<const FleetCertificate> forest = d->fleet->forest();
    books.Op(forest != nullptr &&
                 inproc.client.AcceptForestCertificate(forest->certificate).ok(),
             "forest certificate refused");
  }
  if (spec->zipf) {  // the untimed warm pass fills the caches once
    QuerySource warm(num_nodes, StreamSeed(args.seed, kWarmStream), zipf);
    for (size_t i = 0; i < plan.zipf_warm; ++i) {
      const Query q = warm.Next();
      books.Op(d->fleet->Answer(q, inproc.ws).ok(), "warm-pass answer");
      if (TracingEnabled()) {
        inproc.seen.insert(PairKey(q));
      }
    }
  }

  const uint16_t port = d->server->port();
  for (size_t round = 0; round < plan.rounds; ++round) {
    QuerySource source(num_nodes,
                       StreamSeed(args.seed, kInProcessStream + round), zipf);
    RunInProcessRound(*spec, plan, round, *d->fleet, owner_key, source,
                      answer_network, inproc, books);

    const ServerStats server_before = d->server->stats();
    const ShardStats engine_before = d->fleet->GetStats().totals;
    const uint64_t net_stream = kNetStream + round * kConnections;
    NetLoad net;
    if (spec->churn) {
      // Reads beside the rotations, from the first arrival for as long as
      // the rotations run.
      std::atomic<bool> owner_done{false};
      std::atomic<int64_t> start{0};
      std::thread reads([&] {
        net = RunNetLoad(port, owner_key, 3600, args.seed, net_stream,
                         num_nodes, zipf, &owner_done, &start);
      });
      while (start.load(std::memory_order_acquire) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(start.load())));
      RunOwner(plan, d->owner(), *d->store, *d->wal, keys, rotations,
               shadow_owner, books, &r.owner);
      owner_done.store(true, std::memory_order_release);
      reads.join();
    } else {
      net = RunNetLoad(port, owner_key, plan.net_s, args.seed, net_stream,
                       num_nodes, zipf);
    }
    r.server.Add(server_before, d->server->stats(), engine_before,
                 d->fleet->GetStats().totals);
    r.net.Merge(net);
    if (!spec->churn) {
      RunOwner(plan, d->owner(), *d->store, *d->wal, keys, rotations,
               shadow_owner, books, &r.owner);
    }

    QuerySource recovery_source(
        num_nodes, StreamSeed(args.seed, kRecoveryStream + round), nullptr);
    RunRecovery(plan, fixture, keys, recovery_source, books, &r.recovery);
  }
  r.inproc = std::move(inproc.run);
  books.Merge(r.net.books);
  books.Op(r.server.proof_bytes_copied == 0,
           "server staged proof bytes (proof_bytes_copied != 0)");
  Count("core.engine.live_snapshots_max",
        static_cast<double>(r.owner.live_snapshots_max));
  Count("net.server.answer_us", Ratio(r.server.answer_micros, r.server.queries),
        "us");
  Count("net.server.queries_per_batch",
        Ratio(r.server.received, r.server.batches));
  Count("net.server.bytes_per_answer",
        Ratio(r.server.bytes_sent, r.server.answers_ok), "B");
  Count("net.server.backpressure_stalls",
        static_cast<double>(r.server.backpressure_stalls));
  Count("net.loadgen.wake_late_p99_us", r.net.wake_late_us.Percentile(99),
        "us");
  d.reset();
  shadow.reset();

  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  r.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (TracingEnabled()) {
    CheckResiduals(&r, books);
    if (!WriteTrace(args.trace, args.trace + ".summary.json",
                    "\"residuals\": {" + JoinLines(r.residuals) + "}")) {
      std::fprintf(stderr, "cannot write trace %s\n", args.trace.c_str());
      return 1;
    }
  }
  fs::remove_all(dir, ec);
  const std::string json = ReportJson(args, r, books);
  if (args.out.empty()) {
    std::fputs(json.c_str(), stdout);
  } else if (!WriteFile(args.out, json)) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return books.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace spauth::e2e

int main(int argc, char** argv) {
  const auto args = spauth::e2e::ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: spauth_e2e --workload NAME --seed N --seconds S "
                 "--scratch-dir DIR [--trace FILE] [--smoke] [--out FILE]\n");
    return 2;
  }
  return spauth::e2e::Run(*args);
}
