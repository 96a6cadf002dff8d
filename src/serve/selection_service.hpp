// SelectionService: the online answer to "which algorithm should I run?".
//
// The paper's Sec. 5 proposal, productionised: all the expensive knowledge —
// where the FLOP discriminant fails, and what to run instead — is computed
// offline (RegionAtlas scans, persisted through store::AtlasStore) and
// amortised into microsecond lookups at query time. A query names a family
// (by registry name), a concrete instance, and the symbolic dimension of
// interest; the answer is the algorithm index to run, whether the FLOP
// count can be trusted there, and where the answer came from.
//
// The service generalises the one-dimensional RegionAtlas to N symbolic
// dimensions by slicing: an atlas is keyed by (family, machine, dim, base
// instance with the scanned coordinate canonicalised away), so every query
// along the same axis-aligned line shares one atlas, and any dimension of
// any instance can be served. Layers, fastest first:
//
//   1. a sharded LRU cache of final recommendations (mutex-striped,
//      capacity-bounded, safe for concurrent callers),
//   2. atlas slices — immutable once built, published through atomically
//      swapped snapshots (see below), built on demand, batch-built on the
//      ThreadPool when the machine's timing is thread-safe, warmable from /
//      checkpointable to a store::AtlasStore directory,
//   3. direct classification ("measured") for exact queries.
//
// One private core answers every query: it validates a batch, groups it by
// slice, resolves each group against one snapshot load, builds each missing
// slice once, answers through RegionAtlas::lookup(), classifies exact
// queries, and degrades to the analytical fallback where a slice cannot be
// obtained. The entry points are thin uses of it: try_cached() is the LRU
// probe alone; query() is that probe, the core on a batch of one, and an
// LRU fill; query_batch() is the core alone; warm() is the core without
// answers; query_async() answers inline when the slice is built and
// otherwise queues the query for one background worker that calls query().
//
// Snapshot semantics: the slice map is an immutable std::shared_ptr-held
// value, replaced copy-on-write under a writer mutex and read with a single
// atomic shared_ptr load. A warm query therefore takes no lock other than
// its LRU shard; a reader may observe a snapshot one swap behind (and then
// simply builds or waits for the slice it needs — builds are deduplicated
// per slice), but never a torn or partially built one. Published atlases are
// never replaced or dropped while the service lives, so raw pointers
// returned by atlas_for() stay valid.
//
// Answers are bit-identical to what the underlying RegionAtlas / classifier
// would produce directly, from every entry point — query(), query_batch(),
// query_async() — and every entry point moves the per-source answer and
// build counters alike (tests/serve_test.cpp pins both).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "anomaly/atlas.hpp"
#include "expr/registry.hpp"
#include "model/machine.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/shard_cache.hpp"
#include "store/atlas_store.hpp"
#include "support/metrics.hpp"

namespace lamb::serve {

struct Query {
  std::string family;    ///< registry name ("aatb", "chain4", ...)
  expr::Instance dims;   ///< concrete instance to select an algorithm for
  int dim = 0;           ///< symbolic dimension of the atlas slice
  bool exact = false;    ///< bypass the atlas: classify this very instance

  friend bool operator==(const Query&, const Query&) = default;
};

/// FNV-1a over the query's identity, allocation-free (queries are the
/// recommendation cache's keys; the hit path must not allocate).
struct QueryHash {
  std::size_t operator()(const Query& q) const;
};

enum class Source : std::uint8_t {
  kCache,     ///< sharded LRU hit
  kAtlas,     ///< atlas-slice interval lookup
  kMeasured,  ///< direct classification on the machine model
  kFallback,  ///< degraded: analytical flop-minimal ranking, no timing
};

std::string_view to_string(Source source);

struct Recommendation {
  std::size_t algorithm = 0;     ///< index to run (fastest known)
  std::size_t flop_minimal = 0;  ///< what the FLOP discriminant would pick
  bool flops_reliable = true;    ///< FLOP-minimal is safe here
  double time_score = 0.0;       ///< severity at/around the instance
  Source source = Source::kMeasured;

  /// Equality over the selection payload; `source` is provenance, not part
  /// of the answer.
  friend bool operator==(const Recommendation& a, const Recommendation& b) {
    return a.algorithm == b.algorithm && a.flop_minimal == b.flop_minimal &&
           a.flops_reliable == b.flops_reliable &&
           a.time_score == b.time_score;
  }
};

struct ServiceConfig {
  /// Slice geometry + classification threshold shared by every atlas the
  /// service builds (part of the atlas identity, so stores segregate by it).
  anomaly::AtlasConfig atlas;
  std::size_t cache_capacity = 1u << 16;  ///< recommendations, all shards
  std::size_t cache_shards = 16;
  /// Workers for batch atlas builds and slice refreshes; 0 = hardware
  /// threads. Parallel builds engage only when the machine's timing is
  /// thread-safe.
  std::size_t threads = 0;
  /// Graceful degradation: when a slice build fails (or the breaker is open,
  /// or a deduplicated build exceeds build_deadline_s, or the async queue
  /// sheds), answer from the analytical flop-minimal ranking with
  /// source=kFallback instead of propagating the exception. Off by default:
  /// library callers keep exact error propagation; the serving binary turns
  /// it on. Fallback answers are never cached, so recovery is automatic.
  bool degrade_on_failure = false;
  /// Per-slice circuit breaker (active only with degrade_on_failure): this
  /// many consecutive build failures open the breaker, skipping further
  /// build attempts until an exponential backoff (with deterministic
  /// jitter) elapses; then one half-open probe build closes it on success
  /// or re-opens it with a doubled backoff. 0 disables the breaker.
  int breaker_threshold = 3;
  double breaker_backoff_initial_s = 0.5;
  double breaker_backoff_max_s = 30.0;
  /// With degrade_on_failure: bound on waiting for another thread's
  /// in-flight build of the same slice; past it the waiter answers from
  /// fallback while the build continues and publishes for later queries.
  /// 0 waits indefinitely.
  double build_deadline_s = 0.0;
  /// With degrade_on_failure: bound on distinct slices (or exact queries)
  /// queued behind query_async; a query for a new one past it answers from
  /// fallback immediately instead of growing the queue without limit.
  /// 0 = unbounded.
  std::size_t max_build_queue = 0;
};

/// The service's counter set and read view (stats()). Every field is
/// monotonic for the service's lifetime: refresh_slices() clearing the LRU
/// resets none of them.
struct ServiceStats {
  /// Cache answers: queries the LRU probe answered (equal to
  /// cache_answers).
  std::uint64_t cache_hits = 0;
  /// Queries answered from another source by query(), query_async() or an
  /// exact query of a batch: one per such query, however often it was
  /// probed on the way.
  std::uint64_t cache_misses = 0;
  std::uint64_t atlases_built = 0;
  std::uint64_t atlases_loaded = 0;     ///< warmed from a store
  std::uint64_t atlases_skipped = 0;    ///< corrupt store files skipped
  std::uint64_t measured_queries = 0;   ///< answers classified directly
  long long atlas_samples = 0;          ///< classifications spent building
  // Per-source answer counters and per-entry-point call counts.
  std::uint64_t cache_answers = 0;  ///< answers served from the LRU
  std::uint64_t atlas_answers = 0;  ///< answers served from an atlas slice
  std::uint64_t batch_calls = 0;    ///< query_batch() invocations
  std::uint64_t batch_queries = 0;  ///< queries summed over those batches
  std::uint64_t async_calls = 0;    ///< query_async() invocations
  std::uint64_t slices_refreshed = 0;  ///< slices rebuilt by refresh_slices()
  std::uint64_t refresh_rounds = 0;    ///< refresh_slices() invocations
  std::uint64_t degraded_answers = 0;  ///< answers served with source=fallback
  std::uint64_t builds_shed = 0;       ///< async queries shed by the queue bound
  std::uint64_t breaker_opens = 0;     ///< closed/half-open -> open transitions
  std::uint64_t atlases_quarantined = 0;  ///< corrupt store files set aside
};

/// Where each ServiceStats field is exported on /metrics (see
/// support/metrics.hpp); stats() reads the live set through it too.
inline constexpr support::MetricRow<ServiceStats> kServiceMetrics[] = {
    {&ServiceStats::cache_answers, "lamb_selection_answers_total",
     "{source=\"cache\"}", "counter", "Answers by source."},
    {&ServiceStats::atlas_answers, "", "{source=\"atlas\"}", "counter", ""},
    {&ServiceStats::measured_queries, "", "{source=\"measured\"}", "counter",
     ""},
    {&ServiceStats::degraded_answers, "", "{source=\"fallback\"}", "counter",
     ""},
    {&ServiceStats::cache_hits, "lamb_selection_cache_hits_total", "",
     "counter", "Recommendation-cache hits."},
    {&ServiceStats::cache_misses, "lamb_selection_cache_misses_total", "",
     "counter", "Recommendation-cache misses."},
    {&ServiceStats::atlases_built, "lamb_selection_atlases_built_total", "",
     "counter", "Region atlases built."},
    {&ServiceStats::atlases_loaded, "lamb_selection_atlases_loaded_total", "",
     "counter", "Region atlases loaded from disk."},
    {&ServiceStats::atlases_skipped, "lamb_selection_atlases_skipped_total",
     "", "counter",
     "Corrupt atlas files skipped at warm-up (could not be set aside)."},
    {&ServiceStats::atlases_quarantined,
     "lamb_selection_atlases_quarantined_total", "", "counter",
     "Corrupt atlas files renamed aside (*.corrupt) at warm-up."},
    {&ServiceStats::atlas_samples, "lamb_selection_atlas_samples_total", "",
     "counter", "Measurements taken while building atlases."},
    {&ServiceStats::batch_calls, "lamb_selection_batch_calls_total", "",
     "counter", "query_batch() calls."},
    {&ServiceStats::batch_queries, "lamb_selection_batch_queries_total", "",
     "counter", "Queries carried by batch calls."},
    {&ServiceStats::async_calls, "lamb_selection_async_calls_total", "",
     "counter", "query_async() calls."},
    {&ServiceStats::refresh_rounds, "lamb_selection_refresh_rounds_total", "",
     "counter", "Atlas refresh rounds."},
    {&ServiceStats::slices_refreshed, "lamb_selection_slices_refreshed_total",
     "", "counter", "Slices rebuilt by refresh rounds."},
    {&ServiceStats::degraded_answers, "lamb_answers_degraded_total", "",
     "counter",
     "Answers served from the flop-minimal fallback instead of an atlas "
     "(build failed, breaker open, queue shed or deadline)."},
    {&ServiceStats::breaker_opens, "lamb_breaker_opens_total", "", "counter",
     "Circuit-breaker open transitions across all slices."},
    // Exported as lamb_shed_total{reason="build_queue"} by net/routes.
    {&ServiceStats::builds_shed, nullptr, "", "counter", ""},
};
static_assert(8 * support::field_count<ServiceStats>(kServiceMetrics) ==
              sizeof(ServiceStats));

/// One per-slice circuit breaker, for /metrics: state is 0 (closed but
/// recently failing), 0.5 (half-open: backoff elapsed, probe pending or in
/// flight) or 1 (open). Healthy slices carry no breaker and are not listed.
struct BreakerSnapshot {
  std::string slice;
  double state = 0.0;
  int consecutive_failures = 0;
};

class SelectionService {
 public:
  /// The machine (and registry, defaulting to the process-wide one) must
  /// outlive the service.
  explicit SelectionService(model::MachineModel& machine,
                            ServiceConfig config = {},
                            const expr::FamilyRegistry* registry = nullptr);
  /// Abandons queued async queries: their futures fail with CheckError.
  ~SelectionService();

  SelectionService(const SelectionService&) = delete;
  SelectionService& operator=(const SelectionService&) = delete;

  const ServiceConfig& config() const { return config_; }

  /// Answer one query. Safe for concurrent callers: the cache is sharded,
  /// the slice map is read via an atomic snapshot load, atlas builds are
  /// deduplicated per slice, and machines whose timing is not thread-safe
  /// are serialised behind one timing mutex.
  Recommendation query(const Query& q);

  /// Answer a batch, results in input order: the query core alone. Each
  /// missing slice is built once (on the ThreadPool when the machine's
  /// timing is thread-safe). Non-exact queries bypass the LRU, neither
  /// probing nor filling it, which is what makes a warm batch several times
  /// faster than repeated query() calls; the payloads are identical either
  /// way. Exact queries probe and fill the LRU as query() does. A
  /// slice-build failure propagates (first error wins) unless
  /// degrade_on_failure answers that slice from the fallback.
  std::vector<Recommendation> query_batch(std::span<const Query> batch);
  std::vector<Recommendation> query_batch(std::initializer_list<Query> batch) {
    return query_batch(std::span<const Query>(batch.begin(), batch.size()));
  }

  /// The LRU probe, allocation-free: when the query is already cached, fill
  /// `out` (counted as a cache hit and a cache answer) and return true;
  /// otherwise leave `out` untouched and return false, counting nothing —
  /// the entry point that then answers counts the miss. query() and
  /// query_async() probe through it; the serving warm path calls it
  /// directly so an LRU hit never allocates.
  bool try_cached(const Query& q, Recommendation& out);

  /// Answer one query without blocking on atlas scans. Cache hits and
  /// already-built slices resolve immediately; anything needing a scan (or
  /// an exact classification) is queued, next to the queries already queued
  /// for the same slice, for one background worker — N pending queries on
  /// the same slice cost one build. Invalid queries throw synchronously; a
  /// failed build fails the future. Destroying the service fails
  /// still-queued futures.
  std::future<Recommendation> query_async(Query q);

  /// Build the atlas slices the queries would need, without producing
  /// recommendations: the query core without answers. Returns the number
  /// of missing slices obtained; a build that degrades (degrade_on_failure)
  /// is not counted.
  std::size_t warm(std::span<const Query> batch);
  std::size_t warm(std::initializer_list<Query> batch) {
    return warm(std::span<const Query>(batch.begin(), batch.size()));
  }

  /// Adopt every atlas in `atlas_store` built on this machine model with
  /// this service's AtlasConfig; returns the number adopted.
  std::size_t warm_from_store(const store::AtlasStore& atlas_store);

  /// Persist every built slice; returns the number written.
  std::size_t checkpoint(store::AtlasStore& atlas_store) const;

  /// Re-scan every published slice against the machine's *current* timings
  /// and swap the rebuilt set in with one copy-on-write publication — the
  /// drift monitor's answer to a machine whose timings have moved (see
  /// serve/drift.hpp). The stale slices are marked internally, rebuilt, and
  /// only then replaced in a single atomic snapshot store, so no published
  /// snapshot ever contains a stale-marked, unrefreshed slice: readers see
  /// either the complete old generation or the complete new one. Replaced
  /// atlases are retired, not freed — raw pointers from atlas_for() stay
  /// valid for the service's lifetime. The recommendation LRU is cleared
  /// after the swap (its entries quote the stale generation); slices
  /// published concurrently by on-demand builds are already fresh and are
  /// kept untouched. Rebuilds run on the ThreadPool when the machine's
  /// timing is thread-safe; a build failure propagates and leaves the old
  /// generation fully in place. Returns the number of slices rebuilt.
  std::size_t refresh_slices();

  /// The built slice for a query's (family, dim, base), if any. The pointer
  /// stays valid for the service's lifetime (slices are never dropped).
  const anomaly::RegionAtlas* atlas_for(const Query& q);

  std::size_t atlas_count() const;
  std::size_t cache_size() const { return cache_.size(); }
  ServiceStats stats() const;

  /// Current per-slice breakers (failing, half-open or open slices only).
  std::vector<BreakerSnapshot> breaker_states() const;

  /// Distinct slices (and exact queries) queued behind query_async (an
  /// admission-control watermark input for the HTTP tier).
  std::size_t async_queue_depth() const;

 private:
  using AtlasPtr = std::shared_ptr<const anomaly::RegionAtlas>;

  /// In-memory slice identity: machine and scan config are fixed per
  /// service, so (family, dim, base line) is enough — and hashing it is a
  /// handful of FNV steps, where the store's canonical() string costs a
  /// dozen snprintf calls. Strings stay at the store boundary.
  struct SliceId {
    std::string family;
    int dim = 0;
    expr::Instance base;  ///< coordinate at `dim` zeroed

    friend bool operator==(const SliceId&, const SliceId&) = default;
  };
  struct SliceIdHash {
    std::size_t operator()(const SliceId& id) const;
  };
  static SliceId slice_id(const Query& q);
  static SliceId slice_id(const store::AtlasKey& key);

  struct Slice {
    store::AtlasKey key;
    AtlasPtr atlas;
  };
  /// Immutable once published; replaced whole via copy-on-write.
  using Snapshot = std::unordered_map<SliceId, Slice, SliceIdHash>;
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  struct AsyncWaiter {
    Query query;
    std::promise<Recommendation> promise;
    /// The enqueuer's trace context: the worker answers under it so the
    /// waiter's spans attach to the originating request's tree.
    obs::TraceContext ctx;
  };

  /// Resolves a family by registry name (instantiated once, cached).
  const expr::ExpressionFamily& resolve_family(const std::string& name);
  store::AtlasKey atlas_key(const Query& q) const;

  SnapshotPtr snapshot() const { return snapshot_.load(); }
  /// The published atlas for a slice, or null.
  static AtlasPtr find_slice(const Snapshot& snap, const SliceId& id);
  /// The slice's atlas: published, in-flight (waits for the builder), or
  /// built here and published. Throws what the build threw — unless
  /// degrade_on_failure is set, in which case a failed build, an open
  /// breaker or an expired build deadline return nullptr and the caller
  /// answers from fallback_answer().
  AtlasPtr obtain_atlas(const store::AtlasKey& key, const SliceId& id);
  /// Scans the slice (serialised behind timing_mutex_ when the machine's
  /// timing is not thread-safe).
  AtlasPtr build_slice(const store::AtlasKey& key);
  /// Copy-on-write insert + one atomic swap; the first publication of a
  /// slice wins. Returns the number inserted.
  std::size_t publish(std::vector<std::pair<store::AtlasKey, AtlasPtr>> fresh);

  /// The query core (see the file comment). `probed`: the caller has
  /// already probed the LRU for every query; otherwise exact queries probe
  /// and fill it here. An empty `out` answers nothing (warm). Returns the
  /// number of missing slices obtained.
  std::size_t answer(std::span<const Query> batch,
                     std::span<Recommendation> out, bool probed);
  /// query() after a missed probe, and query_async() on a built slice: the
  /// core on a batch of one, then the LRU fill (fallbacks are not cached).
  Recommendation answer_one(const Query& q);
  /// Runs fn(0..n-1) on the pool when it has more than one participant and
  /// n > 1, under the caller's trace context; serially otherwise.
  template <class Fn>
  void for_each_index(std::size_t n, const Fn& fn);

  Recommendation classify_exact(const Query& q);

  /// The degraded answer: the analytical flop-minimal algorithm, no timing
  /// involved (the paper's premise — a cheap cost-model answer always
  /// exists). Counted in degraded_answers; never cached.
  Recommendation fallback_answer(const Query& q);

  /// Breaker gate before a build attempt. True admits the caller (sets
  /// `probe` when this is the half-open probe); false means answer from
  /// fallback without touching the machine.
  bool breaker_admit(const SliceId& id, bool& probe);
  void breaker_success(const SliceId& id);
  void breaker_failure(const SliceId& id);
  /// Clears the half-open probing claim when an admitted prober ended up
  /// waiting on another thread's build instead of building itself.
  void breaker_probe_release(const SliceId& id);

  void async_worker_loop();

  model::MachineModel& machine_;
  ServiceConfig config_;
  const expr::FamilyRegistry& registry_;
  std::unique_ptr<parallel::ThreadPool> pool_;

  std::mutex families_mutex_;
  std::unordered_map<std::string, std::unique_ptr<const expr::ExpressionFamily>>
      families_;

  /// The warm read path: one atomic load, no mutex.
  std::atomic<SnapshotPtr> snapshot_;
  /// Serialises copy-on-write snapshot swaps (writers only).
  mutable std::mutex publish_mutex_;
  /// Atlases replaced by refresh_slices(), kept so atlas_for() pointers
  /// stay valid for the service's lifetime (guarded by publish_mutex_).
  std::vector<AtlasPtr> retired_;
  /// Serialises whole-generation refreshes (each stale slice is rebuilt
  /// exactly once per refresh round).
  std::mutex refresh_mutex_;
  /// Deduplicates concurrent builds of the same slice: the first caller
  /// registers a future, everyone else waits on it.
  std::mutex builds_mutex_;
  std::unordered_map<SliceId, std::shared_future<AtlasPtr>, SliceIdHash>
      in_flight_;

  /// Per-slice circuit breakers (degrade_on_failure only). An entry exists
  /// only while a slice is failing; success erases it.
  struct Breaker {
    int consecutive_failures = 0;
    int open_count = 0;             ///< consecutive opens, drives the backoff
    std::uint64_t open_until_ns = 0;  ///< 0 = closed (counting failures)
    bool probing = false;           ///< half-open probe build in flight
  };
  mutable std::mutex breakers_mutex_;
  std::unordered_map<SliceId, Breaker, SliceIdHash> breakers_;

  /// Background queue for query_async (worker started lazily): FIFO of
  /// buckets, each the waiters for one slice (or one exact query).
  mutable std::mutex async_mutex_;
  std::condition_variable async_cv_;
  std::deque<std::vector<AsyncWaiter>> async_queue_;
  std::thread async_worker_;
  bool async_stop_ = false;

  /// Serialises machine access when timing is not thread-safe.
  std::mutex timing_mutex_;
  const bool concurrent_timing_;

  ShardedLruCache<Query, Recommendation, QueryHash> cache_;
  /// The live counter set, bumped with support::count() (one relaxed
  /// atomic add) and read by stats() through kServiceMetrics.
  mutable ServiceStats counters_;
};

}  // namespace lamb::serve
