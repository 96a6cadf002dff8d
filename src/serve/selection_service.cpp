#include "serve/selection_service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <new>
#include <optional>
#include <thread>
#include <utility>

#include "anomaly/classifier.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace lamb::serve {

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

bool same_config(const anomaly::AtlasConfig& a, const anomaly::AtlasConfig& b) {
  return a.lo == b.lo && a.hi == b.hi && a.coarse_step == b.coarse_step &&
         a.time_score_threshold == b.time_score_threshold;
}

/// Shape checks shared by every entry point; the family is resolved by the
/// caller (so batch loops can memoise the registry lookup per name).
void validate_query(const Query& q, const expr::ExpressionFamily& family) {
  LAMB_CHECK(static_cast<int>(q.dims.size()) == family.dimension_count(),
             "query arity mismatch for family " + q.family);
  LAMB_CHECK(q.dim >= 0 && q.dim < family.dimension_count(),
             "query dimension out of range");
  for (int d : q.dims) {
    LAMB_CHECK(d >= 1, "query dimensions must be positive");
  }
}

/// Same atlas slice: same family, same scanned dimension, same base line
/// (all coordinates equal except the scanned one). Cheaper than comparing
/// canonical key strings — no allocation, and batches are typically sweeps
/// where consecutive queries share a slice. Forced inline: it is the
/// per-query test of the batch-answering loop.
[[gnu::always_inline]] inline bool same_slice(const Query& a, const Query& b) {
  if (a.dim != b.dim || a.dims.size() != b.dims.size()) {
    return false;
  }
  for (std::size_t d = 0; d < a.dims.size(); ++d) {
    if (d != static_cast<std::size_t>(a.dim) && a.dims[d] != b.dims[d]) {
      return false;
    }
  }
  return a.family == b.family;  // the costliest comparison goes last
}

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::size_t SelectionService::SliceIdHash::operator()(const SliceId& id) const {
  std::uint64_t h = support::fnv1a64(id.family);
  h = support::fnv1a64(&id.dim, sizeof(id.dim), h);
  h = support::fnv1a64(id.base.data(), id.base.size() * sizeof(int), h);
  return static_cast<std::size_t>(h);
}

SelectionService::SliceId SelectionService::slice_id(const Query& q) {
  SliceId id{q.family, q.dim, q.dims};
  id.base[static_cast<std::size_t>(q.dim)] = 0;
  return id;
}

SelectionService::SliceId SelectionService::slice_id(
    const store::AtlasKey& key) {
  SliceId id{key.family, key.dim, key.base};
  // Store keys may carry any value at the scanned coordinate (canonical()
  // zeroes it only when printing); normalise here.
  id.base[static_cast<std::size_t>(key.dim)] = 0;
  return id;
}

std::size_t QueryHash::operator()(const Query& q) const {
  std::uint64_t h = support::fnv1a64(q.family);
  h = support::fnv1a64(q.dims.data(), q.dims.size() * sizeof(int), h);
  const int tail[2] = {q.dim, q.exact ? 1 : 0};
  h = support::fnv1a64(tail, sizeof(tail), h);
  return static_cast<std::size_t>(h);
}

std::string_view to_string(Source source) {
  switch (source) {
    case Source::kCache:
      return "cache";
    case Source::kAtlas:
      return "atlas";
    case Source::kMeasured:
      return "measured";
    case Source::kFallback:
      return "fallback";
  }
  return "?";
}

SelectionService::SelectionService(model::MachineModel& machine,
                                   ServiceConfig config,
                                   const expr::FamilyRegistry* registry)
    : machine_(machine), config_(config),
      registry_(registry != nullptr ? *registry : expr::registry()),
      snapshot_(std::make_shared<const Snapshot>()),
      concurrent_timing_(machine.concurrent_timing_safe()),
      cache_(config.cache_capacity, config.cache_shards) {
  // The pool only ever runs atlas builds, and those are serialised behind
  // timing_mutex_ on machines whose timing is not thread-safe — don't park
  // idle workers in that case.
  if (concurrent_timing_) {
    pool_ = std::make_unique<parallel::ThreadPool>(
        resolve_threads(config_.threads));
  }
}

SelectionService::~SelectionService() {
  {
    const std::lock_guard<std::mutex> lock(async_mutex_);
    async_stop_ = true;
  }
  async_cv_.notify_all();
  if (async_worker_.joinable()) {
    async_worker_.join();
  }
  // Fail anything that was still queued, instead of the anonymous
  // broken-promise error the promise destructor would produce.
  for (std::vector<AsyncWaiter>& bucket : async_queue_) {
    for (AsyncWaiter& waiter : bucket) {
      waiter.promise.set_exception(std::make_exception_ptr(support::CheckError(
          "SelectionService destroyed with pending async queries")));
    }
  }
}

const expr::ExpressionFamily& SelectionService::resolve_family(
    const std::string& name) {
  const std::lock_guard<std::mutex> lock(families_mutex_);
  auto it = families_.find(name);
  if (it == families_.end()) {
    it = families_.emplace(name, registry_.make(name)).first;
  }
  return *it->second;
}

store::AtlasKey SelectionService::atlas_key(const Query& q) const {
  store::AtlasKey key{q.family, machine_.name(), q.dim, q.dims, config_.atlas};
  key.base[static_cast<std::size_t>(q.dim)] = 0;
  return key;
}

SelectionService::AtlasPtr SelectionService::find_slice(const Snapshot& snap,
                                                        const SliceId& id) {
  const auto it = snap.find(id);
  return it == snap.end() ? nullptr : it->second.atlas;
}

SelectionService::AtlasPtr SelectionService::build_slice(
    const store::AtlasKey& key) {
  const obs::SpanScope build_span(obs::Stage::kBuild);
  if (const std::uint64_t ms =
          support::fault_value(support::FaultSite::kBuildDelayMs)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  if (support::fault_fire(support::FaultSite::kAllocBuild)) {
    throw std::bad_alloc();
  }
  if (support::fault_fire(support::FaultSite::kBuildSlice)) {
    throw std::runtime_error("fault injected: build.slice for " + key.family);
  }
  // The canonicalised base carries a 0 at the scanned coordinate, which
  // the scan overrides at every sample; only the family name is needed.
  const expr::ExpressionFamily& family = resolve_family(key.family);
  std::unique_lock<std::mutex> timing_lock(timing_mutex_, std::defer_lock);
  if (!concurrent_timing_) {
    timing_lock.lock();
  }
  const AtlasPtr built = std::make_shared<const anomaly::RegionAtlas>(
      family, machine_, key.base, key.dim, config_.atlas);
  support::count(counters_.atlas_samples, built->samples_used());
  support::count(counters_.atlases_built);
  return built;
}

std::size_t SelectionService::publish(
    std::vector<std::pair<store::AtlasKey, AtlasPtr>> fresh) {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  auto next = std::make_shared<Snapshot>(*snapshot_.load());
  std::size_t inserted = 0;
  for (auto& [key, atlas] : fresh) {
    if (next->try_emplace(slice_id(key), Slice{key, std::move(atlas)}).second) {
      ++inserted;
    }
  }
  if (inserted > 0) {
    snapshot_.store(std::move(next));
  }
  return inserted;
}

SelectionService::AtlasPtr SelectionService::obtain_atlas(
    const store::AtlasKey& key, const SliceId& id) {
  if (AtlasPtr atlas = find_slice(*snapshot(), id)) {
    return atlas;
  }
  const bool degrade = config_.degrade_on_failure;
  bool probe = false;
  if (degrade && config_.breaker_threshold > 0 && !breaker_admit(id, probe)) {
    return nullptr;  // breaker open: no build attempt, caller degrades
  }
  std::promise<AtlasPtr> promise;
  std::shared_future<AtlasPtr> shared;
  bool builder = false;
  {
    const std::lock_guard<std::mutex> lock(builds_mutex_);
    // Recheck under the lock: the builder publishes before it unregisters,
    // so a slice absent from both the snapshot and in_flight_ is truly ours
    // to build.
    if (AtlasPtr atlas = find_slice(*snapshot(), id)) {
      if (probe) {
        breaker_success(id);
      }
      return atlas;
    }
    const auto [it, inserted] = in_flight_.try_emplace(id);
    if (inserted) {
      it->second = promise.get_future().share();
      builder = true;
    }
    shared = it->second;
  }
  if (!builder) {
    if (probe) {
      // Another thread won the build; its outcome drives the breaker.
      breaker_probe_release(id);
    }
    if (degrade && config_.build_deadline_s > 0.0 &&
        shared.wait_for(std::chrono::duration<double>(
            config_.build_deadline_s)) != std::future_status::ready) {
      // The build continues and publishes for later queries; this caller
      // answers from fallback now.
      return nullptr;
    }
    try {
      return shared.get();  // blocks on the builder; rethrows its error
    } catch (...) {
      if (!degrade) {
        throw;
      }
      return nullptr;  // the builder already recorded the breaker failure
    }
  }
  AtlasPtr result;
  std::exception_ptr error;
  try {
    publish({{key, build_slice(key)}});
    result = find_slice(*snapshot(), id);  // the first publication wins
    promise.set_value(result);
  } catch (...) {
    error = std::current_exception();
    promise.set_exception(error);
  }
  {
    const std::lock_guard<std::mutex> lock(builds_mutex_);
    in_flight_.erase(id);
  }
  if (degrade && config_.breaker_threshold > 0) {
    error ? breaker_failure(id) : breaker_success(id);
  }
  if (error && !degrade) {
    std::rethrow_exception(error);
  }
  return result;
}

bool SelectionService::breaker_admit(const SliceId& id, bool& probe) {
  const std::lock_guard<std::mutex> lock(breakers_mutex_);
  const auto it = breakers_.find(id);
  if (it == breakers_.end() || it->second.open_until_ns == 0) {
    return true;  // closed (healthy, or still counting failures)
  }
  Breaker& b = it->second;
  if (steady_now_ns() < b.open_until_ns) {
    return false;  // open: backoff still running
  }
  if (b.probing) {
    return false;  // half-open: another caller already holds the probe
  }
  b.probing = true;
  probe = true;
  return true;
}

void SelectionService::breaker_success(const SliceId& id) {
  const std::lock_guard<std::mutex> lock(breakers_mutex_);
  breakers_.erase(id);  // full reset; healthy slices carry no breaker
}

void SelectionService::breaker_failure(const SliceId& id) {
  const std::lock_guard<std::mutex> lock(breakers_mutex_);
  Breaker& b = breakers_[id];
  b.probing = false;
  b.consecutive_failures += 1;
  const bool reopen = b.open_until_ns != 0;  // a failed half-open probe
  if (!reopen && b.consecutive_failures < config_.breaker_threshold) {
    return;
  }
  double backoff = config_.breaker_backoff_initial_s;
  for (int i = 0; i < b.open_count && backoff < config_.breaker_backoff_max_s;
       ++i) {
    backoff *= 2.0;
  }
  backoff = std::min(backoff, config_.breaker_backoff_max_s);
  // Deterministic jitter in [1, 1.5): same slice + same open ordinal =>
  // same schedule in every run, but distinct slices never thunder together.
  const std::uint64_t h = support::mix64(
      SliceIdHash{}(id) ^ static_cast<std::uint64_t>(b.open_count));
  backoff *= 1.0 + 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  b.open_until_ns = steady_now_ns() +
                    static_cast<std::uint64_t>(backoff * 1e9);
  b.open_count += 1;
  support::count(counters_.breaker_opens);
  std::fprintf(stderr,
               "breaker: slice %s:dim%d open (%d consecutive failures, "
               "retry in %.3fs)\n",
               id.family.c_str(), id.dim, b.consecutive_failures, backoff);
}

void SelectionService::breaker_probe_release(const SliceId& id) {
  const std::lock_guard<std::mutex> lock(breakers_mutex_);
  const auto it = breakers_.find(id);
  if (it != breakers_.end()) {
    it->second.probing = false;
  }
}

std::vector<BreakerSnapshot> SelectionService::breaker_states() const {
  const std::lock_guard<std::mutex> lock(breakers_mutex_);
  std::vector<BreakerSnapshot> out;
  out.reserve(breakers_.size());
  const std::uint64_t now = steady_now_ns();
  for (const auto& [id, b] : breakers_) {
    BreakerSnapshot snap;
    std::string base;
    for (std::size_t d = 0; d < id.base.size(); ++d) {
      base += support::strf("%s%d", d == 0 ? "" : ".", id.base[d]);
    }
    snap.slice = support::strf("%s:d%d:%s", id.family.c_str(), id.dim,
                               base.c_str());
    snap.state = b.open_until_ns == 0 ? 0.0
                 : now < b.open_until_ns ? 1.0
                                         : 0.5;
    snap.consecutive_failures = b.consecutive_failures;
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const BreakerSnapshot& a, const BreakerSnapshot& b) {
              return a.slice < b.slice;
            });
  return out;
}

std::size_t SelectionService::async_queue_depth() const {
  const std::lock_guard<std::mutex> lock(async_mutex_);
  return async_queue_.size();
}

Recommendation SelectionService::classify_exact(const Query& q) {
  const obs::SpanScope build_span(obs::Stage::kBuild);
  const expr::ExpressionFamily& family = resolve_family(q.family);
  std::unique_lock<std::mutex> timing_lock(timing_mutex_, std::defer_lock);
  if (!concurrent_timing_) {
    timing_lock.lock();
  }
  const anomaly::InstanceResult result = anomaly::classify_instance(
      family, machine_, q.dims, config_.atlas.time_score_threshold);
  support::count(counters_.measured_queries);
  return Recommendation{result.fastest.front(), result.cheapest.front(),
                        !result.anomaly, result.time_score, Source::kMeasured};
}

Recommendation SelectionService::fallback_answer(const Query& q) {
  // Pure cost-model arithmetic: no machine timing, no locks beyond the
  // family memo — this is the answer that is always available, whatever
  // state the measurement stack is in.
  const expr::ExpressionFamily& family = resolve_family(q.family);
  const std::vector<model::Algorithm> algorithms = family.algorithms(q.dims);
  std::size_t best = 0;
  for (std::size_t i = 1; i < algorithms.size(); ++i) {
    if (algorithms[i].flops() < algorithms[best].flops()) {
      best = i;  // strict <: ties keep the earliest, the canonical order
    }
  }
  support::count(counters_.degraded_answers);
  return Recommendation{best, best, true, 0.0, Source::kFallback};
}

bool SelectionService::try_cached(const Query& q, Recommendation& out) {
  // The one LRU probe. Recommendation is a POD and ShardedLruCache::get
  // allocates nothing, so the whole probe is allocation-free.
  const obs::SpanScope lru_span(obs::Stage::kLru);
  if (auto hit = cache_.get(q)) {
    out = *hit;
    out.source = Source::kCache;
    support::count(counters_.cache_hits);
    support::count(counters_.cache_answers);
    return true;
  }
  return false;
}

Recommendation SelectionService::query(const Query& q) {
  Recommendation rec;
  return try_cached(q, rec) ? rec : answer_one(q);
}

Recommendation SelectionService::answer_one(const Query& q) {
  support::count(counters_.cache_misses);
  Recommendation rec;
  answer(std::span<const Query>(&q, 1), std::span<Recommendation>(&rec, 1),
         /*probed=*/true);
  // Fallback answers are never cached, so the next miss retries the build
  // (or the breaker gates it).
  if (rec.source != Source::kFallback) {
    cache_.put(q, rec);
  }
  return rec;
}

template <class Fn>
void SelectionService::for_each_index(std::size_t n, const Fn& fn) {
  if (pool_ != nullptr && pool_->size() > 1 && n > 1) {
    // Pool workers have no trace context of their own; hand them ours so
    // their spans land in the caller's tree.
    const obs::TraceContext ctx = obs::current_context();
    pool_->parallel_for(static_cast<std::ptrdiff_t>(n),
                        [&, ctx](std::ptrdiff_t begin, std::ptrdiff_t end) {
                          const obs::ContextGuard guard(ctx);
                          for (std::ptrdiff_t i = begin; i < end; ++i) {
                            fn(static_cast<std::size_t>(i));
                          }
                        });
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
  }
}

std::size_t SelectionService::answer(std::span<const Query> batch,
                                     std::span<Recommendation> out,
                                     bool probed) {
  LAMB_CHECK(batch.size() <= ~std::uint32_t{0},
             "query batch too large");  // indices are 32-bit
  const bool answering = !out.empty();
  // One atlas span covers the whole call; builds nest inside it.
  const obs::SpanScope atlas_span(obs::Stage::kAtlas);

  struct Group {
    std::uint32_t rep;                   ///< index of the group's first query
    const anomaly::RegionAtlas* atlas;  ///< null until obtained
  };
  std::vector<Group> groups;
  std::vector<std::uint32_t> missing;  // groups whose slice is not built
  std::vector<std::pair<std::uint32_t, std::uint32_t>> deferred;  // (query, group)
  std::vector<std::uint32_t> exact_queries;
  const SnapshotPtr snap = snapshot();  // one atomic load for the whole batch
  const auto answer_from = [&](std::size_t i, const auto& atlas) {
    const anomaly::AtlasInterval& iv =
        atlas.lookup(batch[i].dims[static_cast<std::size_t>(batch[i].dim)]);
    out[i] = Recommendation{iv.recommended, iv.flop_minimal, !iv.anomalous,
                            iv.worst_time_score, Source::kAtlas};
  };

  // Pass 1 — validate, group by slice, and answer everything already
  // servable, in one sweep. Consecutive queries usually share a slice
  // (batches are sweeps), so the hot case is one slice comparison plus one
  // positivity check — the other coordinates were validated on the group's
  // first query, and same_slice pins them equal. Distinct slices per batch
  // are few, so the cold case is a linear group scan; a new group resolves
  // its slice against the snapshot once. Queries on unbuilt slices wait.
  const expr::ExpressionFamily* family = nullptr;
  const std::string* family_name = nullptr;
  std::uint32_t last_group = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i];
    std::uint32_t g;
    if (!q.exact && !groups.empty() &&
        same_slice(q, batch[groups[last_group].rep])) {
      LAMB_CHECK(q.dims[static_cast<std::size_t>(q.dim)] >= 1,
                 "query dimensions must be positive");
      g = last_group;
    } else {
      if (family_name == nullptr || *family_name != q.family) {
        family = &resolve_family(q.family);
        family_name = &q.family;
      }
      validate_query(q, *family);
      if (q.exact) {
        if (answering) {
          exact_queries.push_back(static_cast<std::uint32_t>(i));
        }
        continue;
      }
      const auto it =
          std::find_if(groups.begin(), groups.end(), [&](const Group& group) {
            return same_slice(q, batch[group.rep]);
          });
      g = static_cast<std::uint32_t>(it - groups.begin());
      if (it == groups.end()) {
        groups.push_back(Group{static_cast<std::uint32_t>(i),
                               find_slice(*snap, slice_id(q)).get()});
        if (groups.back().atlas == nullptr) {
          missing.push_back(g);
        }
      }
      last_group = g;
    }
    if (!answering) {
      continue;
    }
    if (groups[g].atlas != nullptr) {
      answer_from(i, *groups[g].atlas);
    } else {
      deferred.emplace_back(static_cast<std::uint32_t>(i), g);
    }
  }

  // Pass 2 — obtain every missing slice once (a build failure propagates,
  // first error wins — or, with degrade_on_failure, leaves the group
  // without an atlas), then answer the waiting queries.
  // Raw pointers are safe: published atlases are never dropped.
  for_each_index(missing.size(), [&](std::size_t m) {
    Group& group = groups[missing[m]];
    const Query& q = batch[group.rep];
    group.atlas = obtain_atlas(atlas_key(q), slice_id(q)).get();
  });
  std::size_t degraded = 0;
  for (const auto& [i, g] : deferred) {
    if (groups[g].atlas != nullptr) {
      answer_from(i, *groups[g].atlas);
    } else {
      out[i] = fallback_answer(batch[i]);
      ++degraded;
    }
  }
  if (answering) {
    // Every non-exact query not degraded was answered from its slice.
    support::count(counters_.atlas_answers,
                   batch.size() - exact_queries.size() - degraded);
  }
  const auto obtained = std::count_if(
      missing.begin(), missing.end(),
      [&](std::uint32_t g) { return groups[g].atlas != nullptr; });

  // Pass 3 — exact queries, in input order.
  for (const std::uint32_t i : exact_queries) {
    if (probed) {
      out[i] = classify_exact(batch[i]);
    } else if (!try_cached(batch[i], out[i])) {
      support::count(counters_.cache_misses);
      out[i] = classify_exact(batch[i]);
      cache_.put(batch[i], out[i]);
    }
  }
  return static_cast<std::size_t>(obtained);
}

std::vector<Recommendation> SelectionService::query_batch(
    std::span<const Query> batch) {
  std::vector<Recommendation> out(batch.size());
  if (!batch.empty()) {
    support::count(counters_.batch_calls);
    support::count(counters_.batch_queries, batch.size());
    answer(batch, out, /*probed=*/false);
  }
  return out;
}

std::future<Recommendation> SelectionService::query_async(Query q) {
  // Invalid queries throw here, synchronously, like query().
  validate_query(q, resolve_family(q.family));
  support::count(counters_.async_calls);
  std::promise<Recommendation> ready;
  Recommendation rec;
  const bool cached = try_cached(q, rec);
  if (cached || (!q.exact && find_slice(*snapshot(), slice_id(q)) != nullptr)) {
    // A built slice answers inline. The core's span closes before any
    // enqueue, so a queued waiter's captured context stays parented at the
    // request root: the worker answers long after, and spans must nest
    // inside their parent's.
    ready.set_value(cached ? rec : answer_one(q));
    return ready.get_future();
  }
  // Queue next to the waiters for the same slice (exact queries: the same
  // query). A new bucket past the bound sheds to the analytical fallback
  // instead of growing the backlog; joining a queued bucket adds no build.
  std::future<Recommendation> fut;
  {
    const std::lock_guard<std::mutex> lock(async_mutex_);
    LAMB_CHECK(!async_stop_, "query_async on a stopping service");
    if (!async_worker_.joinable()) {
      async_worker_ = std::thread([this] { async_worker_loop(); });
    }
    auto bucket = std::find_if(
        async_queue_.begin(), async_queue_.end(), [&](const auto& waiters) {
          const Query& queued = waiters.front().query;
          return queued.exact == q.exact &&
                 (q.exact ? queued == q : same_slice(queued, q));
        });
    if (bucket == async_queue_.end()) {
      if (config_.degrade_on_failure && config_.max_build_queue > 0 &&
          async_queue_.size() >= config_.max_build_queue) {
        support::count(counters_.builds_shed);
        support::count(counters_.cache_misses);
        ready.set_value(fallback_answer(q));
        return ready.get_future();
      }
      bucket = async_queue_.emplace(async_queue_.end());
    }
    bucket->push_back(AsyncWaiter{std::move(q), {}, obs::current_context()});
    fut = bucket->back().promise.get_future();
  }
  async_cv_.notify_one();
  return fut;
}

void SelectionService::async_worker_loop() {
  for (;;) {
    std::vector<AsyncWaiter> bucket;
    {
      std::unique_lock<std::mutex> lock(async_mutex_);
      async_cv_.wait(lock,
                     [&] { return async_stop_ || !async_queue_.empty(); });
      if (async_stop_) {
        return;  // the destructor fails whatever is still queued
      }
      bucket = std::move(async_queue_.front());
      async_queue_.pop_front();
    }
    // Each waiter is answered under its own trace context. The first one's
    // query() builds the slice (its spans attach to the request that caused
    // the build); the rest find it published. A build error fails the
    // whole bucket without rebuilding once per waiter.
    std::exception_ptr error;
    for (AsyncWaiter& waiter : bucket) {
      try {
        if (error) {
          std::rethrow_exception(error);
        }
        const obs::ContextGuard guard(waiter.ctx);
        waiter.promise.set_value(query(waiter.query));
      } catch (...) {
        error = std::current_exception();
        waiter.promise.set_exception(error);
      }
    }
  }
}

std::size_t SelectionService::warm(std::span<const Query> batch) {
  return answer(batch, {}, /*probed=*/false);
}

std::size_t SelectionService::warm_from_store(
    const store::AtlasStore& atlas_store) {
  std::vector<std::pair<store::AtlasKey, AtlasPtr>> fresh;
  for (const std::string& path : atlas_store.list()) {
    std::optional<store::AtlasRecord> record;
    try {
      record.emplace(store::load_atlas(path));
    } catch (const store::SerialError& e) {
      // One corrupt, truncated or foreign file (a crash mid-write, a disk
      // error) must not abort warming the healthy rest of the store — and
      // must not be silently re-read forever: set it aside with a journal
      // line so fsck / operators can inspect it.
      try {
        store::quarantine_file(path, e.what());
        std::fprintf(stderr, "warm_from_store: quarantined %s: %s\n",
                     path.c_str(), e.what());
        support::count(counters_.atlases_quarantined);
      } catch (const store::SerialError& rename_error) {
        std::fprintf(stderr, "warm_from_store: skipping %s: %s\n",
                     path.c_str(), rename_error.what());
        support::count(counters_.atlases_skipped);
      }
      continue;
    }
    if (record->machine != machine_.name() ||
        !same_config(record->atlas.config(), config_.atlas)) {
      continue;  // built for another machine model or another scan geometry
    }
    store::AtlasKey key = store::AtlasKey::of(*record);  // before the move
    fresh.emplace_back(std::move(key),
                       std::make_shared<const anomaly::RegionAtlas>(
                           std::move(record->atlas)));
  }
  // One copy-on-write swap adopts everything; already-present slices win
  // (they may be referenced by outstanding atlas_for() pointers).
  const std::size_t adopted = fresh.empty() ? 0 : publish(std::move(fresh));
  support::count(counters_.atlases_loaded, adopted);
  return adopted;
}

std::size_t SelectionService::checkpoint(store::AtlasStore& atlas_store) const {
  const SnapshotPtr snap = snapshot_.load();
  for (const auto& [id, slice] : *snap) {
    atlas_store.save(slice.key, *slice.atlas);
  }
  return snap->size();
}

std::size_t SelectionService::refresh_slices() {
  // One refresh round at a time: a second caller rebuilds against the new
  // generation, never the same stale one twice.
  const std::lock_guard<std::mutex> refresh_lock(refresh_mutex_);
  // The stale generation: everything published at this instant. Slices that
  // appear concurrently (on-demand builds) were scanned against the
  // machine's current timings and are not stale.
  const SnapshotPtr stale = snapshot_.load();
  std::vector<const Slice*> slices;
  slices.reserve(stale->size());
  for (const auto& [id, slice] : *stale) {
    slices.push_back(&slice);
  }
  if (slices.empty()) {
    support::count(counters_.refresh_rounds);
    return 0;
  }

  // Rebuild every stale slice off to the side; queries keep answering from
  // the old generation the whole time. A build failure throws out of here
  // with the old generation fully intact.
  std::vector<AtlasPtr> rebuilt(slices.size());
  for_each_index(slices.size(), [&](std::size_t i) {
    rebuilt[i] = build_slice(slices[i]->key);
  });

  // One copy-on-write swap replaces the whole stale set. The copy is taken
  // from the *current* snapshot, so slices published since the stale load
  // survive; replaced atlases are retired, never freed, keeping
  // atlas_for() raw pointers valid.
  {
    const std::lock_guard<std::mutex> lock(publish_mutex_);
    auto next = std::make_shared<Snapshot>(*snapshot_.load());
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const auto it = next->find(slice_id(slices[i]->key));
      retired_.push_back(std::move(it->second.atlas));
      it->second.atlas = std::move(rebuilt[i]);
    }
    snapshot_.store(std::move(next));
  }
  // Cached recommendations quote the stale generation; drop them after the
  // swap so every later answer re-reads the refreshed slices. (The hit and
  // miss counts are the service's own and keep counting.)
  cache_.clear();
  support::count(counters_.slices_refreshed, slices.size());
  support::count(counters_.refresh_rounds);
  return slices.size();
}

const anomaly::RegionAtlas* SelectionService::atlas_for(const Query& q) {
  validate_query(q, resolve_family(q.family));
  // Safe to return raw: published atlases are never dropped while the
  // service lives (snapshots only ever grow).
  return find_slice(*snapshot(), slice_id(q)).get();
}

std::size_t SelectionService::atlas_count() const {
  return snapshot_.load()->size();
}

ServiceStats SelectionService::stats() const {
  return support::load_relaxed<ServiceStats>(kServiceMetrics, counters_);
}

}  // namespace lamb::serve
