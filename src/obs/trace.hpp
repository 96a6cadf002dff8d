// obs::Tracer — always-cheap request tracing for the serving path.
//
// Design constraints, in order:
//   1. Disabled (the default outside serving), the entire subsystem is one
//      relaxed atomic load per instrumentation site — no timestamps, no
//      TLS writes, no allocation.
//   2. Enabled, the always-on tier records per-stage latency histograms
//      into PER-THREAD histograms (uncontended relaxed adds), merged only
//      at scrape time; the detailed tier captures full spans for 1-in-N
//      requests (N runtime-adjustable) into per-thread lock-free ring
//      buffers — fixed capacity, overwrite-oldest, zero allocation on the
//      hot path.
//   3. Readers (/debug/trace, /metrics, the slow log) never stop writers:
//      each ring slot is a tiny seqlock of relaxed atomics, so a reader
//      that races a wrapping writer simply discards the torn slot. All
//      fields are std::atomic with explicit fences, keeping TSan clean.
//
// Spans form trees: a TraceContext {trace_id, parent_span, sampled} lives
// in a thread_local and crosses threads explicitly (ContextGuard) wherever
// work is handed off — HTTP worker pools, the async build queue, ThreadPool
// slice builds. SpanScope is the RAII recorder: on a sampled trace it
// allocates a span id, re-parents the context for its dynamic extent, and
// pushes {trace_id, span_id, parent, stage, t_start, t_end} on destruction;
// on every enabled trace it feeds the stage histogram.
//
// Timestamps come from obs::now_ns() (TSC calibrated against
// steady_clock — see obs/clock.hpp), globally ordered across threads, so
// child intervals nest inside parent intervals even when parent and child
// ran on different cores.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"
#include "obs/pmu.hpp"
#include "support/histogram.hpp"
#include "support/metrics.hpp"

namespace lamb::obs {

/// The instrumented stages of one request's life. kRequest is the root
/// span (intake to response queued); the rest are the serving layers.
enum class Stage : std::uint8_t {
  kRequest = 0,  ///< root: first byte read to response queued
  kParse,        ///< HTTP framing: bytes read to request dispatched
  kRoute,        ///< router dispatch (handler inline work included)
  kLru,          ///< recommendation-cache probe
  kAtlas,        ///< slice resolution + interval lookup
  kBuild,        ///< atlas slice scan / exact classification
  kKernel,       ///< one blas::gemm invocation
};
inline constexpr std::size_t kStageCount = 7;

std::string_view to_string(Stage stage);

/// One completed span, as read back from a ring.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_id = 0;  ///< 0 = root (no parent)
  std::uint32_t thread_index = 0;
  Stage stage = Stage::kRequest;
  std::uint64_t t_start_ns = 0;
  std::uint64_t t_end_ns = 0;
  /// Hardware-counter deltas attributed exclusively to this span (valid
  /// only on sampled spans when the PMU is available — see obs/pmu.hpp).
  PmuSample pmu;
  /// Floating-point operations the span's owner declared (2mnk for a
  /// gemm); 0 when unknown. With pmu.valid this yields FLOP-per-cycle.
  std::uint64_t flops = 0;
};

/// Per-stage PMU aggregate across every sampled span (merged over all
/// thread lanes at scrape time). `samples` counts spans with valid PMU
/// deltas; the counters sum those deltas.
struct PmuStageTotals {
  std::uint64_t samples = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_loads = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t stalled_backend = 0;
  std::uint64_t flops = 0;
};

/// The /metrics lamb_pmu_* counter families, one series per stage
/// (present only while the PMU is live; see obs/pmu.hpp).
inline constexpr support::MetricRow<PmuStageTotals> kPmuMetrics[] = {
    {&PmuStageTotals::samples, "lamb_pmu_samples_total", "", "counter",
     "Sampled spans with PMU attribution, by stage."},
    {&PmuStageTotals::cycles, "lamb_pmu_cycles_total", "", "counter",
     "CPU cycles attributed to sampled spans, by stage."},
    {&PmuStageTotals::instructions, "lamb_pmu_instructions_total", "",
     "counter", "Instructions retired in sampled spans, by stage."},
    {&PmuStageTotals::llc_loads, "lamb_pmu_llc_loads_total", "", "counter",
     "Last-level-cache read accesses in sampled spans, by stage."},
    {&PmuStageTotals::llc_misses, "lamb_pmu_llc_misses_total", "", "counter",
     "Last-level-cache read misses in sampled spans, by stage."},
    {&PmuStageTotals::stalled_backend, "lamb_pmu_stalled_backend_total", "",
     "counter", "Backend-stalled cycles in sampled spans, by stage."},
    {&PmuStageTotals::flops, "lamb_pmu_flops_total", "", "counter",
     "Declared floating-point operations of PMU-attributed spans, by stage "
     "(2mnk per gemm)."},
};
static_assert(8 * support::field_count<PmuStageTotals>(kPmuMetrics) ==
              sizeof(PmuStageTotals));

/// Propagated identity of the request being served on this thread.
/// trace_id == 0 means "no active trace" (spans are skipped).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint32_t parent_span = 0;  ///< span new children attach under
  bool sampled = false;           ///< detailed capture on for this trace
};

struct TracerConfig {
  bool enabled = false;            ///< master switch (serving turns it on)
  std::uint32_t sample_every = 64; ///< 1-in-N detailed capture; 0 = off, 1 = all
  std::uint64_t slow_threshold_ns = 10'000'000;  ///< slow-log threshold
  std::size_t ring_capacity = 4096;  ///< spans per thread (rounded to 2^k)
  std::size_t slow_capacity = 64;    ///< retained slow traces
};

/// One over-threshold request with its full span tree, as retained by the
/// slow log (only sampled traces carry spans to retain).
struct SlowTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t t_start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::string label;  ///< request path
  std::vector<SpanRecord> spans;
};

/// Root-span handle for one request; begin_request() -> end_request().
struct RequestTrace {
  TraceContext ctx;
  std::uint64_t start_ns = 0;
  std::string label;
  bool started = false;
};

struct TracerCounters {
  std::uint64_t requests = 0;  ///< traces begun
  std::uint64_t sampled = 0;   ///< traces with detailed capture
  std::uint64_t spans = 0;     ///< spans pushed into rings (pre-overwrite)
  std::uint64_t slow = 0;      ///< slow-log admissions (bounded ring may drop)
};

inline constexpr support::MetricRow<TracerCounters> kTracerMetrics[] = {
    {&TracerCounters::requests, "lamb_trace_requests_total", "", "counter",
     "Traces begun."},
    {&TracerCounters::sampled, "lamb_trace_sampled_total", "", "counter",
     "Traces with detailed span capture."},
    {&TracerCounters::spans, "lamb_trace_spans_total", "", "counter",
     "Spans pushed into the per-thread rings (pre-overwrite)."},
    {&TracerCounters::slow, "lamb_trace_slow_total", "", "counter",
     "Slow-log admissions."},
};

namespace detail {
/// Master switch, read inline by every instrumentation site.
extern std::atomic<bool> g_enabled;
/// The active trace context of this thread.
inline thread_local TraceContext t_context;
/// Per-thread recording state (ring + stage histograms); defined in the
/// implementation file.
struct Lane;
}  // namespace detail

class Tracer {
 public:
  Tracer();
  ~Tracer();

  /// Replace the whole configuration and drop all recorded state (rings,
  /// histograms, slow log, counters). NOT safe concurrently with active
  /// recorders — call at startup or between test phases, not under load.
  /// The runtime-adjustable knobs (set_sample_every, set_slow_threshold_ns,
  /// set_enabled) are safe anytime.
  void configure(const TracerConfig& config);
  TracerConfig config() const;

  bool enabled() const {
    return detail::g_enabled.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on);
  std::uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }
  void set_sample_every(std::uint32_t n);
  std::uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }
  void set_slow_threshold_ns(std::uint64_t ns);

  /// Start a trace for one request. `start_ns` backdates the root span to
  /// when the request's bytes arrived (0 = now). Returns an inert handle
  /// when tracing is disabled.
  RequestTrace begin_request(std::string_view label,
                             std::uint64_t start_ns = 0);
  /// Close the root span: stage histogram, ring push (sampled), slow-log
  /// admission. Idempotent; callable from any thread.
  void end_request(RequestTrace& trace);

  /// Ring-push a completed span under an explicit context (the stage
  /// histogram is record_stage's job). No-op unless ctx is sampled.
  void record_span(const TraceContext& ctx, Stage stage, std::uint64_t t0,
                   std::uint64_t t1);
  /// Feed this thread's per-stage latency histogram.
  void record_stage(Stage stage, std::uint64_t t0, std::uint64_t t1);
  std::uint32_t alloc_span_id() {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Every readable span across all thread rings (torn and overwritten
  /// slots skipped). Safe under concurrent writers.
  std::vector<SpanRecord> recent_spans() const;
  /// The readable spans of one trace.
  std::vector<SpanRecord> collect_trace(std::uint64_t trace_id) const;
  /// Per-stage latency snapshots merged across threads.
  std::array<support::LatencyHistogram::Snapshot, kStageCount>
  stage_snapshots() const;
  /// Per-stage PMU totals merged across threads (all-zero when the PMU is
  /// unavailable or nothing was sampled).
  std::array<PmuStageTotals, kStageCount> pmu_stage_totals() const;
  /// Per-stage distribution of per-span IPC (histogram buckets are the
  /// shared 1-2-5 grid, read unitless: an IPC of 1.7 lands in le="2").
  std::array<support::LatencyHistogram::Snapshot, kStageCount>
  pmu_ipc_snapshots() const;
  std::vector<SlowTrace> slow_traces() const;
  TracerCounters counters() const;

  /// Chrome trace-event JSON ("traceEvents" of "ph":"X" slices, one track
  /// per recording thread) — load via chrome://tracing or Perfetto.
  std::string chrome_trace_json() const;
  /// The slow log as a JSON array, span trees inline.
  std::string slow_json() const;

 private:
  friend class SpanScope;

  detail::Lane& lane();
  void push(detail::Lane& lane, const SpanRecord& record);
  void admit_slow(const RequestTrace& trace, std::uint64_t t_end_ns);
  std::vector<SpanRecord> scan_lanes(std::uint64_t trace_filter) const;

  std::atomic<std::uint32_t> sample_every_{64};
  std::atomic<std::uint64_t> slow_threshold_ns_{10'000'000};
  /// Trace ids double as the request counter and the sampling phase:
  /// requests == next_trace_ - 1, and trace (id - 1) % sample_every == 0
  /// gets detailed capture — one shared fetch_add per request instead of
  /// three on the serving intake path.
  std::atomic<std::uint64_t> next_trace_{1};
  std::atomic<std::uint32_t> next_span_{1};
  std::atomic<std::uint64_t> sampled_{0};
  std::atomic<std::uint64_t> slow_admitted_{0};

  /// Bumped by configure(); threads re-acquire their lane when it moves.
  std::atomic<std::uint64_t> generation_{1};
  std::size_t ring_capacity_ = 4096;  ///< guarded by lanes_mutex_
  mutable std::mutex lanes_mutex_;
  std::vector<std::unique_ptr<detail::Lane>> lanes_;

  std::size_t slow_capacity_ = 64;  ///< guarded by slow_mutex_
  mutable std::mutex slow_mutex_;
  std::vector<SlowTrace> slow_;  ///< ring, newest overwrites oldest
  std::size_t slow_next_ = 0;
};

/// The process-wide tracer (never destroyed: worker thread_locals may
/// outlive any static destruction order).
Tracer& tracer();

/// This thread's active context (copy); set/restored via ContextGuard.
inline TraceContext current_context() { return detail::t_context; }

/// RAII: install a context for a cross-thread continuation (pool lambdas,
/// deferred jobs, async waiters), restoring the previous one on exit.
class ContextGuard {
 public:
  explicit ContextGuard(const TraceContext& ctx) : saved_(detail::t_context) {
    detail::t_context = ctx;
  }
  ~ContextGuard() { detail::t_context = saved_; }
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  TraceContext saved_;
};

/// RAII span: one relaxed load when tracing is disabled; otherwise two
/// timestamps, a per-thread histogram add, and (sampled) a ring push.
class SpanScope {
 public:
  explicit SpanScope(Stage stage) {
    if (detail::g_enabled.load(std::memory_order_relaxed)) {
      begin(stage);
    }
  }
  /// As above, declaring the scope's floating-point work (2mnk for a
  /// gemm) so sampled spans carry FLOP-per-cycle attribution.
  SpanScope(Stage stage, std::uint64_t flops) {
    if (detail::g_enabled.load(std::memory_order_relaxed)) {
      flops_ = flops;
      begin(stage);
    }
  }
  ~SpanScope() {
    if (armed_) {
      finish();
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void begin(Stage stage);
  void finish();

  Stage stage_ = Stage::kRequest;
  bool armed_ = false;
  bool sampled_ = false;
  std::uint32_t span_id_ = 0;
  std::uint32_t saved_parent_ = 0;
  std::uint64_t t0_ = 0;
  std::uint64_t flops_ = 0;
  /// Armed only on sampled spans when the PMU is available — the unsampled
  /// hot path never touches a counter.
  PmuScope pmu_;
};

/// One stage's attributed work over some window: its executions, their
/// summed wall time, and the PMU totals of its sampled spans.
struct StageTotals {
  std::uint64_t count = 0;
  double seconds = 0.0;
  PmuStageTotals pmu;
};

/// The process-wide per-stage totals so far (tracer().stage_snapshots()
/// counts and sums with tracer().pmu_stage_totals()), indexed by Stage.
std::array<StageTotals, kStageCount> stage_totals();

/// The one stage-breakdown report (`serve_cli profile`, SimReport): a
/// header line starting "stage ", then a line per stage that ran, indexed
/// by Stage — count, wall milliseconds and share of the summed stage time
/// (stages nest, so shares are of the sum, not of wall time), plus cycles,
/// instructions, IPC and LLC miss rate when the PMU attributed any span.
std::string stage_table(std::span<const StageTotals> stages);

}  // namespace lamb::obs
