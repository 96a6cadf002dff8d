// Shared pieces of the perfbench binary: options, the result record, clocks
// and order statistics, the benchmark's own span log, and the workloads'
// entry points. Nothing here is instrumented inside the library: every span
// and counter is taken around a public call from the benchmark's side.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "anomaly/atlas.hpp"
#include "serve/selection_service.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required
  bool trace = false;
  bool counts = false;  ///< print the exact counts instead of running
  std::string describe = "unknown";  ///< `git describe` of the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload run: the answer checks, the metrics and the configuration
/// the numbers were taken under.
struct Outcome {
  std::uint64_t attempted = 0;  ///< operations sent
  std::uint64_t failed = 0;     ///< errors, non-200 replies, wrong answers
  std::vector<std::string> problems;  ///< why a check failed (first few)
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines, sample counts
  std::vector<std::pair<std::string, std::string>> config;

  bool correct() const { return failed == 0 && problems.empty(); }
  void problem(std::string why);
  void count_failure(const std::string& why);
  void metric(std::string name, double value, std::string unit);
  void note(std::string line);
  void set(std::string key, std::string value);
  void set(std::string key, double value);
};

// ------------------------------------------------------------------ clocks

std::uint64_t now_ns();  ///< steady_clock
double cpu_seconds();    ///< CLOCK_PROCESS_CPUTIME_ID
int process_threads();   ///< "Threads:" of /proc/self/status, 0 if unknown

/// The CPU of the benchmark's own thread (the client): the highest one this
/// process may run on.
int client_cpu();
/// The CPU of the server's threads: the next lower one the process may run
/// on, or the client's when it has only one.
int server_cpu();
/// Pin the calling thread to `cpu`; false when the host refuses. Threads it
/// starts afterwards inherit the CPU.
bool pin_thread(int cpu);

// ------------------------------------------------------------- host speed

/// The host's speed changes with its other tenants' load: the CPU time of
/// the same request moves by up to 1.5x between slices of one run and
/// between runs minutes apart. The benchmark therefore times a fixed piece
/// of its own work (reference_work_ns) next to every measurement and
/// scales each end-to-end figure to the speed at which that work takes
/// kReferenceWorkNs. Library changes do not touch the reference work, so
/// they move the scaled figures as they move the measured ones.
constexpr double kReferenceWorkNs = 6.0e5;

/// Wall time of the reference work, ns: the mean of two runs of a fixed
/// amount of hashing into a 256 KiB table, branching on its contents, and
/// sorting 2048 doubles.
double reference_work_ns();

/// Wall time since construction in seconds, scaled to the reference speed
/// by the reference work timed at construction and at the call.
class ScaledTimer {
 public:
  ScaledTimer();
  double seconds() const;

 private:
  double reference0_ns_;
  std::uint64_t t0_;
};

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Mean of the middle half of the values (the lowest and the highest
/// quarter dropped); the plain mean below four values, 0 for none.
double interquartile_mean(std::vector<double> values);

// --------------------------------------------------------------- span log

/// A span recorded by the benchmark around one call into a layer. Spans of
/// one operation are matched to it by time: every workload keeps exactly one
/// operation in flight, so a layer span inside an operation's interval
/// belongs to that operation, on whichever thread it ran.
struct Span {
  const char* layer;
  std::uint64_t t0_ns;
  std::uint64_t t1_ns;
};

class SpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void record(const char* layer, std::uint64_t t0_ns, std::uint64_t t1_ns);
  std::vector<Span> take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

SpanLog& spans();

/// Records [construction, destruction) as a span of `layer` when the log
/// is enabled.
class SpanScope {
 public:
  explicit SpanScope(const char* layer)
      : layer_(layer), t0_(spans().enabled() ? now_ns() : 0) {}
  ~SpanScope() {
    if (t0_ != 0) {
      spans().record(layer_, t0_, now_ns());
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* layer_;
  std::uint64_t t0_;
};

/// Time of the "op" spans not covered by any other span inside them, and
/// their total time, both in ns.
struct Coverage {
  double op_ns = 0.0;
  double covered_ns = 0.0;
  std::size_t ops = 0;
};
Coverage coverage(const std::vector<Span>& log);

/// Durations (ns) of every span of one layer.
std::vector<double> durations(const std::vector<Span>& log, const char* layer);

// ------------------------------------------------------- closed-loop timing

/// What a timed closed loop measured: one latency per operation, the
/// answers, the wall and process CPU time, and the rates of each slice of
/// the measured time. op_ns, answers, wall_s and cpu_s are as measured; the
/// rest is scaled to the reference speed by each slice's reference work.
struct Loop {
  std::vector<double> op_ns;
  std::vector<double> op_scaled_ns;  ///< op_ns at the reference speed
  std::uint64_t answers = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> slice_speed;   ///< kReferenceWorkNs / reference work
  std::vector<double> slice_qps;     ///< answers per wall second
  std::vector<double> slice_cpu_us;  ///< process CPU us per answer
  std::vector<double> slice_p50_ns;  ///< per-slice latency percentiles,
  std::vector<double> slice_p90_ns;  ///< from slices of >= kMinSliceOps
  bool sparse = false;  ///< some slice held fewer than kMinSliceOps ops
};

/// Operations a slice needs for its p90 to have ten samples beyond it.
constexpr std::size_t kMinSliceOps = 100;

// The per-slice figures are combined by their interquartile mean. A burst
// of host noise (steal, a neighbour's memory traffic) that hits a few slices
// falls into the dropped quarters, as it would with a median. When the host
// moves between a slower and a faster state during the run, the figure
// moves with the share of slices in each state; a median would jump to one
// state or the other.

/// Latency quantile q of a loop, ns: the interquartile mean over slices of
/// each slice's quantile when every slice holds at least kMinSliceOps
/// operations, else the quantile over every operation of the loop.
double latency_ns(const Loop& loop, double q);
/// Answers per wall second: the interquartile mean over the slices.
double qps(const Loop& loop);
/// Process CPU per answer, us: the interquartile mean over the slices.
double cpu_us_per_answer(const Loop& loop);

/// Times a closed loop for a fixed amount of measured time, cut into equal
/// slices. Work between pause() and resume() is not measured. The reference
/// work runs, unmeasured, at the start and at every slice boundary; a
/// slice's speed is taken from the mean of the two runs around it. `between`,
/// when given, runs unmeasured after every slice: the workloads take set-up
/// samples there, so the set-up figure spans the whole run rather than one
/// moment of it.
class Meter {
 public:
  static constexpr int kSlices = 20;

  explicit Meter(double seconds, std::function<void()> between = {});

  /// True until `seconds` of measured time have passed.
  bool running() const;
  /// One operation that ran over [t0, t1] and produced `answers`.
  void op(std::uint64_t t0_ns, std::uint64_t t1_ns, std::uint64_t answers);
  void pause();
  void resume();
  Loop finish();

 private:
  /// Records the slice accumulated so far (paused).
  void close_slice();

  double budget_ns_;
  double slice_ns_;
  bool paused_ = false;
  std::uint64_t mark_ns_;  ///< last resume
  double mark_cpu_;
  double measured_ns_ = 0.0;  ///< measured time up to mark_ns_
  double slice_wall_ns_ = 0.0;  ///< slice time before mark_ns_
  double slice_cpu_s_ = 0.0;
  double slice_start_reference_ns_;
  std::uint64_t slice_answers_ = 0;
  std::size_t slice_first_op_ = 0;  ///< index into loop_.op_ns
  std::function<void()> between_;
  Loop loop_;
};

/// Several loops as one: latencies, answers, times and slices together.
Loop combined(const std::vector<Loop>& loops);

/// A traced run alternates this many untraced and traced rounds, so drift
/// on the host hits both sides alike.
constexpr int kTraceRounds = 4;

/// Median over paired rounds of 100 x (1 - traced qps / untraced qps).
double trace_overhead_pct(const std::vector<Loop>& plain,
                          const std::vector<Loop>& traced);

/// Adds the end-to-end metrics of `loop` and of the set-up samples (s, from
/// ScaledTimer; the figure is their interquartile mean), with their sample
/// counts and the figures as measured.
void report_end_to_end(Outcome& out, const std::vector<double>& setups,
                       const Loop& loop);

// ------------------------------------------------------------------- inputs

/// Latin-hypercube sample of `count` instances with `dims` coordinates in
/// [lo, hi]: every coordinate takes each of `count` equal strata once, so
/// two seeds draw the same spread of sizes and a workload's cost does not
/// hinge on a few lucky or unlucky draws.
std::vector<lamb::expr::Instance> latin_instances(std::uint64_t seed,
                                                  std::size_t count, int dims,
                                                  int lo, int hi);

/// `count` slice queries, alternating aatb and chain4, each on its own
/// atlas slice (distinct bases), every symbolic dimension equally often.
std::vector<lamb::serve::Query> slice_queries(std::uint64_t seed,
                                              std::size_t count,
                                              const lamb::anomaly::AtlasConfig& atlas);

/// The wire line of a query ("aatb,300,40,549,dim=0").
std::string query_line(const lamb::serve::Query& q);

/// What the service answers from an atlas interval.
lamb::serve::Recommendation from_interval(
    const lamb::anomaly::AtlasInterval& interval);

/// serve_cli's scan geometry for the simulated machine (and, with hi = 300,
/// for --real).
inline lamb::anomaly::AtlasConfig atlas_config(int hi) {
  return lamb::anomaly::AtlasConfig{20, hi, 20, 0.05};
}

/// The service configuration every workload uses. One participant (the
/// calling thread) builds slices, so a workload's threads are the ones it
/// names and the process stays within the host's cores.
inline lamb::serve::ServiceConfig service_config(int hi) {
  lamb::serve::ServiceConfig cfg;
  cfg.atlas = atlas_config(hi);
  cfg.threads = 1;
  return cfg;
}

// ---------------------------------------------------------------- workloads

void run_warm_http(const Options& opt, Outcome& out);
void run_warm_batch(const Options& opt, Outcome& out);
void run_cold_sim(const Options& opt, Outcome& out);
void run_cold_measured(const Options& opt, Outcome& out);

/// The exact counts of a workload's traced run for one seed, by per-layer
/// metric name. They repeat bit-identically for a seed; perfbench/run.py
/// computes them in two more processes, for the run's seed and for the
/// held-out seed (seed xor kHeldOut), and fails the run on any difference.
std::vector<Metric> warm_batch_counts(std::uint64_t seed);
std::vector<Metric> cold_sim_counts(std::uint64_t seed);
std::vector<Metric> cold_measured_counts(std::uint64_t seed);
constexpr std::uint64_t kHeldOut = 0x5EED5EED;

/// Host and build facts recorded with every result.
void record_host(const Options& opt, Outcome& out);

}  // namespace perfbench
