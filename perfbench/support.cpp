#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "bench.hpp"
#include "blas/microkernel.hpp"
#include "perf/machine_info.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace lamb;

void Outcome::problem(std::string why) {
  if (problems.size() < 8) {
    problems.push_back(std::move(why));
  }
}

void Outcome::count_failure(const std::string& why) {
  ++failed;
  if (failed <= 4) {
    problem(why);
  }
}

void Outcome::metric(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::note(std::string line) { notes.push_back(std::move(line)); }

void Outcome::set(std::string key, std::string value) {
  config.emplace_back(std::move(key), std::move(value));
}

void Outcome::set(std::string key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  config.emplace_back(std::move(key), buf);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return 0;
}

namespace {

/// The CPUs this process may run on, highest first.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
  if (cpus.empty()) {
    cpus.push_back(0);
  }
  return cpus;
}

}  // namespace

int client_cpu() {
  static const int cpu = allowed_cpus().front();
  return cpu;
}

int server_cpu() {
  static const int cpu = [] {
    const std::vector<int> cpus = allowed_cpus();
    return cpus.size() > 1 ? cpus[1] : cpus[0];
  }();
  return cpu;
}

bool pin_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
}

double reference_work_ns() {
  static std::vector<std::uint64_t> table(1u << 15);
  static std::vector<double> keys(2048);
  static volatile std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  double total_ns = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    const std::uint64_t t0 = now_ns();
    std::uint64_t h = seed;
    const auto next = [&h] {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      return h;
    };
    for (int i = 0; i < 40000; ++i) {
      std::uint64_t& slot = table[(next() >> 11) & (table.size() - 1)];
      slot = (slot & 1) != 0 ? slot + h : slot ^ (h >> 3);
    }
    for (double& key : keys) {
      key = static_cast<double>(next() & 0xFFFFF);
    }
    std::sort(keys.begin(), keys.end());
    seed = h + static_cast<std::uint64_t>(keys[keys.size() / 2]);
    total_ns += static_cast<double>(now_ns() - t0);
  }
  return total_ns / 2.0;
}

ScaledTimer::ScaledTimer() : reference0_ns_(reference_work_ns()), t0_(now_ns()) {}

double ScaledTimer::seconds() const {
  const double s = 1e-9 * static_cast<double>(now_ns() - t0_);
  return s * kReferenceWorkNs / (0.5 * (reference0_ns_ + reference_work_ns()));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

void SpanLog::record(const char* layer, std::uint64_t t0_ns,
                     std::uint64_t t1_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({layer, t0_ns, t1_ns});
}

double interquartile_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 4;
  const std::size_t kept = values.size() - 2 * drop;
  double sum = 0.0;
  for (std::size_t i = drop; i < drop + kept; ++i) {
    sum += values[i];
  }
  return kept > 0 ? sum / static_cast<double>(kept) : 0.0;
}

std::vector<Span> SpanLog::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

Coverage coverage(const std::vector<Span>& log) {
  std::vector<Span> ops;
  std::vector<Span> layers;
  for (const Span& s : log) {
    (std::string_view(s.layer) == "op" ? ops : layers).push_back(s);
  }
  const auto by_start = [](const Span& a, const Span& b) {
    return a.t0_ns < b.t0_ns;
  };
  std::sort(ops.begin(), ops.end(), by_start);
  std::sort(layers.begin(), layers.end(), by_start);
  Coverage c;
  c.ops = ops.size();
  std::size_t next = 0;
  for (const Span& op : ops) {
    c.op_ns += static_cast<double>(op.t1_ns - op.t0_ns);
    while (next < layers.size() && layers[next].t0_ns < op.t0_ns) {
      ++next;  // outside every operation (set-up, probes)
    }
    // Union of the layer spans clipped to the operation.
    std::uint64_t reach = op.t0_ns;
    for (; next < layers.size() && layers[next].t0_ns < op.t1_ns; ++next) {
      const std::uint64_t lo = std::max(layers[next].t0_ns, reach);
      const std::uint64_t hi = std::min(layers[next].t1_ns, op.t1_ns);
      if (hi > lo) {
        c.covered_ns += static_cast<double>(hi - lo);
        reach = hi;
      }
    }
  }
  return c;
}

std::vector<double> durations(const std::vector<Span>& log, const char* layer) {
  std::vector<double> out;
  for (const Span& s : log) {
    if (std::string_view(s.layer) == layer) {
      out.push_back(static_cast<double>(s.t1_ns - s.t0_ns));
    }
  }
  return out;
}

double qps(const Loop& loop) {
  if (!loop.slice_qps.empty()) {
    return interquartile_mean(loop.slice_qps);
  }
  return loop.wall_s > 0.0 ? static_cast<double>(loop.answers) / loop.wall_s : 0.0;
}

double cpu_us_per_answer(const Loop& loop) {
  if (!loop.slice_cpu_us.empty()) {
    return interquartile_mean(loop.slice_cpu_us);
  }
  return loop.answers > 0 ? loop.cpu_s * 1e6 / static_cast<double>(loop.answers)
                          : 0.0;
}

Meter::Meter(double seconds, std::function<void()> between)
    : budget_ns_(seconds * 1e9),
      slice_ns_(seconds * 1e9 / kSlices),
      slice_start_reference_ns_(reference_work_ns()),
      between_(std::move(between)) {
  mark_ns_ = now_ns();
  mark_cpu_ = cpu_seconds();
}

bool Meter::running() const {
  const double since = paused_ ? 0.0 : static_cast<double>(now_ns() - mark_ns_);
  return measured_ns_ + since < budget_ns_;
}

void Meter::op(std::uint64_t t0_ns, std::uint64_t t1_ns, std::uint64_t answers) {
  loop_.op_ns.push_back(static_cast<double>(t1_ns - t0_ns));
  loop_.answers += answers;
  slice_answers_ += answers;
  if (slice_wall_ns_ + static_cast<double>(t1_ns - mark_ns_) >= slice_ns_) {
    pause();
    close_slice();
    if (between_) {
      between_();
    }
    resume();
  }
}

void Meter::close_slice() {
  const double end_reference_ns = reference_work_ns();
  const double speed =
      kReferenceWorkNs / (0.5 * (slice_start_reference_ns_ + end_reference_ns));
  slice_start_reference_ns_ = end_reference_ns;
  loop_.slice_speed.push_back(speed);
  if (slice_answers_ > 0) {
    const double answers = static_cast<double>(slice_answers_);
    loop_.slice_qps.push_back(answers / (slice_wall_ns_ * 1e-9 * speed));
    loop_.slice_cpu_us.push_back(slice_cpu_s_ * 1e6 * speed / answers);
  }
  std::vector<double> ops;
  for (std::size_t i = slice_first_op_; i < loop_.op_ns.size(); ++i) {
    ops.push_back(loop_.op_ns[i] * speed);
  }
  loop_.op_scaled_ns.insert(loop_.op_scaled_ns.end(), ops.begin(), ops.end());
  if (ops.size() < kMinSliceOps) {
    loop_.sparse = true;
  } else {
    loop_.slice_p50_ns.push_back(quantile(ops, 0.50));
    loop_.slice_p90_ns.push_back(quantile(ops, 0.90));
  }
  slice_first_op_ = loop_.op_ns.size();
  slice_wall_ns_ = 0.0;
  slice_cpu_s_ = 0.0;
  slice_answers_ = 0;
}

void Meter::pause() {
  if (paused_) {
    return;
  }
  const std::uint64_t t = now_ns();
  const double cpu = cpu_seconds();
  slice_wall_ns_ += static_cast<double>(t - mark_ns_);
  slice_cpu_s_ += cpu - mark_cpu_;
  measured_ns_ += static_cast<double>(t - mark_ns_);
  loop_.wall_s += 1e-9 * static_cast<double>(t - mark_ns_);
  loop_.cpu_s += cpu - mark_cpu_;
  paused_ = true;
}

void Meter::resume() {
  if (!paused_) {
    return;
  }
  mark_ns_ = now_ns();
  mark_cpu_ = cpu_seconds();
  paused_ = false;
}

Loop Meter::finish() {
  pause();
  // A last slice shorter than half the others would be the noisiest one.
  if (slice_answers_ > 0 && slice_wall_ns_ >= slice_ns_ / 2) {
    close_slice();
  }
  return std::move(loop_);
}

double latency_ns(const Loop& loop, double q) {
  const std::vector<double>& slices = q == 0.5 ? loop.slice_p50_ns : loop.slice_p90_ns;
  if (loop.sparse || slices.empty() || (q != 0.5 && q != 0.9)) {
    return quantile(loop.op_scaled_ns, q);
  }
  return interquartile_mean(slices);
}

Loop combined(const std::vector<Loop>& loops) {
  Loop all;
  for (const Loop& loop : loops) {
    all.op_ns.insert(all.op_ns.end(), loop.op_ns.begin(), loop.op_ns.end());
    all.op_scaled_ns.insert(all.op_scaled_ns.end(), loop.op_scaled_ns.begin(),
                            loop.op_scaled_ns.end());
    all.slice_speed.insert(all.slice_speed.end(), loop.slice_speed.begin(),
                           loop.slice_speed.end());
    all.answers += loop.answers;
    all.wall_s += loop.wall_s;
    all.cpu_s += loop.cpu_s;
    all.slice_qps.insert(all.slice_qps.end(), loop.slice_qps.begin(),
                         loop.slice_qps.end());
    all.slice_cpu_us.insert(all.slice_cpu_us.end(), loop.slice_cpu_us.begin(),
                            loop.slice_cpu_us.end());
    all.slice_p50_ns.insert(all.slice_p50_ns.end(), loop.slice_p50_ns.begin(),
                            loop.slice_p50_ns.end());
    all.slice_p90_ns.insert(all.slice_p90_ns.end(), loop.slice_p90_ns.begin(),
                            loop.slice_p90_ns.end());
    all.sparse = all.sparse || loop.sparse;
  }
  return all;
}

double trace_overhead_pct(const std::vector<Loop>& plain,
                          const std::vector<Loop>& traced) {
  std::vector<double> rounds;
  for (std::size_t r = 0; r < plain.size() && r < traced.size(); ++r) {
    rounds.push_back(100.0 * (1.0 - qps(traced[r]) / qps(plain[r])));
  }
  return median(rounds);
}

void report_end_to_end(Outcome& out, const std::vector<double>& setups,
                       const Loop& loop) {
  out.metric("setup_s", interquartile_mean(setups), "s");
  out.metric("qps", qps(loop), "1/s");
  out.metric("p50_us", latency_ns(loop, 0.50) * 1e-3, "us");
  out.metric("p90_us", latency_ns(loop, 0.90) * 1e-3, "us");
  out.metric("cpu_us_per_query", cpu_us_per_answer(loop), "us");
  out.set("host_speed", median(loop.slice_speed));
  char line[480];
  std::snprintf(line, sizeof line,
                "samples: %zu operations (%zu beyond p90), %llu answers, "
                "%.3f s measured in %zu slices, latency from %s, %zu set-ups; "
                "host speed %.3f of the reference (slices %.3f-%.3f); as "
                "measured over the whole run: qps %.6g, cpu us per answer "
                "%.6g, p50 %.6g us, p90 %.6g us",
                loop.op_ns.size(), loop.op_ns.size() / 10,
                static_cast<unsigned long long>(loop.answers), loop.wall_s,
                loop.slice_qps.size(),
                loop.sparse ? "every operation" : "slices", setups.size(),
                median(loop.slice_speed), quantile(loop.slice_speed, 0.0),
                quantile(loop.slice_speed, 1.0), loop.wall_s > 0 ? static_cast<double>(loop.answers) / loop.wall_s : 0.0,
                loop.answers > 0 ? loop.cpu_s * 1e6 / static_cast<double>(loop.answers) : 0.0,
                quantile(loop.op_ns, 0.50) * 1e-3, quantile(loop.op_ns, 0.90) * 1e-3);
  out.note(line);
}

std::vector<expr::Instance> latin_instances(std::uint64_t seed,
                                            std::size_t count, int dims,
                                            int lo, int hi) {
  support::Rng rng(seed);
  std::vector<expr::Instance> out(count, expr::Instance(static_cast<std::size_t>(dims)));
  const double width = static_cast<double>(hi - lo + 1) / static_cast<double>(count);
  std::vector<std::size_t> strata(count);
  for (int d = 0; d < dims; ++d) {
    for (std::size_t i = 0; i < count; ++i) {
      strata[i] = i;
    }
    for (std::size_t i = count; i > 1; --i) {
      std::swap(strata[i - 1], strata[rng.bounded(i)]);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const double x = (static_cast<double>(strata[i]) + rng.uniform()) * width;
      out[i][static_cast<std::size_t>(d)] =
          std::min(hi, lo + static_cast<int>(x));
    }
  }
  return out;
}

std::vector<serve::Query> slice_queries(std::uint64_t seed, std::size_t count,
                                        const anomaly::AtlasConfig& atlas) {
  const std::size_t per_family = (count + 1) / 2;
  const auto aatb = latin_instances(seed, per_family, 3, atlas.lo, atlas.hi);
  const auto chain = latin_instances(seed ^ 0xC4A1, per_family, 5, atlas.lo, atlas.hi);
  // Symbolic dimensions are balanced the same way: each family uses each of
  // its dimensions equally often, in a seeded order. A slice's scan cost
  // depends strongly on which dimension it scans.
  support::Rng rng(seed ^ 0xD1);
  const auto balanced_dims = [&](int dims) {
    std::vector<int> order(per_family);
    for (std::size_t i = 0; i < per_family; ++i) {
      order[i] = static_cast<int>(i % static_cast<std::size_t>(dims));
    }
    for (std::size_t i = per_family; i > 1; --i) {
      std::swap(order[i - 1], order[rng.bounded(i)]);
    }
    return order;
  };
  const std::vector<int> aatb_dims = balanced_dims(3);
  const std::vector<int> chain_dims = balanced_dims(5);
  std::vector<serve::Query> out;
  for (std::size_t i = 0; i < count; ++i) {
    const bool is_aatb = i % 2 == 0;
    out.push_back(serve::Query{is_aatb ? "aatb" : "chain4",
                               is_aatb ? aatb[i / 2] : chain[i / 2],
                               is_aatb ? aatb_dims[i / 2] : chain_dims[i / 2],
                               false});
  }
  return out;
}

std::string query_line(const serve::Query& q) {
  std::string line = q.family;
  for (const int d : q.dims) {
    line += ',' + std::to_string(d);
  }
  line += ",dim=" + std::to_string(q.dim);
  if (q.exact) {
    line += ",exact";
  }
  return line;
}

serve::Recommendation from_interval(const anomaly::AtlasInterval& interval) {
  serve::Recommendation rec;
  rec.algorithm = interval.recommended;
  rec.flop_minimal = interval.flop_minimal;
  rec.flops_reliable = !interval.anomalous;
  rec.time_score = interval.worst_time_score;
  rec.source = serve::Source::kAtlas;
  return rec;
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

void record_host(const Options& opt, Outcome& out) {
  const perf::MachineInfo info = perf::query_machine_info();
  out.set("workload", opt.workload);
  out.set("seed", static_cast<double>(opt.seed));
  out.set("seconds", opt.seconds);
  out.set("trace", opt.trace ? "1" : "0");
  out.set("cpu_model", cpu_model());
  out.set("nproc", static_cast<double>(info.logical_cores));
  out.set("llc_bytes", static_cast<double>(info.llc_bytes));
  out.set("microkernel", blas::active_microkernel().name);
  out.set("git_describe", opt.describe);
}

}  // namespace perfbench
