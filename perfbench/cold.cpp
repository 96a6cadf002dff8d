// The cold workloads: answers that need the machine model.
//
//   cold_sim       query() calls that each land on a slice not built yet, so
//                  every answer is a full slice build on SimulatedMachine
//                  (serve_cli's default machine): expr enumeration, the
//                  anomaly scan and refinement, simulated timing, serve's
//                  build dedup and copy-on-write publish. Deterministic work.
//   cold_measured  distinct exact=true queries, half aatb and half chain4, on
//                  MeasuredMachine under serve_cli --real's protocol (5
//                  repetitions, 64 MiB flush before each): every answer times
//                  every algorithm, which is fixed work.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "anomaly/atlas.hpp"
#include "bench.hpp"
#include "blas/blas.hpp"
#include "la/generators.hpp"
#include "model/measured_machine.hpp"
#include "model/simulated_machine.hpp"
#include "perf/cache_flush.hpp"
#include "perf/machine_info.hpp"
#include "support/rng.hpp"
#include "wrappers.hpp"

namespace perfbench {

using namespace lamb;

namespace {

// ------------------------------------------------------------------ cold_sim

constexpr int kSimHi = 1200;
constexpr std::size_t kSimHot = 32;     ///< slices built at set-up
constexpr std::size_t kSimPool = 256;   ///< cold slices a run cycles through
constexpr std::size_t kSimBlock = 128;  ///< cold queries per fresh service
constexpr std::size_t kSimProbe = 32;   ///< slices of the per-layer probes

struct SimInputs {
  std::vector<serve::Query> hot;
  std::vector<serve::Query> cold;
};

/// Hot and cold slices from one Latin-hypercube draw, so no cold slice is
/// ever already built.
SimInputs sim_inputs(std::uint64_t seed) {
  std::vector<serve::Query> all =
      slice_queries(seed, kSimHot + kSimPool, atlas_config(kSimHi));
  SimInputs in;
  in.hot.assign(all.begin(), all.begin() + kSimHot);
  in.cold.assign(all.begin() + kSimHot, all.end());
  return in;
}

/// RegionAtlas built directly (no service) for a slice query.
anomaly::RegionAtlas direct_atlas(model::MachineModel& machine,
                                  const serve::Query& q) {
  const auto family = expr::make_family(q.family);
  return anomaly::RegionAtlas(*family, machine, q.dims, q.dim,
                              atlas_config(kSimHi));
}

/// What atlases built directly on a separate SimulatedMachine say: the
/// answer of every cold query and the classification samples of every
/// slice. The service's answers and its stats().atlas_samples are checked
/// against it.
struct SimReference {
  std::vector<serve::Recommendation> expected;
  std::vector<long long> cold_samples;
  long long hot_samples = 0;
};

SimReference sim_reference(const SimInputs& in) {
  SimReference ref;
  model::SimulatedMachine machine;
  for (const serve::Query& q : in.hot) {
    ref.hot_samples += direct_atlas(machine, q).samples_used();
  }
  for (const serve::Query& q : in.cold) {
    const anomaly::RegionAtlas atlas = direct_atlas(machine, q);
    ref.cold_samples.push_back(atlas.samples_used());
    ref.expected.push_back(
        from_interval(atlas.lookup(q.dims[static_cast<std::size_t>(q.dim)])));
  }
  return ref;
}

/// Cold queries in blocks for `seconds` of wall time: each block is a timed
/// set-up (fresh machine and service, hot slices built) followed by
/// kSimBlock timed cold queries, after which the service's sample count
/// must equal the reference's. `timed_layers` routes the service through a
/// TimedMachine and the timed family registry (traced segment).
Loop sim_loop(const SimInputs& in, const SimReference& ref, double seconds,
              bool timed_layers, Outcome& out, std::vector<double>& setups,
              std::size_t& next) {
  const expr::FamilyRegistry registry = timed_registry();
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  Meter meter(seconds * 0.75);  // set-ups take about a quarter of the time
  do {
    meter.pause();
    const ScaledTimer timer;
    auto sim = std::make_unique<model::SimulatedMachine>();
    std::unique_ptr<TimedMachine> timed;
    model::MachineModel* machine = sim.get();
    if (timed_layers) {
      timed = std::make_unique<TimedMachine>(*sim);
      machine = timed.get();
    }
    auto service = std::make_unique<serve::SelectionService>(
        *machine, service_config(kSimHi), timed_layers ? &registry : nullptr);
    service->warm(in.hot);
    setups.push_back(timer.seconds());
    meter.resume();

    long long samples = ref.hot_samples;
    for (std::size_t j = 0; j < kSimBlock; ++j) {
      const std::size_t k = next++ % in.cold.size();
      ++out.attempted;
      serve::Recommendation rec;
      const std::uint64_t t0 = now_ns();
      try {
        rec = service->query(in.cold[k]);
      } catch (const std::exception& e) {
        out.count_failure(std::string("query threw: ") + e.what());
        continue;
      }
      const std::uint64_t t1 = now_ns();
      if (spans().enabled()) {
        spans().record("op", t0, t1);
      }
      samples += ref.cold_samples[k];
      if (!(rec == ref.expected[k]) || rec.source != serve::Source::kAtlas) {
        out.count_failure("cold answer differs from a direct RegionAtlas for " +
                          query_line(in.cold[k]));
        continue;
      }
      meter.op(t0, t1, 1);
    }
    meter.pause();
    if (service->stats().atlas_samples != samples) {
      out.problem("service atlas_samples " +
                  std::to_string(service->stats().atlas_samples) +
                  " differs from the direct atlases' " + std::to_string(samples));
    }
    meter.resume();
  } while (now_ns() < deadline);
  return meter.finish();
}

/// The first kSimProbe cold slices built through query() on a fresh
/// service over a TimedMachine, with the hot set built first (not counted).
struct SimProbe {
  double ms_per_slice = 0.0;
  long long samples = 0;    ///< service stats().atlas_samples of the builds
  std::uint64_t calls = 0;  ///< model calls of the builds
};

SimProbe probe_service_builds(const SimInputs& in,
                              const expr::FamilyRegistry& registry) {
  model::SimulatedMachine sim;
  TimedMachine timed(sim);
  serve::SelectionService service(timed, service_config(kSimHi), &registry);
  service.warm(in.hot);
  const long long samples0 = service.stats().atlas_samples;
  const std::uint64_t calls0 = timed.calls();
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < kSimProbe; ++i) {
    service.query(in.cold[i]);
  }
  SimProbe probe;
  probe.ms_per_slice = 1e-6 * static_cast<double>(now_ns() - t0) / kSimProbe;
  probe.samples = service.stats().atlas_samples - samples0;
  probe.calls = timed.calls() - calls0;
  return probe;
}

std::vector<Metric> sim_counts(const SimProbe& probe) {
  return {{"anomaly.samples_per_slice",
           static_cast<double>(probe.samples) / kSimProbe, "count"},
          {"model.calls_per_query", static_cast<double>(probe.calls) / kSimProbe,
           "count"}};
}

}  // namespace

std::vector<Metric> cold_sim_counts(std::uint64_t seed) {
  return sim_counts(probe_service_builds(sim_inputs(seed), timed_registry()));
}

void run_cold_sim(const Options& opt, Outcome& out) {
  const SimInputs in = sim_inputs(opt.seed);
  out.set("service_threads", 1.0);
  out.set("client_threads", 1.0);
  out.set("hot_slices", static_cast<double>(kSimHot));
  out.set("cold_slices", static_cast<double>(kSimPool));
  out.set("cold_queries_per_service", static_cast<double>(kSimBlock));
  const SimReference ref = sim_reference(in);

  std::vector<double> setups;
  std::size_t next = 0;
  if (!opt.trace) {
    const Loop loop = sim_loop(in, ref, opt.seconds, false, out, setups, next);
    out.set("threads_in_process", static_cast<double>(process_threads()));
    report_end_to_end(out, setups, loop);
    return;
  }

  std::vector<Loop> plain_rounds, traced_rounds;
  const double round_s = opt.seconds / (2 * kTraceRounds);
  for (int r = 0; r < kTraceRounds; ++r) {
    plain_rounds.push_back(sim_loop(in, ref, round_s, false, out, setups, next));
    spans().set_enabled(true);
    traced_rounds.push_back(sim_loop(in, ref, round_s, true, out, setups, next));
    spans().set_enabled(false);
  }
  const std::vector<Span> log = spans().take();
  const Coverage cov = coverage(log);

  // Per-slice probes on the first kSimProbe cold slices, each pass on fresh
  // machines: a direct RegionAtlas build (the anomaly scan), and the same
  // slices through query() on a service holding the hot set (scan plus
  // serve's build path). Both go through TimedMachine. The service's sample
  // and call counts must equal the direct builds' in every pass.
  const expr::FamilyRegistry registry = timed_registry();
  const auto aatb = registry.make("aatb");
  const auto chain4 = registry.make("chain4");
  long long ref_samples = 0;
  for (std::size_t i = 0; i < kSimProbe; ++i) {
    ref_samples += ref.cold_samples[i];
  }
  std::vector<double> scan_ms, query_ms, busy_ms;
  SimProbe probe;
  for (int pass = 0; pass < 5; ++pass) {
    model::SimulatedMachine sim;
    TimedMachine timed(sim);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kSimProbe; ++i) {
      const serve::Query& q = in.cold[i];
      anomaly::RegionAtlas atlas(q.family == "aatb" ? *aatb : *chain4, timed,
                                 q.dims, q.dim, atlas_config(kSimHi));
    }
    scan_ms.push_back(1e-6 * static_cast<double>(now_ns() - t0) / kSimProbe);
    busy_ms.push_back(1e-6 * static_cast<double>(timed.busy_ns()) / kSimProbe);

    probe = probe_service_builds(in, registry);
    query_ms.push_back(probe.ms_per_slice);
    if (probe.samples != ref_samples || probe.calls != timed.calls()) {
      out.problem("service slice builds counted " + std::to_string(probe.samples) +
                  " samples and " + std::to_string(probe.calls) +
                  " model calls; direct builds " + std::to_string(ref_samples) +
                  " and " + std::to_string(timed.calls()));
    }
  }

  const double scan = median(scan_ms);
  const double busy = median(busy_ms);
  out.metric("anomaly.scan_ms", scan, "ms");
  out.metric("anomaly.classify_self_ms", scan - busy, "ms");
  out.metric("serve.build_overhead_ms", median(query_ms) - scan, "ms");
  out.metric("expr.algorithms_us", median(durations(log, "expr")) * 1e-3, "us");
  for (const Metric& m : sim_counts(probe)) {
    out.metric(m.name, m.value, m.unit);
  }
  out.metric("model.busy_ms_per_query", busy, "ms");
  out.metric("obs.trace_overhead_pct",
             trace_overhead_pct(plain_rounds, traced_rounds), "%");
  // Attributed: model and expr spans inside each query(); the rest is the
  // anomaly scan's own work and serve's build path.
  out.metric("obs.unattributed_pct", 100.0 * (1.0 - cov.covered_ns / cov.op_ns),
             "%");
  char line[200];
  std::snprintf(line, sizeof line,
                "traced segment: %zu cold queries, %zu set-ups; probes over %zu "
                "slices x 5 passes",
                cov.ops, setups.size(), kSimProbe);
  out.note(line);
}

// ------------------------------------------------------------- cold_measured

namespace {

constexpr int kRealHi = 300;
constexpr int kSetupSamples = 3;  ///< before the run; one per slice during it
constexpr int kRepetitions = 5;
constexpr std::size_t kFlushBytes = 64u << 20;
/// Enough distinct queries that a run never repeats one: each operation is
/// a fresh draw, so a run's percentiles rest on ~75 instances, not on the
/// few largest of a short cycle.
constexpr std::size_t kRealPerFamily = 64;
/// Traced operations the exact counts are taken over (always the first
/// queries of the seed).
constexpr std::size_t kCountOps = 32;

model::MeasuredMachineConfig measured_config() {
  model::MeasuredMachineConfig cfg;  // serial kernels, 64 MiB flush
  cfg.protocol.repetitions = kRepetitions;
  cfg.flush_bytes = kFlushBytes;
  return cfg;
}

/// Exact queries alternating aatb and chain4, sizes in [20, 300].
std::vector<serve::Query> measured_queries(std::uint64_t seed) {
  const auto aatb = latin_instances(seed, kRealPerFamily, 3, 20, kRealHi);
  const auto chain = latin_instances(seed ^ 0xC4A1, kRealPerFamily, 5, 20, kRealHi);
  std::vector<serve::Query> out;
  for (std::size_t i = 0; i < kRealPerFamily; ++i) {
    out.push_back({"aatb", aatb[i], 0, true});
    out.push_back({"chain4", chain[i], 0, true});
  }
  return out;
}

/// Index of the first FLOP-minimal algorithm and the algorithm count.
std::pair<std::size_t, std::size_t> flop_argmin(const serve::Query& q) {
  const auto algorithms = expr::make_family(q.family)->algorithms(q.dims);
  std::size_t best = 0;
  for (std::size_t i = 1; i < algorithms.size(); ++i) {
    if (algorithms[i].flops() < algorithms[best].flops()) {
      best = i;
    }
  }
  return {best, algorithms.size()};
}

struct MeasuredOp {
  double ns = 0.0;
  std::uint64_t calls = 0;
  double busy_ms = 0.0;
  double kernel_ms = 0.0;  ///< R x the step medians returned
};

/// Exact classifications for `seconds`, continuing from query `next`, on a
/// fresh service per call and per pass (the LRU would answer a repeated
/// exact query). With `timed` the service runs on it and the timed family
/// registry, `ops` gets the per-operation model accounting, and the loop
/// runs until `ops` holds kCountOps operations, which the exact counts need.
Loop measured_loop(model::MeasuredMachine& machine, TimedMachine* timed,
                   const std::vector<serve::Query>& queries,
                   const std::vector<std::pair<std::size_t, std::size_t>>& argmin,
                   double seconds, Outcome& out, std::size_t& next,
                   std::vector<MeasuredOp>* ops,
                   std::function<void()> between = {}) {
  const expr::FamilyRegistry registry = timed_registry();
  model::MachineModel& target =
      timed != nullptr ? static_cast<model::MachineModel&>(*timed) : machine;
  Meter meter(seconds, std::move(between));
  const auto more = [&] {
    return meter.running() ||
           (ops != nullptr && ops->size() < kCountOps && out.failed == 0);
  };
  std::unique_ptr<serve::SelectionService> service;
  for (; more(); ++next) {
    const std::size_t k = next % queries.size();
    if (service == nullptr || k == 0) {
      meter.pause();
      service.reset();
      service = std::make_unique<serve::SelectionService>(
          target, service_config(kRealHi), timed != nullptr ? &registry : nullptr);
      meter.resume();
    }
    const std::uint64_t calls0 = timed ? timed->calls() : 0;
    const std::uint64_t busy0 = timed ? timed->busy_ns() : 0;
    const double returned0 = timed ? timed->returned_s() : 0.0;
    ++out.attempted;
    serve::Recommendation rec;
    const std::uint64_t t0 = now_ns();
    try {
      rec = service->query(queries[k]);
    } catch (const std::exception& e) {
      out.count_failure(std::string("exact query threw: ") + e.what());
      continue;
    }
    const std::uint64_t t1 = now_ns();
    if (spans().enabled()) {
      spans().record("op", t0, t1);
    }
    if (rec.flop_minimal != argmin[k].first || rec.algorithm >= argmin[k].second ||
        rec.source != serve::Source::kMeasured) {
      out.count_failure("exact answer fails its check for " + query_line(queries[k]));
      continue;
    }
    meter.op(t0, t1, 1);
    if (ops != nullptr && timed != nullptr) {
      // An exact classification times every algorithm once.
      const std::uint64_t calls = timed->calls() - calls0;
      if (calls != argmin[k].second) {
        out.problem("exact query made " + std::to_string(calls) +
                    " model calls for " + std::to_string(argmin[k].second) +
                    " algorithms: " + query_line(queries[k]));
      }
      ops->push_back({static_cast<double>(t1 - t0), calls,
                      1e-6 * static_cast<double>(timed->busy_ns() - busy0),
                      1e3 * kRepetitions * (timed->returned_s() - returned0)});
    }
  }
  return meter.finish();
}

/// Model calls per query over the first kCountOps exact queries of a seed,
/// through a service over a TimedMachine on a SimulatedMachine: the count
/// belongs to the classification path, not to the machine, and the
/// simulated one answers in microseconds.
double calls_per_query(std::uint64_t seed) {
  const std::vector<serve::Query> queries = measured_queries(seed);
  model::SimulatedMachine sim;
  TimedMachine timed(sim);
  for (std::size_t i = 0; i < kCountOps; ++i) {
    serve::SelectionService service(timed, service_config(kRealHi));
    service.query(queries[i]);
  }
  return static_cast<double>(timed.calls()) / kCountOps;
}

/// GFLOP/s of one direct kernel call at the median-FLOP shape of `kind`
/// among the workload's algorithm steps (0 when the kind does not occur).
double kernel_gflops(const std::vector<serve::Query>& queries,
                     model::KernelKind kind, std::string& shape) {
  std::vector<model::KernelCall> seen;
  for (const serve::Query& q : queries) {
    for (const auto& alg : expr::make_family(q.family)->algorithms(q.dims)) {
      for (const auto& step : alg.steps()) {
        if (step.call.kind == kind) {
          seen.push_back(step.call);
        }
      }
    }
  }
  if (seen.empty()) {
    return 0.0;
  }
  std::nth_element(seen.begin(), seen.begin() + seen.size() / 2, seen.end(),
                   [](const auto& a, const auto& b) { return a.flops() < b.flops(); });
  const model::KernelCall call = seen[seen.size() / 2];
  shape = call.to_string();
  support::Rng rng(7);
  la::Matrix a, b, c;
  std::function<void()> run;
  switch (kind) {
    case model::KernelKind::kGemm:
      a = call.trans_a ? la::random_matrix(call.k, call.m, rng)
                       : la::random_matrix(call.m, call.k, rng);
      b = call.trans_b ? la::random_matrix(call.n, call.k, rng)
                       : la::random_matrix(call.k, call.n, rng);
      c = la::Matrix(call.m, call.n);
      run = [&] {
        blas::gemm(call.trans_a, call.trans_b, 1.0, a.view(), b.view(), 0.0, c.view());
      };
      break;
    case model::KernelKind::kSyrk:
      a = la::random_matrix(call.m, call.k, rng);
      c = la::Matrix(call.m, call.m);
      run = [&] { blas::syrk(1.0, a.view(), 0.0, c.view()); };
      break;
    case model::KernelKind::kSymm:
      a = la::random_symmetric(call.m, rng);
      b = la::random_matrix(call.m, call.n, rng);
      c = la::Matrix(call.m, call.n);
      run = [&] { blas::symm(1.0, a.view(), b.view(), 0.0, c.view()); };
      break;
    case model::KernelKind::kTriCopy:
      return 0.0;
  }
  std::vector<double> times;
  run();
  for (int rep = 0; rep < 9; ++rep) {
    const std::uint64_t t0 = now_ns();
    run();
    times.push_back(static_cast<double>(now_ns() - t0));
  }
  return static_cast<double>(call.flops()) / median(times);  // flop/ns = GFLOP/s
}

}  // namespace

std::vector<Metric> cold_measured_counts(std::uint64_t seed) {
  return {{"model.calls_per_query", calls_per_query(seed), "count"}};
}

void run_cold_measured(const Options& opt, Outcome& out) {
  const std::vector<serve::Query> queries = measured_queries(opt.seed);
  std::vector<std::pair<std::size_t, std::size_t>> argmin;
  for (const serve::Query& q : queries) {
    argmin.push_back(flop_argmin(q));
  }
  const perf::MachineInfo info = perf::query_machine_info();
  out.set("service_threads", 1.0);
  out.set("kernel_threads", 1.0);
  out.set("client_threads", 1.0);
  out.set("repetitions", static_cast<double>(kRepetitions));
  out.set("flush_bytes", static_cast<double>(kFlushBytes));
  out.set("flush_over_llc", static_cast<double>(kFlushBytes) /
                                static_cast<double>(info.llc_bytes));
  if (kFlushBytes <= info.llc_bytes) {
    out.note("flush_bytes is not larger than the LLC: the Sec. 3.4 flush does "
             "not evict on this host (recorded, not corrected)");
  }

  // Set-up: the measured machine (its flush buffer) and the service.
  std::vector<double> setups;
  const auto setup_sample = [&] {
    const ScaledTimer timer;
    auto fresh = std::make_unique<model::MeasuredMachine>(measured_config());
    serve::SelectionService service(*fresh, service_config(kRealHi));
    setups.push_back(timer.seconds());
    return fresh;
  };
  std::unique_ptr<model::MeasuredMachine> machine;
  for (int s = 0; s < kSetupSamples; ++s) {
    machine.reset();
    machine = setup_sample();
  }
  out.set("threads_in_process", static_cast<double>(process_threads()));

  if (!opt.trace) {
    std::size_t next = 0;
    const Loop loop = measured_loop(*machine, nullptr, queries, argmin,
                                    opt.seconds, out, next, nullptr,
                                    [&] { setup_sample(); });
    report_end_to_end(out, setups, loop);
    return;
  }

  TimedMachine timed(*machine);
  std::vector<MeasuredOp> ops;
  std::vector<Loop> plain_rounds, traced_rounds;
  std::size_t next_plain = 0, next_traced = 0;
  const double round_s = opt.seconds / (2 * kTraceRounds);
  for (int r = 0; r < kTraceRounds; ++r) {
    plain_rounds.push_back(measured_loop(*machine, nullptr, queries, argmin,
                                         round_s, out, next_plain, nullptr));
    spans().set_enabled(true);
    traced_rounds.push_back(measured_loop(*machine, &timed, queries, argmin,
                                          round_s, out, next_traced, &ops));
    spans().set_enabled(false);
  }
  const std::vector<Span> log = spans().take();
  const Coverage cov = coverage(log);

  // Per-operation accounting over the first kCountOps traced queries; the
  // loop checked each one's calls against its algorithm count.
  std::uint64_t calls = 0;
  double busy = 0.0, kernel = 0.0, op_ms = 0.0;
  for (std::size_t i = 0; i < kCountOps && i < ops.size(); ++i) {
    calls += ops[i].calls;
    busy += ops[i].busy_ms;
    kernel += ops[i].kernel_ms;
    op_ms += ops[i].ns * 1e-6;
  }
  const double n = static_cast<double>(std::min(kCountOps, ops.size()));
  if (ops.size() < kCountOps) {
    out.problem("the traced rounds held fewer than " +
                std::to_string(kCountOps) + " exact queries");
  }

  std::vector<double> flushes;
  {
    perf::CacheFlusher flusher(kFlushBytes);
    flusher.flush();
    for (int rep = 0; rep < 15; ++rep) {
      const std::uint64_t t0 = now_ns();
      flusher.flush();
      flushes.push_back(1e-6 * static_cast<double>(now_ns() - t0));
    }
  }
  const double flush_ms = median(flushes);
  const double flush_per_query = static_cast<double>(calls) / n * kRepetitions * flush_ms;
  const double peak = perf::estimate_peak_flops(nullptr) * 1e-9;
  std::string gemm_shape, syrk_shape, symm_shape;
  const double gemm = kernel_gflops(queries, model::KernelKind::kGemm, gemm_shape);
  const double syrk = kernel_gflops(queries, model::KernelKind::kSyrk, syrk_shape);
  const double symm = kernel_gflops(queries, model::KernelKind::kSymm, symm_shape);

  out.metric("model.calls_per_query", static_cast<double>(calls) / n, "count");
  out.metric("model.busy_ms_per_query", busy / n, "ms");
  out.metric("model.setup_ms_per_query", (busy - kernel) / n - flush_per_query, "ms");
  out.metric("blas.kernel_ms_per_query", kernel / n, "ms");
  out.metric("perf.flush_ms", flush_ms, "ms");
  out.metric("perf.flush_share", flush_per_query / (op_ms / n), "ratio");
  out.metric("perf.peak_gflops", peak, "GFLOP/s");
  out.metric("blas.gemm_gflops", gemm, "GFLOP/s");
  out.metric("blas.syrk_gflops", syrk, "GFLOP/s");
  out.metric("blas.symm_gflops", symm, "GFLOP/s");
  out.metric("expr.algorithms_us", median(durations(log, "expr")) * 1e-3, "us");
  out.metric("obs.trace_overhead_pct",
             trace_overhead_pct(plain_rounds, traced_rounds), "%");
  // Attributed: model (flush, operand set-up, kernels) and expr spans inside
  // each exact query; the rest is classification and serve.
  out.metric("obs.unattributed_pct", 100.0 * (1.0 - cov.covered_ns / cov.op_ns),
             "%");
  char line[320];
  std::snprintf(line, sizeof line,
                "perf.flush_share is computed: calls x R x perf.flush_ms / op "
                "time. Kernels against perf.peak_gflops %.1f: gemm %s %.0f%%, "
                "syrk %s %.0f%%, symm %s %.0f%%",
                peak, gemm_shape.c_str(), 100.0 * gemm / peak, syrk_shape.c_str(),
                100.0 * syrk / peak, symm_shape.c_str(), 100.0 * symm / peak);
  out.note(line);
  std::snprintf(line, sizeof line, "traced segment: %zu exact queries (%zu in "
                "the counts)", ops.size(), static_cast<std::size_t>(n));
  out.note(line);
}

}  // namespace perfbench
