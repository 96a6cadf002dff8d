// perfbench: one workload per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--describe D]
//   perfbench --workload NAME --seed N --counts 1
//
// Prints human-readable lines, then one JSON line with the configuration and
// host, then, last, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the workload's per-layer
// metrics (--trace 1). Exits 1 when any answer or count check failed.
// With --counts 1 it prints only the workload's exact counts, for the seed
// and the held-out seed, as {"seed": {...}, "held_out": {...}}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload warm_http|warm_batch|cold_sim|"
               "cold_measured --seed N (--seconds S --trace 0|1 [--describe D] "
               "| --counts 1)\n");
  return 2;
}

std::string json_metrics(const std::vector<Metric>& metrics, bool units) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    out += (out.size() > 1 ? ", " : "") + json_string(m.name) + ": ";
    out += units ? "{\"value\": " + json_number(m.value) +
                       ", \"unit\": " + json_string(m.unit) + "}"
                 : json_number(m.value);
  }
  return out + "}";
}

/// Prints the exact counts of the seed and the held-out seed.
int print_counts(const Options& opt) {
  std::vector<Metric> (*counts)(std::uint64_t) = nullptr;
  if (opt.workload == "warm_batch") {
    counts = warm_batch_counts;
  } else if (opt.workload == "cold_sim") {
    counts = cold_sim_counts;
  } else if (opt.workload == "cold_measured") {
    counts = cold_measured_counts;
  }
  const auto of = [&](std::uint64_t seed) {
    return json_metrics(counts ? counts(seed) : std::vector<Metric>{}, false);
  };
  std::printf("{\"seed\": %s, \"held_out\": %s}\n", of(opt.seed).c_str(),
              of(opt.seed ^ kHeldOut).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--counts") {
      opt.counts = std::strcmp(value, "0") != 0;
    } else if (key == "--describe") {
      opt.describe = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !(opt.seconds > 0.0 || opt.counts)) {
    return usage();
  }
  void (*run)(const Options&, Outcome&) = nullptr;
  if (opt.workload == "warm_http") {
    run = run_warm_http;
  } else if (opt.workload == "warm_batch") {
    run = run_warm_batch;
  } else if (opt.workload == "cold_sim") {
    run = run_cold_sim;
  } else if (opt.workload == "cold_measured") {
    run = run_cold_measured;
  } else {
    return usage();
  }

  // Each thread stays on one fixed CPU: on a virtual machine a migration
  // costs tens of microseconds that change from run to run with the
  // hypervisor. warm_http's server threads get a CPU of their own.
  const int cpu = client_cpu();
  const bool pinned = pin_thread(cpu);
  if (opt.counts) {
    return print_counts(opt);
  }
  Outcome out;
  out.set("client_cpu", pinned ? std::to_string(cpu) : "unpinned");
  record_host(opt, out);
  out.set("obs_tracer", lamb::obs::tracer().enabled() ? "on" : "off");
  try {
    run(opt, out);
  } catch (const std::exception& e) {
    out.problem(std::string("workload aborted: ") + e.what());
  }
  if (out.attempted == 0) {
    out.problem("no operation was attempted");
  }

  std::printf("# %s seed=%llu trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  for (const Metric& m : out.metrics) {
    std::printf("%-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-28s %16.6g ratio (%llu failed of %llu attempted)\n",
              "error_ratio",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& line : out.notes) {
    std::printf("note: %s\n", line.c_str());
  }
  for (const std::string& why : out.problems) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }

  std::string config = "{";
  for (const auto& [key, value] : out.config) {
    config += (config.size() > 1 ? ", " : "") + json_string(key) + ": " +
              json_string(value);
  }
  std::printf("%s}\n", config.c_str());

  const std::string metrics = json_metrics(out.metrics, true);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, out.attempted)),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return out.correct() ? 0 : 1;
}
