#include "sim/simulator.hpp"

#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "net/client.hpp"
#include "net/routes.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/str.hpp"

namespace lamb::sim {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void count_source(PhaseStats& stats, serve::Source source) {
  switch (source) {
    case serve::Source::kCache:
      ++stats.cache;
      break;
    case serve::Source::kAtlas:
      ++stats.atlas;
      break;
    case serve::Source::kMeasured:
      ++stats.measured;
      break;
    case serve::Source::kFallback:
      ++stats.fallback;
      break;
  }
}

/// The shared replay driver: pacing, per-phase wall-clock and latency
/// accounting, and the source tally. `dispatch` answers one request and
/// reports each answer's source via count_source on `stats`.
SimReport run_replay(
    const std::vector<Request>& requests, const TraceSpec& spec,
    const ReplayConfig& cfg,
    const std::function<void(const Request&, PhaseStats&)>& dispatch) {
  SimReport report;
  report.phases.resize(spec.phases.size());
  std::vector<support::LatencyHistogram> latencies(spec.phases.size());
  for (std::size_t i = 0; i < spec.phases.size(); ++i) {
    report.phases[i].name = spec.phases[i].name;
    report.phases[i].virtual_seconds = spec.phases[i].duration;
  }

  std::vector<Clock::time_point> phase_start(spec.phases.size());
  std::vector<Clock::time_point> phase_end(spec.phases.size());
  std::vector<bool> phase_seen(spec.phases.size(), false);

  // Stage attribution: diff the tracer's per-stage totals at every phase
  // boundary, crediting each segment to the phase that ran it.
  using Totals = std::array<obs::StageTotals, obs::kStageCount>;
  Totals stage_base{};
  std::ptrdiff_t stage_phase = -1;
  const auto flush_stages = [&](std::ptrdiff_t next_phase) {
    const Totals now = obs::stage_totals();
    if (stage_phase >= 0) {
      std::vector<obs::StageTotals>& acc =
          report.phases[static_cast<std::size_t>(stage_phase)].stages;
      for (std::size_t s = 0; s < obs::kStageCount; ++s) {
        const obs::StageTotals& a = now[s];
        const obs::StageTotals& b = stage_base[s];
        acc[s].count += a.count - b.count;
        acc[s].seconds += a.seconds - b.seconds;
        acc[s].pmu.samples += a.pmu.samples - b.pmu.samples;
        acc[s].pmu.cycles += a.pmu.cycles - b.pmu.cycles;
        acc[s].pmu.instructions += a.pmu.instructions - b.pmu.instructions;
        acc[s].pmu.llc_loads += a.pmu.llc_loads - b.pmu.llc_loads;
        acc[s].pmu.llc_misses += a.pmu.llc_misses - b.pmu.llc_misses;
      }
    }
    stage_base = now;
    stage_phase = next_phase;
  };
  if (cfg.stage_breakdown) {
    obs::Tracer& tr = obs::tracer();
    if (!tr.enabled()) {
      obs::TracerConfig tc;
      tc.enabled = true;
      tc.sample_every = 0;  // counters tier only: histograms, no spans
      tr.configure(tc);
    }
    for (PhaseStats& phase : report.phases) {
      phase.stages.resize(obs::kStageCount);
    }
    stage_base = obs::stage_totals();
  }

  const Clock::time_point start = Clock::now();
  for (const Request& req : requests) {
    if (cfg.stage_breakdown &&
        static_cast<std::ptrdiff_t>(req.phase) != stage_phase) {
      flush_stages(static_cast<std::ptrdiff_t>(req.phase));
    }
    if (cfg.pace > 0.0) {
      const auto target =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(req.time / cfg.pace));
      std::this_thread::sleep_until(target);
    }
    PhaseStats& stats = report.phases[req.phase];
    const Clock::time_point before = Clock::now();
    if (!phase_seen[req.phase]) {
      phase_seen[req.phase] = true;
      phase_start[req.phase] = before;
    }
    dispatch(req, stats);
    const Clock::time_point after = Clock::now();
    phase_end[req.phase] = after;
    latencies[req.phase].record(seconds_between(before, after));
    ++stats.requests;
    stats.queries += req.queries.size();
    if (req.batch) {
      ++stats.batches;
    }
  }

  if (cfg.stage_breakdown) {
    flush_stages(-1);  // credit the tail segment to the last phase
  }

  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    PhaseStats& stats = report.phases[i];
    if (phase_seen[i]) {
      stats.wall_seconds = seconds_between(phase_start[i], phase_end[i]);
    }
    const support::LatencyHistogram::Snapshot snap = latencies[i].snapshot();
    // quantile() is NaN on an empty snapshot; a phase nothing landed in
    // reports 0 (tables and JSON want numbers, not NaN).
    stats.p50_us = snap.count == 0 ? 0.0 : snap.quantile(0.50) * 1e6;
    stats.p99_us = snap.count == 0 ? 0.0 : snap.quantile(0.99) * 1e6;
    stats.p999_us = snap.count == 0 ? 0.0 : snap.quantile(0.999) * 1e6;
  }
  return report;
}

}  // namespace

std::uint64_t SimReport::total_queries() const {
  std::uint64_t total = 0;
  for (const PhaseStats& p : phases) {
    total += p.queries;
  }
  return total;
}

double SimReport::total_wall_seconds() const {
  double total = 0.0;
  for (const PhaseStats& p : phases) {
    total += p.wall_seconds;
  }
  return total;
}

std::string SimReport::to_string() const {
  std::string out =
      "phase        requests  queries     qps    p50_us    p99_us   p999_us"
      "   cache   atlas  measured  fallback  shed  deadline  errors\n";
  for (const PhaseStats& p : phases) {
    const double qps =
        p.wall_seconds > 0.0 ? static_cast<double>(p.queries) / p.wall_seconds
                             : 0.0;
    out += support::strf(
        "%-12s %8llu %8llu %7.0f %9.1f %9.1f %9.1f %7llu %7llu %9llu %9llu "
        "%5llu %9llu %7llu\n",
        p.name.c_str(), static_cast<unsigned long long>(p.requests),
        static_cast<unsigned long long>(p.queries), qps, p.p50_us, p.p99_us,
        p.p999_us, static_cast<unsigned long long>(p.cache),
        static_cast<unsigned long long>(p.atlas),
        static_cast<unsigned long long>(p.measured),
        static_cast<unsigned long long>(p.fallback),
        static_cast<unsigned long long>(p.shed),
        static_cast<unsigned long long>(p.deadline),
        static_cast<unsigned long long>(p.errors));
  }
  for (const PhaseStats& p : phases) {
    if (p.stages.empty()) {
      continue;
    }
    out += support::strf("stage breakdown for %s:\n", p.name.c_str());
    out += obs::stage_table(p.stages);
  }
  return out;
}

std::string SimReport::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseStats& p = phases[i];
    const double qps =
        p.wall_seconds > 0.0 ? static_cast<double>(p.queries) / p.wall_seconds
                             : 0.0;
    out += support::strf(
        "%s\n  {\"section\": \"sim\", \"name\": \"%s\", "
        "\"requests\": %llu, \"queries\": %llu, \"batches\": %llu, "
        "\"qps\": %.1f, \"p50_us\": %.2f, \"p99_us\": %.2f, "
        "\"p999_us\": %.2f, \"cache\": %llu, \"atlas\": %llu, "
        "\"measured\": %llu, \"fallback\": %llu, \"shed\": %llu, "
        "\"deadline\": %llu, \"errors\": %llu, \"virtual_seconds\": %.3f, "
        "\"wall_seconds\": %.4f}",
        i == 0 ? "" : ",", p.name.c_str(),
        static_cast<unsigned long long>(p.requests),
        static_cast<unsigned long long>(p.queries),
        static_cast<unsigned long long>(p.batches), qps, p.p50_us, p.p99_us,
        p.p999_us, static_cast<unsigned long long>(p.cache),
        static_cast<unsigned long long>(p.atlas),
        static_cast<unsigned long long>(p.measured),
        static_cast<unsigned long long>(p.fallback),
        static_cast<unsigned long long>(p.shed),
        static_cast<unsigned long long>(p.deadline),
        static_cast<unsigned long long>(p.errors), p.virtual_seconds,
        p.wall_seconds);
    if (!p.stages.empty()) {
      out.pop_back();  // reopen the phase object for the stages member
      out += ", \"stages\": {";
      for (std::size_t s = 0; s < p.stages.size(); ++s) {
        const obs::StageTotals& st = p.stages[s];
        out += support::strf(
            "%s\"%s\": {\"count\": %llu, \"seconds\": %.6f",
            s == 0 ? "" : ", ",
            std::string(obs::to_string(static_cast<obs::Stage>(s))).c_str(),
            static_cast<unsigned long long>(st.count), st.seconds);
        if (st.pmu.cycles > 0) {
          out += support::strf(
              ", \"pmu_samples\": %llu, \"cycles\": %llu, "
              "\"instructions\": %llu",
              static_cast<unsigned long long>(st.pmu.samples),
              static_cast<unsigned long long>(st.pmu.cycles),
              static_cast<unsigned long long>(st.pmu.instructions));
        }
        out += "}";
      }
      out += "}}";
    }
  }
  out += "\n]\n";
  return out;
}

std::string SimReport::source_mix() const {
  std::string out;
  for (const PhaseStats& p : phases) {
    out += support::strf(
        "%s requests=%llu queries=%llu batches=%llu cache=%llu atlas=%llu "
        "measured=%llu fallback=%llu shed=%llu deadline=%llu errors=%llu\n",
        p.name.c_str(), static_cast<unsigned long long>(p.requests),
        static_cast<unsigned long long>(p.queries),
        static_cast<unsigned long long>(p.batches),
        static_cast<unsigned long long>(p.cache),
        static_cast<unsigned long long>(p.atlas),
        static_cast<unsigned long long>(p.measured),
        static_cast<unsigned long long>(p.fallback),
        static_cast<unsigned long long>(p.shed),
        static_cast<unsigned long long>(p.deadline),
        static_cast<unsigned long long>(p.errors));
  }
  return out;
}

std::string format_query_line(const serve::Query& q) {
  std::string line = q.family;
  for (int d : q.dims) {
    line += support::strf(",%d", d);
  }
  if (q.dim != 0) {
    line += support::strf(",dim=%d", q.dim);
  }
  if (q.exact) {
    line += ",exact";
  }
  return line;
}

SimReport replay_in_process(serve::SelectionService& service,
                            const std::vector<Request>& requests,
                            const TraceSpec& spec, const ReplayConfig& cfg) {
  if (cfg.warm) {
    for (const Request& req : requests) {
      service.warm(std::span<const serve::Query>(req.queries));
    }
  }
  return run_replay(
      requests, spec, cfg, [&](const Request& req, PhaseStats& stats) {
        if (req.batch) {
          const std::vector<serve::Recommendation> recs =
              service.query_batch(std::span<const serve::Query>(req.queries));
          for (const serve::Recommendation& rec : recs) {
            count_source(stats, rec.source);
          }
        } else {
          count_source(stats, service.query(req.queries.front()).source);
        }
      });
}

SimReport replay_http(const std::string& host, std::uint16_t port,
                      const std::vector<Request>& requests,
                      const TraceSpec& spec, const ReplayConfig& cfg) {
  const std::size_t n_conns = cfg.connections > 0 ? cfg.connections : 1;
  // Bounded connect and I/O: a wedged server fails the replay with a clear
  // NetError instead of hanging the whole run (atlas builds can hold a
  // cold /v1/query for a while, hence the generous read budget).
  net::ClientConfig client_cfg;
  client_cfg.connect_timeout_s = 10.0;
  client_cfg.io_timeout_s = 120.0;
  // A server mid-restart (or shedding accepts under fault injection) costs
  // a jittered retry, not a thrown replay.
  client_cfg.connect_retries = 3;
  std::vector<net::Client> clients;
  clients.reserve(n_conns);
  for (std::size_t i = 0; i < n_conns; ++i) {
    clients.emplace_back(host, port, client_cfg);
  }

  std::size_t next = 0;
  return run_replay(
      requests, spec, cfg, [&](const Request& req, PhaseStats& stats) {
        net::Client& client = clients[next];
        next = (next + 1) % clients.size();
        if (!client.connected()) {
          // The previous answer on this slot said Connection: close (an
          // admission 503 does), or a fault tore the connection down;
          // reconnect with the config's retries rather than failing the
          // replay.
          client = net::Client(host, port, client_cfg);
        }
        std::string body;
        for (const serve::Query& q : req.queries) {
          body += format_query_line(q);
          body += '\n';
        }
        net::ResponseParser::Parsed response;
        try {
          response = client.request(
              "POST", req.batch ? "/v1/batch" : "/v1/query", body);
        } catch (const net::NetError&) {
          // Connection reset mid-request (net.write injection, a reaped
          // idle socket racing the send): a hard error against the phase's
          // budget, and the slot reconnects on its next turn.
          ++stats.errors;
          client.close();
          return;
        }
        if (response.status != 200) {
          // Classified, not fatal: a degraded server says 503 (admission
          // shed) or 504 (query deadline), and a chaos trace budgets for
          // both (PhaseSpec::error_budget). Anything else is a hard error.
          // The request's queries stay unanswered — the source mix only
          // sums what actually came back.
          if (response.status == 503) {
            ++stats.shed;
          } else if (response.status == 504) {
            ++stats.deadline;
          } else {
            ++stats.errors;
          }
          return;
        }
        std::size_t answered = 0;
        std::size_t pos = 0;
        const std::string& lines = response.body;
        while (pos < lines.size()) {
          std::size_t eol = lines.find('\n', pos);
          if (eol == std::string::npos) {
            eol = lines.size();
          }
          if (eol > pos) {
            count_source(stats,
                         net::parse_recommendation(
                             std::string_view(lines).substr(pos, eol - pos))
                             .source);
            ++answered;
          }
          pos = eol + 1;
        }
        LAMB_CHECK(answered == req.queries.size(),
                   support::strf("sim: %zu answers for %zu queries", answered,
                                 req.queries.size()));
      });
}

}  // namespace lamb::sim
