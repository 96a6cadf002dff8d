#include "net/routes.hpp"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <future>
#include <limits>
#include <utility>

#include "blas/microkernel.hpp"
#include "obs/pmu.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/str.hpp"

// Stamped by CMake from `git describe` at configure time; "unknown" when
// building outside a git checkout (tarballs).
#ifndef LAMB_GIT_DESCRIBE
#define LAMB_GIT_DESCRIBE "unknown"
#endif

namespace lamb::net {

namespace {

constexpr std::string_view kCsvType = "text/csv; charset=utf-8";
constexpr std::string_view kPrometheusType =
    "text/plain; version=0.0.4; charset=utf-8";

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) {
    s.remove_prefix(1);
  }
  while (!s.empty() && is_space(s.back())) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = s.find(sep, pos);
    out.push_back(s.substr(pos, next - pos));
    if (next == std::string_view::npos) {
      return out;
    }
    pos = next + 1;
  }
}

/// Whole-field integer parse; throws with the offending field quoted.
long long parse_int_field(std::string_view field) {
  field = trim(field);
  long long value = 0;
  const auto [end, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc() || end != field.data() + field.size() ||
      field.empty()) {
    throw std::invalid_argument("bad integer field '" + std::string(field) +
                                "'");
  }
  return value;
}

/// Same, bounded to int: a value like 4294967297 must be a 400, not a
/// silent wrap to 1 that answers for a different instance.
int parse_int32_field(std::string_view field) {
  const long long value = parse_int_field(field);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("integer field '" + std::string(trim(field)) +
                                "' out of range");
  }
  return static_cast<int>(value);
}

double parse_double_field(std::string_view field) {
  field = trim(field);
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc() || end != field.data() + field.size() ||
      field.empty()) {
    throw std::invalid_argument("bad number field '" + std::string(field) +
                                "'");
  }
  return value;
}

Response csv_response(std::string body) {
  Response r;
  r.content_type = std::string(kCsvType);
  r.body = std::move(body);
  return r;
}

}  // namespace

void parse_query_line_into(std::string_view line, serve::Query& q) {
  // Reuses q's string/vector capacity and walks the fields without a split
  // vector — the warm /v1/query path parses into a thread-local scratch
  // Query, and an LRU hit must not allocate.
  q.family.clear();
  q.dims.clear();
  q.dim = 0;
  q.exact = false;
  std::size_t pos = 0;
  bool first = true;
  for (;;) {
    const std::size_t next = line.find(',', pos);
    const std::string_view field =
        trim(line.substr(pos, next == std::string_view::npos
                                  ? std::string_view::npos
                                  : next - pos));
    if (first) {
      first = false;
      if (field.empty()) {
        throw std::invalid_argument("query line starts with an empty family");
      }
      q.family.assign(field);
    } else if (field == "exact") {
      q.exact = true;
    } else if (field.substr(0, 4) == "dim=") {
      q.dim = parse_int32_field(field.substr(4));
    } else {
      q.dims.push_back(parse_int32_field(field));
    }
    if (next == std::string_view::npos) {
      break;
    }
    pos = next + 1;
  }
  if (q.dims.empty()) {
    throw std::invalid_argument(
        "query line needs at least one dimension after the family");
  }
}

serve::Query parse_query_line(std::string_view line) {
  serve::Query q;
  parse_query_line_into(line, q);
  return q;
}

std::string format_recommendation(const serve::Recommendation& rec) {
  return support::strf(
      "%zu,%zu,%d,%.17g,%s", rec.algorithm, rec.flop_minimal,
      rec.flops_reliable ? 1 : 0, rec.time_score,
      std::string(serve::to_string(rec.source)).c_str());
}

serve::Recommendation parse_recommendation(std::string_view line) {
  const std::vector<std::string_view> fields = split(trim(line), ',');
  if (fields.size() != 5) {
    throw std::invalid_argument("answer line needs 5 fields, got " +
                                std::to_string(fields.size()));
  }
  serve::Recommendation rec;
  rec.algorithm = static_cast<std::size_t>(parse_int_field(fields[0]));
  rec.flop_minimal = static_cast<std::size_t>(parse_int_field(fields[1]));
  const long long reliable = parse_int_field(fields[2]);
  if (reliable != 0 && reliable != 1) {
    throw std::invalid_argument("flops_reliable must be 0 or 1");
  }
  rec.flops_reliable = reliable == 1;
  rec.time_score = parse_double_field(fields[3]);
  const std::string_view source = trim(fields[4]);
  if (source == "cache") {
    rec.source = serve::Source::kCache;
  } else if (source == "atlas") {
    rec.source = serve::Source::kAtlas;
  } else if (source == "measured") {
    rec.source = serve::Source::kMeasured;
  } else if (source == "fallback") {
    rec.source = serve::Source::kFallback;
  } else {
    throw std::invalid_argument("unknown source '" + std::string(source) +
                                "'");
  }
  return rec;
}

// --------------------------------------------------------- SelectionRoutes

SelectionRoutes::SelectionRoutes(serve::SelectionService& service,
                                 SelectionRoutesConfig config)
    : service_(service), config_(config) {
  const std::size_t workers =
      config_.worker_threads > 0 ? config_.worker_threads : 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SelectionRoutes::~SelectionRoutes() {
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    stop_ = true;
  }
  jobs_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void SelectionRoutes::defer(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.push_back(std::move(job));
  }
  jobs_cv_.notify_one();
}

void SelectionRoutes::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(jobs_mutex_);
      jobs_cv_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        return;  // stopping, queue drained
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();  // jobs catch their own exceptions and answer 500 themselves
  }
}

void SelectionRoutes::handle_query(const Request& request,
                                   Responder responder) {
  // Exactly one non-empty line; batches go to /v1/batch. Scanned in place
  // (no split vector): this prefix of the handler is the allocation-free
  // warm path.
  std::string_view line;
  {
    const std::string_view body = request.body;
    std::size_t pos = 0;
    for (;;) {
      const std::size_t nl = body.find('\n', pos);
      const std::string_view candidate = trim(
          body.substr(pos, nl == std::string_view::npos
                               ? std::string_view::npos
                               : nl - pos));
      if (!candidate.empty()) {
        if (!line.empty()) {
          responder.send(text_response(
              400, "expected one query line; POST batches to /v1/batch\n"));
          return;
        }
        line = candidate;
      }
      if (nl == std::string_view::npos) {
        break;
      }
      pos = nl + 1;
    }
  }
  if (line.empty()) {
    responder.send(text_response(400, "empty query body\n"));
    return;
  }

  // Warm fast path: parse into thread-local scratch (capacity reused
  // across requests) and probe the LRU without blocking or allocating. A
  // hit formats the answer on the stack and takes the zero-copy send — on
  // the owning loop thread that serializes straight into the connection's
  // output buffer, allocation-free end to end (net_test audits this).
  thread_local serve::Query scratch_query;
  serve::Recommendation cached;
  try {
    parse_query_line_into(line, scratch_query);
  } catch (const std::invalid_argument& e) {
    responder.send(text_response(400, std::string(e.what()) + "\n"));
    return;
  }
  if (service_.try_cached(scratch_query, cached)) {
    const std::string_view source = serve::to_string(cached.source);
    char buf[160];
    const int len = std::snprintf(
        buf, sizeof(buf), "%zu,%zu,%d,%.17g,%.*s\n", cached.algorithm,
        cached.flop_minimal, cached.flops_reliable ? 1 : 0,
        cached.time_score, static_cast<int>(source.size()), source.data());
    responder.send(200, kCsvType, std::string_view(buf, len > 0 ? len : 0));
    return;
  }

  std::shared_future<serve::Recommendation> answer;
  try {
    answer = service_.query_async(scratch_query).share();
  } catch (const support::CheckError& e) {
    // The service rejected the query shape (unknown family, arity, range).
    responder.send(text_response(400, std::string(e.what()) + "\n"));
    return;
  }

  const auto respond = [](const Responder& r,
                          const std::shared_future<serve::Recommendation>& f) {
    try {
      r.send(csv_response(format_recommendation(f.get()) + "\n"));
    } catch (const std::exception& e) {
      r.send(text_response(500, std::string("query failed: ") + e.what() +
                                    "\n"));
    }
  };
  // Warm answers (LRU hit or built slice) are already resolved: finish on
  // the event loop. A cold one rides the service's background builder; a
  // worker waits on it so the loop thread never does.
  if (answer.wait_for(std::chrono::seconds(0)) ==
      std::future_status::ready) {
    respond(responder, answer);
    return;
  }
  defer([this, respond, responder = std::move(responder),
         answer = std::move(answer), ctx = obs::current_context()] {
    // The worker finishes the request under its trace context, so any
    // spans recorded while waiting attach to the right tree.
    const obs::ContextGuard guard(ctx);
    if (config_.deadline_ms > 0.0 &&
        answer.wait_for(std::chrono::duration<double, std::milli>(
            config_.deadline_ms)) != std::future_status::ready) {
      // The build missed the request deadline. It keeps running and will
      // publish its slice for the next asker; this request gets a 504 now
      // instead of holding the connection open indefinitely.
      support::count(deadline_hits_);
      responder.send(text_response(
          504, support::strf("deadline exceeded (%.0f ms): slice still "
                             "building, retry\n",
                             config_.deadline_ms)));
      return;
    }
    respond(responder, answer);
  });
}

void SelectionRoutes::handle_batch(const Request& request,
                                   Responder responder) {
  // The request object dies when this returns; the job owns a copy of the
  // body and parses it off the event loop.
  defer([this, body = request.body, responder = std::move(responder),
         ctx = obs::current_context()] {
    const obs::ContextGuard guard(ctx);
    std::vector<serve::Query> queries;
    try {
      {
        // Body parsing is real per-query work at batch sizes; it gets its
        // own parse span (the HTTP-framing one closed at dispatch).
        const obs::SpanScope parse_span(obs::Stage::kParse);
        std::size_t line_number = 0;
        for (std::string_view line : split(body, '\n')) {
          ++line_number;
          line = trim(line);
          if (line.empty()) {
            continue;
          }
          try {
            queries.push_back(parse_query_line(line));
          } catch (const std::invalid_argument& e) {
            throw std::invalid_argument(
                support::strf("line %zu: ", line_number) + e.what());
          }
          if (queries.size() > config_.max_batch_queries) {
            responder.send(text_response(
                413, support::strf("batch exceeds %zu queries\n",
                                   config_.max_batch_queries)));
            return;
          }
        }
      }
      const std::vector<serve::Recommendation> recommendations =
          service_.query_batch(queries);
      std::string out;
      out.reserve(recommendations.size() * 48);
      for (const serve::Recommendation& rec : recommendations) {
        out += format_recommendation(rec);
        out += '\n';
      }
      responder.send(csv_response(std::move(out)));
    } catch (const std::invalid_argument& e) {
      responder.send(text_response(400, std::string(e.what()) + "\n"));
    } catch (const support::CheckError& e) {
      responder.send(text_response(400, std::string(e.what()) + "\n"));
    } catch (const std::exception& e) {
      responder.send(text_response(
          500, std::string("batch failed: ") + e.what() + "\n"));
    }
  });
}

void SelectionRoutes::handle_debug_trace(const Request&,
                                         Responder responder) {
  // Scanning every thread ring and rendering the JSON is O(threads x ring)
  // string work; a worker does it so the event loop never carries the
  // debug surface.
  defer([responder = std::move(responder)] {
    Response r;
    r.content_type = "application/json";
    r.body = obs::tracer().chrome_trace_json();
    responder.send(std::move(r));
  });
}

Response SelectionRoutes::debug_sample_rate_response(const Request& request) {
  obs::Tracer& tr = obs::tracer();
  try {
    const long long n = parse_int_field(trim(request.body));
    if (n < 0 || n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("sample rate out of range");
    }
    tr.set_sample_every(static_cast<std::uint32_t>(n));
  } catch (const std::invalid_argument& e) {
    return text_response(
        400, std::string(e.what()) +
                 " (body must be one integer: 0 = off, 1 = all, N = 1-in-N)\n");
  }
  Response r;
  r.content_type = "application/json";
  r.body = support::strf(
      "{\"enabled\":%s,\"sample_every\":%u,\"slow_threshold_ms\":%.3f}\n",
      tr.enabled() ? "true" : "false", tr.sample_every(),
      static_cast<double>(tr.slow_threshold_ns()) * 1e-6);
  return r;
}

Response SelectionRoutes::metrics_response() const {
  // A walk over the counter-set tables (k*Metrics, where each series is
  // defined) plus the derived gauges and the families labelled by reason,
  // slice, site or stage.
  support::MetricsWriter w(8192);
  const auto gauge = [&w](const char* name, const char* help, double value) {
    w.gauge(w.family(name, "gauge", help), value);
  };
  const auto stage_name = [](std::size_t i) {
    return obs::to_string(static_cast<obs::Stage>(i));
  };

  const serve::ServiceStats s = service_.stats();
  w.rows(serve::kServiceMetrics, s);
  const std::uint64_t lookups = s.cache_hits + s.cache_misses;
  gauge("lamb_selection_cache_hit_ratio",
        "Cache hits over lookups since start.",
        lookups == 0 ? 0.0
                     : static_cast<double>(s.cache_hits) /
                           static_cast<double>(lookups));
  gauge("lamb_selection_atlas_count", "Resident region atlases.",
        static_cast<double>(service_.atlas_count()));
  gauge("lamb_selection_cache_size", "Entries in the recommendation cache.",
        static_cast<double>(service_.cache_size()));
  std::vector<HttpStatsSnapshot> loops;
  HttpStatsSnapshot h;
  for (std::size_t i = 0; server_ != nullptr && i < server_->loops(); ++i) {
    loops.push_back(server_->loop_stats(i));
    h.merge(loops.back());
  }
  static constexpr const char* kShedReasons[] = {"admission", "build_queue",
                                                 "deadline"};
  const std::uint64_t shed[] = {h.requests_shed, s.builds_shed,
                                support::load_relaxed(deadline_hits_)};
  w.labelled("lamb_shed_total", "counter",
             "Requests shed instead of served, by reason: admission = 503 "
             "before parse, build_queue = fallback instead of a queued "
             "build, deadline = 504 past the query deadline.",
             "reason", 3, [](std::size_t i) { return kShedReasons[i]; },
             [&](std::size_t i) { return shed[i]; });
  const auto breakers = service_.breaker_states();
  if (!breakers.empty()) {
    w.labelled("lamb_breaker_state", "gauge",
               "Per-slice breaker state: 1 open, 0.5 half-open probe, 0 "
               "failing but closed. Healthy slices carry no series.",
               "slice", breakers.size(),
               [&](std::size_t i) { return breakers[i].slice; },
               [&](std::size_t i) { return breakers[i].state; });
  }
  const auto site = [](std::size_t i) {
    return static_cast<support::FaultSite>(i);
  };
  w.labelled("lamb_fault_injected_total", "counter",
             "Faults fired by the LAMB_FAULT registry, by site (all zero "
             "when injection is disarmed).",
             "site", support::kFaultSiteCount,
             [&](std::size_t i) { return support::fault_site_name(site(i)); },
             [&](std::size_t i) { return support::fault_injected(site(i)); });
  const std::chrono::duration<double> uptime =
      std::chrono::steady_clock::now() - start_;
  gauge("lamb_uptime_seconds", "Seconds since the serving process started.",
        uptime.count());
  w.gauge(w.family("lamb_build_info", "gauge",
                   "Constant 1, labeled with version and kernel tier."),
          support::strf("{version=\"%s\",kernel_tier=\"%s\"}",
                        LAMB_GIT_DESCRIBE, blas::active_microkernel().name),
          1.0);

  if (drift_ != nullptr) {
    w.rows(serve::kDriftMetrics, drift_->stats());
  }
  if (server_ != nullptr) {
    w.rows(kHttpMetrics, h);
    w.histogram(w.family("lamb_http_request_duration_seconds", "histogram",
                         "Dispatch-to-response-queued seconds."),
                "", h.request_latency);
    gauge("lamb_net_loops", "Configured event loops (reactors).",
          static_cast<double>(loops.size()));
    w.rows(kLoopMetrics, loops, "loop",
           [](std::size_t i) { return std::to_string(i); });
  }

  obs::Tracer& tr = obs::tracer();
  const auto stages = tr.stage_snapshots();
  w.labelled("lamb_stage_seconds", "histogram",
             "Per-stage serving latency, seconds (always-on tier; empty "
             "until tracing is enabled).",
             "stage", obs::kStageCount, stage_name,
             [&](std::size_t i) { return stages[i]; });
  w.rows(obs::kTracerMetrics, tr.counters());
  gauge("lamb_trace_enabled", "1 when tracing is enabled.",
        tr.enabled() ? 1.0 : 0.0);
  gauge("lamb_trace_sample_every",
        "Detailed capture rate: 1-in-N requests (0 = off).",
        static_cast<double>(tr.sample_every()));
  // The availability gauge always appears; every other lamb_pmu_* family
  // only while counters are live (the lint pins that).
  const bool pmu = obs::pmu_available();
  gauge("lamb_pmu_available",
        "1 when hardware performance counters are live (perf_event); 0 when "
        "disabled or unavailable.",
        pmu ? 1.0 : 0.0);
  if (pmu) {
    w.rows(obs::kPmuMetrics, tr.pmu_stage_totals(), "stage", stage_name);
    const auto ipc = tr.pmu_ipc_snapshots();
    w.labelled("lamb_pmu_ipc", "histogram",
               "Distribution of per-span IPC, by stage (bucket bounds are "
               "the shared 1-2-5 grid, read unitless).",
               "stage", obs::kStageCount, stage_name,
               [&](std::size_t i) { return ipc[i]; });
  }
  return Response{200, std::string(kPrometheusType), w.take()};
}

Router SelectionRoutes::router() {
  Router router;
  router.get("/healthz",
             [](const Request&) { return text_response(200, "ok\n"); });
  router.get("/metrics",
             [this](const Request&) { return metrics_response(); });
  router.handle("POST", "/v1/query",
                [this](const Request& request, Responder responder) {
                  handle_query(request, std::move(responder));
                });
  router.handle("POST", "/v1/batch",
                [this](const Request& request, Responder responder) {
                  handle_batch(request, std::move(responder));
                });
  router.handle("GET", "/debug/trace",
                [this](const Request& request, Responder responder) {
                  handle_debug_trace(request, std::move(responder));
                });
  router.get("/debug/slow", [](const Request&) {
    Response r;
    r.content_type = "application/json";
    r.body = obs::tracer().slow_json();
    return r;
  });
  router.post("/debug/sample_rate", [this](const Request& request) {
    return debug_sample_rate_response(request);
  });
  return router;
}

}  // namespace lamb::net
