// The warm workloads: answers from built atlas slices.
//
//   warm_http   one client thread, one keep-alive connection, one request in
//               flight: POST /v1/query against an in-process net::Server
//               (one loop) over a SimulatedMachine service whose LRU holds
//               every key. net does almost all the work.
//   warm_batch  in-process query_batch calls of a fixed size spread over
//               every built slice: the serve read path and the atlas lookup,
//               no sockets.
//
// Set-up, timed for both, is what a user pays before the first answer:
// machine, service, building the hot slices, and for warm_http starting the
// server, connecting and filling the LRU.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <memory>
#include <set>
#include <thread>

#include "bench.hpp"
#include "model/simulated_machine.hpp"
#include "net/client.hpp"
#include "net/routes.hpp"
#include "net/server.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace lamb;

namespace {

constexpr int kHi = 1200;
constexpr std::size_t kHotSlices = 32;
constexpr std::size_t kHttpKeys = 256;
constexpr std::size_t kBatchSize = 1024;
constexpr std::size_t kBatches = 16;
constexpr int kSetupSamples = 3;  ///< before the run; one per slice during it
constexpr double kWarmupS = 0.3;

/// Machine and service with the hot slices built.
struct WarmService {
  std::unique_ptr<model::SimulatedMachine> machine;
  std::unique_ptr<serve::SelectionService> service;

  explicit WarmService(const std::vector<serve::Query>& hot)
      : machine(std::make_unique<model::SimulatedMachine>()),
        service(std::make_unique<serve::SelectionService>(*machine,
                                                          service_config(kHi))) {
    service->warm(hot);
  }
};

/// A net::Server running on its own thread; stops and joins on destruction.
class RunningServer {
 public:
  RunningServer(net::Router router, Outcome& out) : out_(out) {
    net::ServerConfig cfg;
    cfg.loops = 1;
    server_ = std::make_unique<net::Server>(std::move(router), cfg);
    thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~RunningServer() {
    server_->stop();
    thread_.join();
    if (!error_.empty()) {
      out_.problem("server: " + error_);
    }
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  net::Server& server() { return *server_; }

 private:
  Outcome& out_;
  std::unique_ptr<net::Server> server_;
  std::string error_;
  std::thread thread_;
};

/// Expected answer of every query, read through atlas_for() + lookup().
std::vector<serve::Recommendation> expected_answers(
    serve::SelectionService& service, const std::vector<serve::Query>& queries,
    Outcome& out) {
  std::vector<serve::Recommendation> expected;
  expected.reserve(queries.size());
  for (const serve::Query& q : queries) {
    const anomaly::RegionAtlas* atlas = service.atlas_for(q);
    if (atlas == nullptr) {
      out.problem("no built slice for " + query_line(q));
      expected.emplace_back();
      continue;
    }
    expected.push_back(
        from_interval(atlas->lookup(q.dims[static_cast<std::size_t>(q.dim)])));
  }
  return expected;
}

/// Keys over the hot slices, `per_slice` random coordinates each, in random
/// slice order (slice-major runs, the shape batch callers send).
std::vector<serve::Query> keys_over(const std::vector<serve::Query>& hot,
                                    std::size_t per_slice, support::Rng& rng) {
  std::vector<std::size_t> order(hot.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }
  const anomaly::AtlasConfig atlas = atlas_config(kHi);
  std::vector<serve::Query> keys;
  for (const std::size_t s : order) {
    for (std::size_t j = 0; j < per_slice; ++j) {
      serve::Query q = hot[s];
      q.dims[static_cast<std::size_t>(q.dim)] = rng.uniform_int(atlas.lo, atlas.hi);
      keys.push_back(std::move(q));
    }
  }
  return keys;
}

// ----------------------------------------------------------------- warm_http

struct HttpKeys {
  std::vector<serve::Query> queries;
  std::vector<std::string> lines;
  std::vector<serve::Recommendation> expected;
};

/// Everything warm_http's user starts: service with the hot slices built,
/// routes, a running server, a connected client, every key in the LRU.
/// Members are destroyed client first, service last.
struct HttpStack {
  std::unique_ptr<WarmService> warm;
  std::unique_ptr<net::SelectionRoutes> routes;
  std::unique_ptr<RunningServer> server;
  std::unique_ptr<net::Client> client;
};

/// One closed-loop request; false when it failed (counted in `out`).
bool http_request(net::Client& client, const HttpKeys& keys, std::size_t k,
                  Outcome& out, std::uint64_t& cache_answers) {
  try {
    const auto resp = client.request("POST", "/v1/query", keys.lines[k]);
    if (resp.status != 200) {
      out.count_failure("HTTP " + std::to_string(resp.status) + " for " +
                        keys.lines[k]);
      return false;
    }
    const serve::Recommendation rec = net::parse_recommendation(resp.body);
    if (!(rec == keys.expected[k]) ||
        (rec.source != serve::Source::kCache &&
         rec.source != serve::Source::kAtlas)) {
      out.count_failure("wrong answer '" + resp.body + "' for " + keys.lines[k]);
      return false;
    }
    cache_answers += rec.source == serve::Source::kCache ? 1 : 0;
    return true;
  } catch (const std::exception& e) {
    out.count_failure(std::string("request failed: ") + e.what());
    return false;
  }
}

/// Closed loop over the keys for `seconds` through the stack's client;
/// records "op" spans when the log is enabled. `between` may replace the
/// stack.
Loop http_loop(const std::unique_ptr<HttpStack>& stack, const HttpKeys& keys,
               double seconds, Outcome& out, std::uint64_t& cache_answers,
               bool count, std::function<void()> between = {}) {
  Meter meter(seconds, std::move(between));
  for (std::size_t k = 0; meter.running();
       k = k + 1 == keys.lines.size() ? 0 : k + 1) {
    const std::uint64_t t0 = now_ns();
    const bool ok = http_request(*stack->client, keys, k, out, cache_answers);
    const std::uint64_t t1 = now_ns();
    out.attempted += count ? 1 : 0;
    if (!ok) {
      break;
    }
    if (spans().enabled()) {
      spans().record("op", t0, t1);
    }
    meter.op(t0, t1, 1);
  }
  return meter.finish();
}

/// The bytes net::Client puts on the wire for each key: one connection to
/// a plain listening socket, every request sent, the stream read back and
/// split at each request line.
std::vector<std::string> capture_requests(const HttpKeys& keys, Outcome& out) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    out.problem("capture: cannot listen on loopback");
    if (listener >= 0) {
      ::close(listener);
    }
    return {};
  }
  std::string stream;
  {
    net::Client client("127.0.0.1", ntohs(addr.sin_port));
    const int fd = ::accept(listener, nullptr, nullptr);
    std::thread reader([fd, &stream] {
      char buf[1 << 14];
      for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) > 0;) {
        stream.append(buf, static_cast<std::size_t>(n));
      }
    });
    for (const std::string& line : keys.lines) {
      client.send("POST", "/v1/query", line);
    }
    client.close();
    reader.join();
    ::close(fd);
  }
  ::close(listener);
  std::vector<std::string> requests;
  const std::string_view start = "POST /v1/query ";
  for (std::size_t at = stream.find(start); at != std::string::npos;) {
    const std::size_t next = stream.find(start, at + 1);
    requests.push_back(stream.substr(at, next == std::string::npos ? next : next - at));
    at = next;
  }
  if (requests.size() != keys.lines.size()) {
    out.problem("capture: " + std::to_string(requests.size()) + " requests for " +
                std::to_string(keys.lines.size()) + " keys");
  }
  return requests;
}

/// RequestParser + parse_query_line per captured request, ns (median over
/// passes of the mean over the keys); checks every parse on the way.
double parse_ns(const HttpKeys& keys, const std::vector<std::string>& requests,
                Outcome& out) {
  net::RequestParser parser(1u << 20);
  serve::Query scratch;
  std::vector<double> passes;
  for (int pass = 0; pass < 200 && !requests.empty(); ++pass) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t k = 0; k < requests.size(); ++k) {
      if (parser.feed(requests[k]) != net::RequestParser::State::kComplete) {
        out.problem("parse: captured request " + std::to_string(k) + " incomplete");
        return 0.0;
      }
      net::parse_query_line_into(parser.request().body, scratch);
      if (pass == 0 && !(scratch == keys.queries[k])) {
        out.problem("parse: request " + std::to_string(k) + " parsed to another query");
      }
      parser.advance();
    }
    passes.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(requests.size()));
  }
  return median(passes);
}

/// try_cached per key, ns (median over passes of the mean over the keys).
double lru_hit_ns(serve::SelectionService& service, const HttpKeys& keys,
                  Outcome& out) {
  std::vector<double> passes;
  serve::Recommendation rec;
  for (int pass = 0; pass < 400; ++pass) {
    bool all_hit = true;
    const std::uint64_t t0 = now_ns();
    for (const serve::Query& q : keys.queries) {
      all_hit &= service.try_cached(q, rec);
    }
    passes.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(keys.queries.size()));
    if (!all_hit) {
      out.problem("try_cached missed a primed key");
      break;
    }
  }
  return median(passes);
}

/// Builds the stack on the calling thread (the client's CPU); the routes
/// worker and the server loop start on the server's CPU. With `traced` the
/// server's router records a "serve" span around each dispatch into
/// SelectionRoutes while the span log is enabled.
std::unique_ptr<HttpStack> start_stack(const std::vector<serve::Query>& hot,
                                       HttpKeys& keys, bool traced,
                                       Outcome& out) {
  net::SelectionRoutesConfig routes_cfg;
  routes_cfg.worker_threads = 1;
  auto stack_ptr = std::make_unique<HttpStack>();
  HttpStack& stack = *stack_ptr;
  stack.warm = std::make_unique<WarmService>(hot);
  pin_thread(server_cpu());
  stack.routes = std::make_unique<net::SelectionRoutes>(*stack.warm->service,
                                                        routes_cfg);
  net::Router router = stack.routes->router();
  if (traced) {
    net::Router outer;
    outer.handle("POST", "/v1/query",
                 [inner = std::move(router)](const net::Request& request,
                                             net::Responder responder) {
                   const SpanScope span("serve");
                   inner.dispatch(request, std::move(responder));
                 });
    router = std::move(outer);
  }
  stack.server = std::make_unique<RunningServer>(std::move(router), out);
  pin_thread(client_cpu());
  stack.client = std::make_unique<net::Client>("127.0.0.1",
                                               stack.server->server().port());
  if (keys.expected.empty()) {
    keys.expected = expected_answers(*stack.warm->service, keys.queries, out);
  }
  std::uint64_t cached = 0;
  for (std::size_t k = 0; k < keys.lines.size(); ++k) {
    http_request(*stack.client, keys, k, out, cached);  // fills the LRU
  }
  return stack_ptr;
}

}  // namespace

void run_warm_http(const Options& opt, Outcome& out) {
  support::Rng rng(opt.seed);
  const std::vector<serve::Query> hot =
      slice_queries(opt.seed, kHotSlices, atlas_config(kHi));
  HttpKeys keys;
  keys.queries = keys_over(hot, kHttpKeys / kHotSlices, rng);
  for (const serve::Query& q : keys.queries) {
    keys.lines.push_back(query_line(q));
  }

  out.set("service_threads", 1.0);
  out.set("routes_worker_threads", 1.0);
  out.set("server_loops", 1.0);
  out.set("client_threads", 1.0);
  out.set("server_cpu", static_cast<double>(server_cpu()));
  out.set("hot_slices", static_cast<double>(kHotSlices));
  out.set("keys", static_cast<double>(kHttpKeys));

  // Set-up samples: a few before the run, the rest between its slices. The
  // newest stack serves, and the one it replaces is gone first, so the
  // process never runs two servers.
  std::vector<double> setups;
  const auto setup_sample = [&] {
    const ScaledTimer timer;
    std::unique_ptr<HttpStack> fresh = start_stack(hot, keys, opt.trace, out);
    setups.push_back(timer.seconds());
    return fresh;
  };
  std::unique_ptr<HttpStack> stack;
  for (int s = 0; s < kSetupSamples; ++s) {
    stack.reset();
    stack = setup_sample();
  }
  out.set("threads_in_process", static_cast<double>(process_threads()));

  std::uint64_t cache_answers = 0;
  http_loop(stack, keys, kWarmupS, out, cache_answers, false);
  if (!opt.trace) {
    const Loop loop = http_loop(stack, keys, opt.seconds, out, cache_answers, true,
                                [&] {
                                  stack.reset();
                                  stack = setup_sample();
                                });
    report_end_to_end(out, setups, loop);
    return;
  }

  // Traced run: rounds alternate between the span log off and on, on the
  // same server.
  const net::HttpStatsSnapshot before = stack->server->server().stats();
  cache_answers = 0;
  std::uint64_t traced_cache = 0;
  std::vector<Loop> plain_rounds, traced_rounds;
  const double round_s = opt.seconds / (2 * kTraceRounds);
  for (int r = 0; r < kTraceRounds; ++r) {
    plain_rounds.push_back(
        http_loop(stack, keys, round_s, out, cache_answers, true));
    spans().set_enabled(true);
    traced_rounds.push_back(
        http_loop(stack, keys, round_s, out, traced_cache, true));
    spans().set_enabled(false);
  }
  const net::HttpStatsSnapshot after = stack->server->server().stats();
  const Loop plain = combined(plain_rounds);
  const Loop traced = combined(traced_rounds);
  const double requests = static_cast<double>(plain.op_ns.size() + traced.op_ns.size());
  if (static_cast<double>(after.requests_total - before.requests_total) != requests) {
    out.problem("server counted another number of requests than were sent");
  }
  const std::vector<Span> log = spans().take();

  const double lru_ns = lru_hit_ns(*stack->warm->service, keys, out);
  const double parse = parse_ns(keys, capture_requests(keys, out), out);
  const double http_p50_us = quantile(plain.op_ns, 0.5) * 1e-3;
  const double serve_p50_ns = median(durations(log, "serve"));
  const Coverage cov = coverage(log);

  out.metric("net.self_us", http_p50_us - lru_ns * 1e-3, "us");
  out.metric("net.parse_ns", parse, "ns");
  out.metric("net.wakeups_per_request",
             static_cast<double>(after.epoll_wakeups - before.epoll_wakeups) /
                 requests,
             "count");
  out.metric("net.bytes_per_request",
             static_cast<double>((after.bytes_read - before.bytes_read) +
                                 (after.bytes_written - before.bytes_written)) /
                 requests,
             "bytes");
  out.metric("serve.lru_hit_ns", lru_ns, "ns");
  out.metric("serve.cache_hit_ratio",
             static_cast<double>(cache_answers) /
                 static_cast<double>(std::max<std::uint64_t>(1, plain.answers)),
             "ratio");
  out.metric("obs.trace_overhead_pct",
             trace_overhead_pct(plain_rounds, traced_rounds), "%");
  // Attributed: the server-side route span (route + LRU + answer format)
  // and the parse probe; the rest is reactor, syscalls and loopback.
  out.metric("obs.unattributed_pct",
             100.0 * (1.0 - (cov.covered_ns + parse * static_cast<double>(cov.ops)) /
                                cov.op_ns),
             "%");
  char line[200];
  std::snprintf(line, sizeof line,
                "http p50 %.2f us over %zu untraced requests; serve span p50 "
                "%.0f ns over %zu traced requests",
                http_p50_us, plain.op_ns.size(), serve_p50_ns, cov.ops);
  out.note(line);
}

// ---------------------------------------------------------------- warm_batch

namespace {

/// Distinct atlas slices in a batch: what query_batch groups by.
std::size_t slices_in(const std::vector<serve::Query>& batch) {
  std::set<std::pair<std::string, std::vector<int>>> slices;
  for (serve::Query q : batch) {
    q.dims[static_cast<std::size_t>(q.dim)] = 0;
    q.dims.push_back(q.dim);
    slices.emplace(q.family, q.dims);
  }
  return slices.size();
}

std::vector<std::vector<serve::Query>> make_batches(std::uint64_t seed) {
  const std::vector<serve::Query> hot =
      slice_queries(seed, kHotSlices, atlas_config(kHi));
  support::Rng rng(seed ^ 0xBA7C);
  std::vector<std::vector<serve::Query>> batches;
  for (std::size_t b = 0; b < kBatches; ++b) {
    batches.push_back(keys_over(hot, kBatchSize / kHotSlices, rng));
  }
  return batches;
}

/// Groups per batch over every batch of a seed: an exact count derived from
/// the inputs (the distinct slices query_batch groups by), not read from the
/// service.
double groups_per_batch(std::uint64_t seed) {
  std::size_t groups = 0;
  for (const auto& batch : make_batches(seed)) {
    groups += slices_in(batch);
  }
  return static_cast<double>(groups) / static_cast<double>(kBatches);
}

Loop batch_loop(serve::SelectionService& service,
                const std::vector<std::vector<serve::Query>>& batches,
                const std::vector<std::vector<serve::Recommendation>>& expected,
                double seconds, Outcome& out, bool count,
                std::function<void()> between = {}) {
  Meter meter(seconds, std::move(between));
  for (std::size_t b = 0; meter.running(); b = b + 1 == batches.size() ? 0 : b + 1) {
    out.attempted += count ? 1 : 0;
    std::vector<serve::Recommendation> answers;
    const std::uint64_t t0 = now_ns();
    try {
      answers = service.query_batch(batches[b]);
    } catch (const std::exception& e) {
      out.count_failure(std::string("query_batch threw: ") + e.what());
      break;
    }
    const std::uint64_t t1 = now_ns();
    if (spans().enabled()) {
      spans().record("op", t0, t1);
    }
    bool ok = answers.size() == expected[b].size();
    for (std::size_t i = 0; ok && i < answers.size(); ++i) {
      ok = answers[i] == expected[b][i] && answers[i].source == serve::Source::kAtlas;
    }
    if (!ok) {
      out.count_failure("query_batch answer differs from atlas_for() lookup");
      break;
    }
    meter.op(t0, t1, answers.size());
  }
  return meter.finish();
}

}  // namespace

std::vector<Metric> warm_batch_counts(std::uint64_t seed) {
  return {{"serve.groups_per_batch", groups_per_batch(seed), "count"}};
}

void run_warm_batch(const Options& opt, Outcome& out) {
  const std::vector<serve::Query> hot =
      slice_queries(opt.seed, kHotSlices, atlas_config(kHi));
  const auto batches = make_batches(opt.seed);
  out.set("service_threads", 1.0);
  out.set("client_threads", 1.0);
  out.set("hot_slices", static_cast<double>(kHotSlices));
  out.set("batch_size", static_cast<double>(kBatchSize));

  std::vector<double> setups;
  const auto setup_sample = [&] {
    const ScaledTimer timer;
    auto fresh = std::make_unique<WarmService>(hot);
    setups.push_back(timer.seconds());
    return fresh;
  };
  std::unique_ptr<WarmService> warm;
  for (int s = 0; s < kSetupSamples; ++s) {
    warm.reset();
    warm = setup_sample();
  }
  out.set("threads_in_process", static_cast<double>(process_threads()));
  std::vector<std::vector<serve::Recommendation>> expected;
  for (const auto& batch : batches) {
    expected.push_back(expected_answers(*warm->service, batch, out));
  }

  batch_loop(*warm->service, batches, expected, kWarmupS, out, false);
  if (!opt.trace) {
    const Loop loop = batch_loop(*warm->service, batches, expected, opt.seconds,
                                 out, true, [&] { setup_sample(); });
    report_end_to_end(out, setups, loop);
    return;
  }

  std::vector<Loop> plain_rounds, traced_rounds;
  const double round_s = opt.seconds / (2 * kTraceRounds);
  for (int r = 0; r < kTraceRounds; ++r) {
    plain_rounds.push_back(
        batch_loop(*warm->service, batches, expected, round_s, out, true));
    spans().set_enabled(true);
    traced_rounds.push_back(
        batch_loop(*warm->service, batches, expected, round_s, out, true));
    spans().set_enabled(false);
  }
  spans().take();
  const Loop plain = combined(plain_rounds);

  // RegionAtlas::lookup on the slices atlas_for() hands out, per query.
  std::vector<const anomaly::RegionAtlas*> atlases;
  for (const serve::Query& q : batches[0]) {
    atlases.push_back(warm->service->atlas_for(q));
  }
  std::vector<double> passes;
  std::size_t sink = 0;
  for (int pass = 0; pass < 2000; ++pass) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < atlases.size(); ++i) {
      const serve::Query& q = batches[0][i];
      sink += atlases[i]->lookup(q.dims[static_cast<std::size_t>(q.dim)]).recommended;
    }
    passes.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(atlases.size()));
  }
  const double lookup_ns = median(passes);
  const double batch_ns_per_query =
      quantile(plain.op_ns, 0.5) / static_cast<double>(kBatchSize);

  out.metric("anomaly.lookup_ns", lookup_ns, "ns");
  out.metric("serve.self_ns_per_query", batch_ns_per_query - lookup_ns, "ns");
  for (const Metric& m : warm_batch_counts(opt.seed)) {
    out.metric(m.name, m.value, m.unit);
  }
  out.metric("obs.trace_overhead_pct",
             trace_overhead_pct(plain_rounds, traced_rounds), "%");
  // Attributed: the lookups, measured directly; the rest is serve's
  // grouping and answer copying.
  out.metric("obs.unattributed_pct", 100.0 * (1.0 - lookup_ns / batch_ns_per_query),
             "%");
  char line[160];
  std::snprintf(line, sizeof line,
                "batch p50 %.2f us (%zu calls, %zu queries each); lookup "
                "checksum %zu",
                quantile(plain.op_ns, 0.5) * 1e-3, plain.op_ns.size(),
                kBatchSize, sink);
  out.note(line);
}

}  // namespace perfbench
