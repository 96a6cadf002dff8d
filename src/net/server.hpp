// lamb::net::Server — a dependency-free Linux epoll HTTP/1.1 front-end
// spread over N independent event loops.
//
// The Server is a thin coordinator: it binds the listener, builds N
// Reactors (net/reactor.hpp — epoll loop + eventfd completion hub +
// per-connection state machine), runs one per thread, and merges their
// per-loop statistics at scrape time. Each connection is owned by exactly
// one reactor for its whole life: parsing, dispatch, response ordering and
// the write path all happen on the owning loop's thread, so the request
// hot path takes no cross-loop locks (and, warm, no allocations — see the
// inline completion path in net/reactor.cpp).
//
// One accept path: reactor 0 owns the only listener. With loops > 1 it
// deals accepted fds round-robin to every loop (itself included) through
// their eventfd hubs, so N sequential connections land one per loop —
// deterministic placement, which a few long-lived keep-alive clients need
// to keep every loop busy (a kernel 4-tuple hash can leave loops idle).
//
// Handlers never block a loop: a Router handler receives the parsed
// request plus a Responder ticket it may complete from any thread. A
// handler that answers synchronously on the owning loop thread takes the
// inline path — the response serializes straight into the connection's
// output buffer; completions from other threads post to the owning
// reactor's hub, which wakes that loop through its eventfd and splices
// responses in request order, so pipelined clients always read answers in
// the order they asked. A Responder dropped without send() answers 500, so
// a lost ticket can never wedge a connection.
//
// Shutdown is graceful by default: stop() (async-signal-safe — an atomic
// store plus one eventfd write per loop, so a SIGTERM handler may call it;
// idempotent under concurrent callers) closes the listener, lets
// in-flight requests finish and flush on their owning loops, then run()
// joins the loop threads in order and returns.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "support/histogram.hpp"
#include "support/metrics.hpp"

namespace lamb::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port (see Server::port())
  int backlog = 128;
  std::size_t max_request_bytes = 1u << 20;  ///< header block + body, framed
  /// Global connection bound, split evenly across loops (each reactor
  /// enforces ceil(max_connections / loops) locally, so the hot path never
  /// consults another loop's count).
  std::size_t max_connections = 1024;
  /// Pipelined requests in flight per connection before the server stops
  /// reading from it (resumes as responses flush).
  std::size_t max_pipeline = 128;
  /// Completed-but-unwritten response bytes per connection (output buffer
  /// plus parked out-of-order completions) before the connection is deemed
  /// abusive (pipelining heavily, never reading) and closed.
  std::size_t max_buffered_response_bytes = 32u << 20;
  /// When > 0, shrink each connection's kernel send buffer (SO_SNDBUF) —
  /// tests use this to force the partial-write path deterministically.
  int so_sndbuf = 0;
  /// Event loops (reactors). 0 means "default": one loop, unless a test
  /// harness overrides it (tests that depend on single-loop semantics pin
  /// loops = 1 explicitly). Capped at 64.
  std::size_t loops = 0;
  /// Admission control: when > 0 and a loop sees new request bytes arrive
  /// while it already has ceil(max_in_flight / loops) requests in flight
  /// (split per loop like max_connections, so the check stays loop-local),
  /// it answers a prebuilt 503 with Retry-After and closes — before
  /// parsing, without allocating, without dispatching. 0 disables the
  /// watermark.
  std::size_t max_in_flight = 0;
  /// Seconds advertised in the 503's Retry-After header.
  int retry_after_s = 1;
  /// Extra admission signal, sampled per arriving request batch (e.g. the
  /// selection service's build-queue depth crossing a watermark). Returning
  /// true sheds exactly like the in-flight watermark. Must be fast and
  /// thread-safe; null disables it.
  std::function<bool()> shed_hook;
  /// Close connections idle (no read, no pending response) longer than
  /// this; each reactor sweeps its own connections on a coarse 50 ms tick.
  /// 0 disables the reaper.
  double idle_timeout_s = 0.0;
};

/// The front-end counter set. Each reactor keeps one live instance, bumped
/// by its own loop with relaxed atomic adds (support::count) and readable
/// from any thread; it is also the read view: Server::loop_stats() loads
/// one loop's, Server::stats() sums them all.
struct HttpStatsSnapshot {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  ///< over the cap
  std::uint64_t requests_total = 0;
  std::uint64_t responses_2xx = 0;
  std::uint64_t responses_4xx = 0;
  std::uint64_t responses_5xx = 0;
  std::uint64_t responses_other = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t epoll_wakeups = 0;  ///< epoll_wait returns
  std::uint64_t requests_shed = 0;  ///< 503s from admission control
  std::uint64_t idle_reaped = 0;    ///< connections closed idle
  std::uint64_t accept_faults = 0;  ///< net.accept injections
  std::uint64_t write_faults = 0;   ///< net.write injections
  // Live gauges, not monotonic: open connections, and requests dispatched
  // to a handler whose completion has not reached the owning loop yet.
  std::uint64_t connections_active = 0;
  std::uint64_t requests_in_flight = 0;
  /// Dispatch-to-response-queued seconds per request (a loop records into
  /// its own histogram; reads fill this in).
  support::LatencyHistogram::Snapshot request_latency;

  /// Accumulate another snapshot (another loop's) into this one.
  void merge(const HttpStatsSnapshot& other);
};

/// Where each HttpStatsSnapshot field is exported on /metrics as a
/// whole-server series (support/metrics.hpp); loads and merges read
/// through it too.
inline constexpr support::MetricRow<HttpStatsSnapshot> kHttpMetrics[] = {
    {&HttpStatsSnapshot::connections_accepted,
     "lamb_http_connections_accepted_total", "", "counter",
     "Connections accepted."},
    {&HttpStatsSnapshot::connections_rejected,
     "lamb_http_connections_rejected_total", "", "counter",
     "Connections refused (over max_connections or fd exhaustion)."},
    {&HttpStatsSnapshot::requests_total, "lamb_http_requests_total", "",
     "counter", "HTTP requests dispatched."},
    {&HttpStatsSnapshot::responses_2xx, "lamb_http_responses_total",
     "{class=\"2xx\"}", "counter", "HTTP responses by status class."},
    {&HttpStatsSnapshot::responses_4xx, "", "{class=\"4xx\"}", "counter",
     ""},
    {&HttpStatsSnapshot::responses_5xx, "", "{class=\"5xx\"}", "counter",
     ""},
    {&HttpStatsSnapshot::responses_other, "", "{class=\"other\"}",
     "counter", ""},
    {&HttpStatsSnapshot::parse_errors, "lamb_http_parse_errors_total", "",
     "counter", "Malformed requests answered 4xx."},
    {&HttpStatsSnapshot::requests_shed, "lamb_http_requests_shed_total", "",
     "counter", "Requests answered the prebuilt admission 503 before parse."},
    {&HttpStatsSnapshot::idle_reaped, "lamb_http_idle_reaped_total", "",
     "counter", "Connections closed by the idle reaper."},
    {&HttpStatsSnapshot::accept_faults, "lamb_http_accept_faults_total", "",
     "counter", "Accepted connections dropped by net.accept fault injection."},
    {&HttpStatsSnapshot::write_faults, "lamb_http_write_faults_total", "",
     "counter", "Connections torn down by net.write fault injection."},
    {&HttpStatsSnapshot::bytes_read, "lamb_http_bytes_read_total", "",
     "counter", "Bytes read from clients."},
    {&HttpStatsSnapshot::bytes_written, "lamb_http_bytes_written_total", "",
     "counter", "Bytes written to clients."},
    {&HttpStatsSnapshot::connections_active, "lamb_http_connections_active",
     "", "gauge", "Currently open client connections."},
    {&HttpStatsSnapshot::requests_in_flight, "lamb_http_requests_in_flight",
     "", "gauge",
     "Requests dispatched to a handler, response not yet queued."},
    // Exported per loop only (kLoopMetrics).
    {&HttpStatsSnapshot::epoll_wakeups, nullptr, "", "counter", ""},
};
static_assert(8 * support::field_count<HttpStatsSnapshot>(kHttpMetrics) +
                  sizeof(support::LatencyHistogram::Snapshot) ==
              sizeof(HttpStatsSnapshot));

/// The per-reactor families: one series per event loop, labelled
/// loop="i". scripts/metrics_lint.sh pins every lamb_net_loop_* family to
/// exactly lamb_net_loops series.
inline constexpr support::MetricRow<HttpStatsSnapshot> kLoopMetrics[] = {
    {&HttpStatsSnapshot::connections_active, "lamb_net_loop_connections", "",
     "gauge", "Open connections owned by each event loop."},
    {&HttpStatsSnapshot::requests_total, "lamb_net_loop_requests_total", "",
     "counter", "Requests dispatched by each event loop."},
    {&HttpStatsSnapshot::epoll_wakeups, "lamb_net_loop_epoll_wakeups_total",
     "", "counter", "epoll_wait returns on each event loop."},
};

class Server;
class Reactor;

namespace detail {
struct ResponderTicket;  // defined in net/reactor.hpp
}

/// Completion ticket for one request. Copyable (handlers live in
/// std::function); the first send() wins, and if every copy is destroyed
/// unsent the server answers 500 on the request's behalf. send() is safe
/// from any thread and harmless after the server has stopped. Tickets are
/// pooled per reactor and intrusively refcounted, so the warm request path
/// allocates nothing.
class Responder {
 public:
  Responder() = default;
  Responder(const Responder& other);
  Responder& operator=(const Responder& other);
  Responder(Responder&& other) noexcept;
  Responder& operator=(Responder&& other) noexcept;
  ~Responder();

  void send(Response response) const;
  /// Zero-copy variant: called on the owning loop thread with responses in
  /// order, the parts serialize straight into the connection's output
  /// buffer — no Response, no string copies. Falls back to an ordinary
  /// posted completion otherwise. The views need only survive the call.
  void send(int status, std::string_view content_type,
            std::string_view body) const;

 private:
  friend class Server;
  friend class Reactor;
  /// Adopts one reference (the caller's).
  explicit Responder(detail::ResponderTicket* ticket) : ticket_(ticket) {}
  void release();
  detail::ResponderTicket* ticket_ = nullptr;
};

/// Exact-path router. The Request& passed to a handler is valid only for
/// the duration of the dispatch call — a handler that defers (completes the
/// Responder later, from another thread) must copy what it needs first.
/// With loops > 1 every reactor dispatches through the same Router
/// concurrently, so handlers must be thread-safe.
class Router {
 public:
  using Handler = std::function<void(const Request&, Responder)>;
  using SyncHandler = std::function<Response(const Request&)>;

  void handle(std::string method, std::string path, Handler handler);
  /// Sync conveniences: the handler's Response is sent immediately.
  void get(std::string path, SyncHandler handler);
  void post(std::string path, SyncHandler handler);

  /// Route and invoke; unknown path answers 404, known path with the wrong
  /// method 405. Never throws — a throwing handler answers 500.
  void dispatch(const Request& request, Responder responder) const;

 private:
  struct Route {
    std::string method;
    std::string path;
    Handler handler;
  };
  std::vector<Route> routes_;
};

class Server {
 public:
  /// Binds and listens (throws NetError on failure); run() starts serving.
  explicit Server(Router router, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral one when config.port was 0).
  std::uint16_t port() const { return port_; }
  const ServerConfig& config() const { return config_; }

  /// Number of reactors actually running (config.loops resolved).
  std::size_t loops() const { return reactors_.size(); }

  /// Whole-server counters: every reactor's stats merged into one plain
  /// snapshot (histograms merge exactly — see LatencyHistogram::merge).
  HttpStatsSnapshot stats() const;
  /// One loop's counters (the /metrics lamb_net_loop_* series).
  HttpStatsSnapshot loop_stats(std::size_t loop) const;

  /// Serve until stop(): runs reactor 0 on the calling thread and loops
  /// 1..N-1 on internal threads, then joins them in loop order. One caller
  /// at a time. A reactor failure stops the others and rethrows here.
  void run();

  /// Request a graceful drain: stop accepting, finish and flush in-flight
  /// requests on every loop, close idle connections, return from run().
  /// Thread- and async-signal-safe; idempotent — a signal handler and the
  /// CLI may race calls harmlessly.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Execute `fn` on a loop's event-loop thread (between events). Tests use
  /// this to observe loop-thread-local state — e.g. the allocation counter
  /// behind the allocation-free-request-path audit. Best effort: dropped if
  /// the server is torn down before the loop drains its hub again.
  void run_on_loop(std::size_t loop, std::function<void()> fn);

 private:
  Router router_;
  ServerConfig config_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  /// Built once in the constructor, never resized: stop() iterates this
  /// from signal handlers.
  std::vector<std::unique_ptr<Reactor>> reactors_;
};

}  // namespace lamb::net
