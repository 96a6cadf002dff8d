// lamb::net::Reactor — one epoll event loop of the multi-loop HTTP front-end
// (see net/server.hpp for the architecture overview).
//
// A Reactor owns, exclusively and for their whole life, the connections it
// accepted (reactor 0) or adopted from reactor 0's round robin: the epoll
// instance, the eventfd wake channel, the per-connection parser/writer
// state and the per-loop counter set all belong to the loop thread, so the
// request hot path is single-threaded and lock-free. The only cross-thread
// surface is the Hub — a mutex-guarded mailbox of completed responses,
// adopted fds, posted tasks and recycled tickets, drained once per wakeup.
//
// Warm requests are allocation-free end to end: the parser reuses its
// request buffers (net/http.cpp), tickets come from a per-loop pool, and a
// handler that answers synchronously on the loop thread hits the inline
// completion path — the response serializes straight into the connection's
// grow-only output buffer, bypassing the hub, the parked map and every
// intermediate std::string. The allocation-counting hook in net_test pins
// this property.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/http.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"

namespace lamb::net {

class Reactor {
 public:
  /// Nested implementation types are public so the out-of-line ticket
  /// (detail::ResponderTicket) can reference the Hub; they are defined in
  /// reactor.cpp and remain implementation details.
  struct Hub;
  struct Completion;
  struct Connection;

  /// `listen_fd` is adopted (closed on failure and in the destructor); only
  /// reactor 0 gets one, loops 1..N-1 pass -1 and serve only the fds it
  /// hands them. `stop_flag` is the server-wide drain request, shared so a
  /// single atomic store reaches every loop.
  Reactor(const Router& router, const ServerConfig& config,
          const std::atomic<bool>& stop_flag, std::size_t index,
          int listen_fd, std::size_t max_connections);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Event loop; blocks until the shared stop flag is set and this loop
  /// has drained. One caller at a time.
  void run();

  /// Async-signal-safe wakeup (one eventfd write); the loop re-checks the
  /// stop flag on every wakeup.
  void wake();

  std::size_t index() const { return index_; }
  /// This loop's counters, loaded field by field (any thread).
  HttpStatsSnapshot stats() const;

  /// Queue `fn` for execution on the loop thread (between events).
  void post_task(std::function<void()> fn);

  /// Adopt a connection accepted by reactor 0; takes ownership of `fd`
  /// (closed if this loop is at capacity or torn down).
  void adopt_fd(int fd);

  /// Round-robin targets for this reactor's accept loop, in loop order and
  /// including this reactor itself. Set on reactor 0 when loops > 1, before
  /// run(); left empty, every accepted fd is adopted here.
  void set_handoff(std::vector<Reactor*> targets);

  /// The reactor whose loop is executing on the current thread, or nullptr
  /// off-loop — how Responder::send detects the inline completion path.
  static Reactor* current();

 private:
  friend class Responder;

  detail::ResponderTicket* acquire_ticket(std::uint64_t conn_id,
                                          std::uint64_t seq, bool keep_alive);
  /// Return a finished ticket to its pool (loop-local free list when called
  /// on the owning loop thread, hub pool under the mutex otherwise).
  static void recycle_ticket(detail::ResponderTicket* ticket);
  /// The allocation-free completion path: on the owning loop thread with
  /// `ticket` the next response its connection owes, serialize the parts
  /// directly into the connection's output buffer and do the completion
  /// bookkeeping. False when the completion must travel through the hub
  /// (off-thread, out of order, or the connection is gone).
  bool try_complete_inline(detail::ResponderTicket* ticket, int status,
                           std::string_view content_type,
                           std::string_view body, bool force_close);

  void accept_new();
  void adopt_connection(int fd);
  /// Admission control: true when this loop is over its in-flight share (or
  /// the shed hook says so) and new bytes on `conn` should be answered with
  /// the prebuilt 503 instead of being parsed. Only fires on connections
  /// with nothing in flight, so the direct append cannot interleave with
  /// ordered completions.
  bool should_shed(const Connection& conn) const;
  /// Close connections idle (no reads, writes or pending responses) longer
  /// than config_.idle_timeout_s; swept on the coarse 50 ms epoll tick.
  void reap_idle(std::uint64_t now_ns);
  void on_readable(Connection& conn);
  void on_writable(Connection& conn);
  void dispatch_parsed(Connection& conn);
  void queue_error_response(Connection& conn, int status, std::string body);
  /// Drain the hub mailbox: adopted fds, posted tasks, completions.
  void drain_hub();
  /// Append every in-order completed response to the connection's output
  /// buffer and try to flush it.
  void flush_ready(Connection& conn);
  /// Queue a connection for a flush_ready pass (deduplicated).
  void mark_flush(Connection& conn);
  /// Run flush_ready over every connection marked since the last sweep.
  void flush_flagged();
  bool write_some(Connection& conn);  ///< false when the conn was destroyed
  void update_interest(Connection& conn);
  void close_connection(std::uint64_t id);
  void begin_drain();
  /// While draining: close every connection with nothing in flight and
  /// nothing left to flush (swept per loop iteration — the final flush can
  /// happen on any path).
  void close_drained_idle();

  const Router& router_;
  const ServerConfig& config_;
  const std::atomic<bool>& stop_;
  std::size_t index_ = 0;
  std::size_t max_connections_ = 0;  ///< this loop's share of the cap
  /// This loop's share of ServerConfig::max_in_flight (ceil-split like the
  /// connection cap); 0 disables the watermark.
  std::size_t max_in_flight_ = 0;
  /// The admission 503, serialized once at construction (Retry-After from
  /// config) so shedding appends bytes without allocating or routing.
  std::string shed_response_;
  std::uint64_t idle_timeout_ns_ = 0;  ///< 0 disables the idle reaper
  std::uint64_t last_idle_sweep_ns_ = 0;
  /// The live counter set (support::count from the loop thread; any
  /// thread may read it through stats()) and the request-latency histogram.
  mutable HttpStatsSnapshot counters_;
  support::LatencyHistogram latency_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  /// Sacrificial descriptor released under EMFILE so a queued connection
  /// can still be accepted and refused instead of spinning the loop.
  int reserve_fd_ = -1;
  /// Listener interest dropped because fd exhaustion could not be shed;
  /// re-armed when a connection closes (or on a short epoll timeout, since
  /// with loops > 1 the freeing close may happen on another loop).
  bool listener_muted_ = false;
  bool draining_ = false;
  std::shared_ptr<Hub> hub_;
  /// Round-robin accept targets (reactor 0 with loops > 1; else empty).
  std::vector<Reactor*> handoff_;
  std::size_t handoff_next_ = 0;
  std::uint64_t next_conn_id_ = 2;  // 0 = listener, 1 = eventfd
  /// Owned by the loop thread exclusively; epoll events carry the id, and
  /// every event re-resolves it here (a connection closed earlier in the
  /// same epoll batch simply no longer resolves).
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections_;

  // Loop-thread scratch, all grow-only so the steady state allocates
  // nothing: the hub drain double-buffers through these, pending flushes
  // dedupe into flush_queue_, and finished tickets recycle locally.
  std::vector<Completion> ready_scratch_;
  std::vector<std::function<void()>> tasks_scratch_;
  std::vector<int> adopted_scratch_;
  std::vector<std::uint64_t> flush_queue_;
  std::vector<detail::ResponderTicket*> ticket_pool_;
  /// The ticket whose dispatch is on the stack right now: its inline
  /// completion defers the root-span close until after the route span is
  /// recorded (children must nest inside their parent's interval).
  detail::ResponderTicket* dispatching_ = nullptr;
};

namespace detail {

/// The shared state behind Responder copies — intrusively refcounted and
/// pooled (per loop) so the warm request path never touches the allocator.
/// Holds the hub alive, so a straggling send() after server teardown posts
/// into a closed (harmless) mailbox instead of a dangling one.
struct ResponderTicket {
  Reactor* reactor = nullptr;
  std::shared_ptr<Reactor::Hub> hub;
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  bool keep_alive = true;
  /// Completed via the inline path while its dispatch was on the stack;
  /// the dispatcher closes the root span after recording the route span.
  bool completed_inline = false;
  std::chrono::steady_clock::time_point start;
  obs::RequestTrace trace;  ///< root span; closed on the owning loop thread
  std::atomic<bool> sent{false};
  std::atomic<int> refs{0};
};

}  // namespace detail

}  // namespace lamb::net
