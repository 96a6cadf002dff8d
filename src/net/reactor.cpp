#include "net/reactor.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "support/fault.hpp"

namespace lamb::net {

namespace {

constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kWakeId = 1;
/// Finished tickets kept for reuse (per loop-local free list and per hub
/// pool): far above any realistic per-loop in-flight count, small enough
/// that an abusive burst cannot pin memory forever.
constexpr std::size_t kMaxPooledTickets = 1024;

thread_local Reactor* t_current_reactor = nullptr;

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void count_status(HttpStatsSnapshot& stats, int status) {
  support::count(status < 300 && status >= 200 ? stats.responses_2xx
                 : status >= 500               ? stats.responses_5xx
                 : status >= 400               ? stats.responses_4xx
                                               : stats.responses_other);
}

}  // namespace

using detail::ResponderTicket;

// -------------------------------------------------------- completion hub

struct Reactor::Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  Response response;
  bool keep_alive = true;
  std::chrono::steady_clock::time_point start;
  /// The request's root span, carried to the owning loop and closed there:
  /// hub draining is serialized after dispatch on the loop thread, so the
  /// root provably outlasts the parse/route spans recorded during dispatch
  /// even when a worker answers before dispatch unwinds.
  obs::RequestTrace trace;
};

/// Mailbox between other threads and one event loop. Outlives the Reactor
/// through the shared_ptr in each outstanding ticket; `open` flips false
/// before the eventfd closes, and the eventfd write happens under the same
/// mutex, so a straggling send() can never touch a dead fd.
struct Reactor::Hub {
  std::mutex mutex;
  std::vector<Completion> ready;
  std::vector<std::function<void()>> tasks;
  std::vector<int> adopted;  ///< fds handed off by the acceptor loop
  std::vector<ResponderTicket*> pool;
  int wake_fd = -1;
  bool open = true;

  void notify_locked() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  void post(Completion&& completion) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!open) {
      return;  // reactor already torn down; the response has nowhere to go
    }
    ready.push_back(std::move(completion));
    notify_locked();
  }

  void post_task(std::function<void()> fn) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!open) {
      return;
    }
    tasks.push_back(std::move(fn));
    notify_locked();
  }

  /// False when the hub is closed (the caller still owns `fd`).
  bool post_fd(int fd) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (!open) {
      return false;
    }
    adopted.push_back(fd);
    notify_locked();
    return true;
  }

  void close() {
    const std::lock_guard<std::mutex> lock(mutex);
    open = false;
    ready.clear();
    tasks.clear();
    for (const int fd : adopted) {
      ::close(fd);
    }
    adopted.clear();
    for (ResponderTicket* ticket : pool) {
      delete ticket;
    }
    pool.clear();
  }
};

// --------------------------------------------------------------- responder

Responder::Responder(const Responder& other) : ticket_(other.ticket_) {
  if (ticket_ != nullptr) {
    ticket_->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

Responder& Responder::operator=(const Responder& other) {
  if (ticket_ != other.ticket_) {
    release();
    ticket_ = other.ticket_;
    if (ticket_ != nullptr) {
      ticket_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return *this;
}

Responder::Responder(Responder&& other) noexcept : ticket_(other.ticket_) {
  other.ticket_ = nullptr;
}

Responder& Responder::operator=(Responder&& other) noexcept {
  if (this != &other) {
    release();
    ticket_ = other.ticket_;
    other.ticket_ = nullptr;
  }
  return *this;
}

Responder::~Responder() { release(); }

void Responder::release() {
  ResponderTicket* t = ticket_;
  if (t == nullptr) {
    return;
  }
  ticket_ = nullptr;
  if (t->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return;
  }
  // Every copy was dropped. Unsent, the server answers 500 on the
  // request's behalf — a silent drop would wedge the pipeline (responses
  // are strictly ordered).
  if (!t->sent.load(std::memory_order_acquire)) {
    const std::string_view body = "handler dropped the request\n";
    if (t->reactor == nullptr || Reactor::current() != t->reactor ||
        !t->reactor->try_complete_inline(t, 500, "text/plain; charset=utf-8",
                                         body, false)) {
      t->hub->post(Reactor::Completion{t->conn_id, t->seq,
                                       text_response(500, std::string(body)),
                                       t->keep_alive, t->start,
                                       std::move(t->trace)});
    }
  }
  Reactor::recycle_ticket(t);
}

void Responder::send(Response response) const {
  ResponderTicket* t = ticket_;
  if (t == nullptr || t->sent.exchange(true, std::memory_order_acq_rel)) {
    return;  // default-constructed, or a racing copy answered first
  }
  if (t->reactor != nullptr && Reactor::current() == t->reactor &&
      t->reactor->try_complete_inline(t, response.status,
                                      response.content_type, response.body,
                                      response.close)) {
    return;
  }
  t->hub->post(Reactor::Completion{t->conn_id, t->seq, std::move(response),
                                   t->keep_alive, t->start,
                                   std::move(t->trace)});
}

void Responder::send(int status, std::string_view content_type,
                     std::string_view body) const {
  ResponderTicket* t = ticket_;
  if (t == nullptr || t->sent.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  if (t->reactor != nullptr && Reactor::current() == t->reactor &&
      t->reactor->try_complete_inline(t, status, content_type, body, false)) {
    return;
  }
  // Off the owning loop (or out of order): materialize a Response and take
  // the ordinary hub path.
  Response response;
  response.status = status;
  response.content_type.assign(content_type);
  response.body.assign(body);
  t->hub->post(Reactor::Completion{t->conn_id, t->seq, std::move(response),
                                   t->keep_alive, t->start,
                                   std::move(t->trace)});
}

// ------------------------------------------------------------- ticket pool

ResponderTicket* Reactor::acquire_ticket(std::uint64_t conn_id,
                                         std::uint64_t seq, bool keep_alive) {
  ResponderTicket* t = nullptr;
  if (!ticket_pool_.empty()) {
    t = ticket_pool_.back();
    ticket_pool_.pop_back();
  } else {
    // Loop-local list dry: adopt everything recycled through the hub by
    // other threads in one swap, so the mutex is touched once per batch.
    const std::lock_guard<std::mutex> lock(hub_->mutex);
    if (!hub_->pool.empty()) {
      ticket_pool_.swap(hub_->pool);
      t = ticket_pool_.back();
      ticket_pool_.pop_back();
    }
  }
  if (t == nullptr) {
    t = new ResponderTicket();
  }
  t->reactor = this;
  t->hub = hub_;
  t->conn_id = conn_id;
  t->seq = seq;
  t->keep_alive = keep_alive;
  t->completed_inline = false;
  t->start = std::chrono::steady_clock::now();
  t->trace = obs::RequestTrace{};
  t->sent.store(false, std::memory_order_relaxed);
  t->refs.store(1, std::memory_order_relaxed);
  return t;
}

void Reactor::recycle_ticket(ResponderTicket* t) {
  const std::shared_ptr<Hub> hub = std::move(t->hub);
  Reactor* owner = t->reactor;
  t->reactor = nullptr;
  t->trace = obs::RequestTrace{};
  Reactor* cur = t_current_reactor;
  if (cur != nullptr && cur == owner) {
    // On the owning loop thread: lock-free recycle.
    if (cur->ticket_pool_.size() < kMaxPooledTickets) {
      cur->ticket_pool_.push_back(t);
      return;
    }
    delete t;
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(hub->mutex);
    if (hub->open && hub->pool.size() < kMaxPooledTickets) {
      hub->pool.push_back(t);
      return;
    }
  }
  delete t;
}

// -------------------------------------------------------------- connection

struct Reactor::Connection {
  explicit Connection(std::size_t max_request_bytes)
      : parser(max_request_bytes) {}

  int fd = -1;
  std::uint64_t id = 0;
  RequestParser parser;
  std::string out;          ///< serialized responses awaiting write()
  std::size_t out_pos = 0;  ///< already written prefix of `out`
  std::uint64_t next_seq = 0;      ///< next request sequence to assign
  std::uint64_t next_to_send = 0;  ///< next response sequence to emit
  /// Completions that arrived ahead of an earlier still-pending request.
  std::map<std::uint64_t, Completion> parked;
  std::size_t parked_bytes = 0;  ///< response bodies held in `parked`
  std::size_t inflight = 0;  ///< dispatched requests not yet responded
  /// When tracing: obs::now_ns() at the first byte of the next request
  /// (0 = not yet seen), so the root span is backdated to intake and the
  /// parse stage covers bytes-arrived to dispatched.
  std::uint64_t read_ns = 0;
  /// steady_ns() at the last successful read or write; the idle reaper
  /// closes connections quiet longer than ServerConfig::idle_timeout_s.
  std::uint64_t last_activity_ns = 0;
  std::uint32_t armed_events = 0;  ///< epoll interest currently installed
  bool want_write = false;   ///< EPOLLOUT currently requested
  bool paused = false;       ///< EPOLLIN dropped (pipeline backpressure)
  bool read_closed = false;  ///< EOF seen or protocol error: no more parsing
  bool close_after_flush = false;
  bool flush_flagged = false;  ///< queued in flush_queue_ this sweep
};

// ----------------------------------------------------------------- reactor

Reactor::Reactor(const Router& router, const ServerConfig& config,
                 const std::atomic<bool>& stop_flag, std::size_t index,
                 int listen_fd, std::size_t max_connections)
    : router_(router),
      config_(config),
      stop_(stop_flag),
      index_(index),
      max_connections_(max_connections),
      listen_fd_(listen_fd) {
  // A throwing constructor skips the destructor: every failure from here
  // on must release what is already open (including the adopted listener).
  const auto fail = [this](const char* what) {
    const int saved = errno;
    for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
    errno = saved;
    throw_errno(what);
  };
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    fail("epoll_create1/eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (listen_fd_ >= 0) {
    ev.data.u64 = kListenerId;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
      fail("epoll_ctl(listener)");
    }
    reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  }
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    fail("epoll_ctl(eventfd)");
  }
  hub_ = std::make_shared<Hub>();
  hub_->wake_fd = wake_fd_;
  // Admission control state, fixed at construction so the shed path itself
  // allocates nothing: the loop's ceil share of the in-flight watermark
  // (split like max_connections — config_.loops is resolved by Server) and
  // the one 503 every shed answers with.
  const std::size_t loops = config_.loops == 0 ? 1 : config_.loops;
  if (config_.max_in_flight > 0) {
    max_in_flight_ = std::max<std::size_t>(
        1, (config_.max_in_flight + loops - 1) / loops);
  }
  if (max_in_flight_ > 0 || config_.shed_hook) {
    const std::string body = "overloaded, retry later\n";
    shed_response_ = "HTTP/1.1 503 Service Unavailable\r\n"
                     "Content-Type: text/plain; charset=utf-8\r\n"
                     "Content-Length: " +
                     std::to_string(body.size()) +
                     "\r\n"
                     "Retry-After: " +
                     std::to_string(std::max(config_.retry_after_s, 0)) +
                     "\r\n"
                     "Connection: close\r\n\r\n" +
                     body;
  }
  if (config_.idle_timeout_s > 0.0) {
    idle_timeout_ns_ =
        static_cast<std::uint64_t>(config_.idle_timeout_s * 1e9);
  }
}

Reactor::~Reactor() {
  hub_->close();  // after this no ticket or handoff can touch wake_fd_
  for (auto& [id, conn] : connections_) {
    ::close(conn->fd);
  }
  connections_.clear();
  for (ResponderTicket* ticket : ticket_pool_) {
    delete ticket;
  }
  ticket_pool_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
  if (reserve_fd_ >= 0) {
    ::close(reserve_fd_);
  }
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

Reactor* Reactor::current() { return t_current_reactor; }

void Reactor::wake() {
  const std::uint64_t one = 1;
  // Direct write, not a hub post — this must stay async-signal-safe.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

HttpStatsSnapshot Reactor::stats() const {
  HttpStatsSnapshot s =
      support::load_relaxed<HttpStatsSnapshot>(kHttpMetrics, counters_);
  s.request_latency = latency_.snapshot();
  return s;
}

void Reactor::post_task(std::function<void()> fn) {
  hub_->post_task(std::move(fn));
}

void Reactor::adopt_fd(int fd) {
  if (!hub_->post_fd(fd)) {
    ::close(fd);  // reactor torn down before the handoff landed
  }
}

void Reactor::set_handoff(std::vector<Reactor*> targets) {
  handoff_ = std::move(targets);
}

void Reactor::update_interest(Connection& conn) {
  std::uint32_t want = 0;
  if (!conn.paused && !conn.read_closed) {
    want |= EPOLLIN;
  }
  if (conn.want_write) {
    want |= EPOLLOUT;
  }
  if (want == conn.armed_events) {
    return;  // skip the epoll_ctl syscall when nothing changed
  }
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.armed_events = want;
}

void Reactor::close_connection(std::uint64_t id) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) {
    return;
  }
  ::close(it->second->fd);  // epoll deregisters the fd automatically
  connections_.erase(it);
  support::count(counters_.connections_active, -1);
  if (listener_muted_ && listen_fd_ >= 0) {
    // A descriptor just freed: re-arm the accept path muted under EMFILE.
    if (reserve_fd_ < 0) {
      reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerId;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
    listener_muted_ = false;
  }
}

void Reactor::accept_new() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors with a connection still queued: with
        // level-triggered epoll, returning would re-report the listener
        // instantly and spin the loop. Release the reserve fd, accept the
        // connection just to refuse it, then re-arm the reserve.
        int doomed = -1;
        if (reserve_fd_ >= 0) {
          ::close(reserve_fd_);
          reserve_fd_ = -1;
          doomed = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (doomed >= 0) {
            support::count(counters_.connections_rejected);
            ::close(doomed);
          }
          reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        }
        if (doomed >= 0 && reserve_fd_ >= 0) {
          continue;
        }
        // Could not shed the pending connection (no reserve, or another
        // thread stole the freed slot): mute the listener until a
        // connection closes (or the muted-poll timeout fires), or this
        // same branch would livelock the loop.
        epoll_event ev{};
        ev.data.u64 = kListenerId;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
        listener_muted_ = true;
        return;
      }
      return;  // EAGAIN: backlog drained (other errors: retry on next event)
    }
    if (support::fault_fire(support::FaultSite::kNetAccept)) {
      // Injected accept failure: the connection is dropped as if the peer
      // reset it between accept and adoption. Clients with connect retries
      // (net::Client) absorb this; the counter surfaces it on /metrics.
      support::count(counters_.accept_faults);
      ::close(fd);
      continue;
    }
    if (!handoff_.empty()) {
      // loops > 1: deal connections round-robin, one per loop in turn.
      Reactor* target = handoff_[handoff_next_];
      handoff_next_ = (handoff_next_ + 1) % handoff_.size();
      if (target != this) {
        target->adopt_fd(fd);
        continue;
      }
    }
    adopt_connection(fd);
  }
}

void Reactor::adopt_connection(int fd) {
  if (connections_.size() >= max_connections_) {
    support::count(counters_.connections_rejected);
    ::close(fd);
    return;
  }
  const int on = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
  if (config_.so_sndbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.so_sndbuf,
                 sizeof(config_.so_sndbuf));
  }
  auto conn = std::make_unique<Connection>(config_.max_request_bytes);
  conn->fd = fd;
  conn->id = next_conn_id_++;
  if (idle_timeout_ns_ > 0) {
    conn->last_activity_ns = steady_ns();
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    return;
  }
  conn->armed_events = EPOLLIN;
  support::count(counters_.connections_accepted);
  support::count(counters_.connections_active);
  connections_.emplace(conn->id, std::move(conn));
}

void Reactor::queue_error_response(Connection& conn, int status,
                                   std::string body) {
  support::count(counters_.parse_errors);
  // Through the regular ticket machinery so the error response stays
  // ordered behind earlier pipelined requests still being handled.
  const Responder responder(acquire_ticket(conn.id, conn.next_seq++, false));
  support::count(counters_.requests_in_flight);
  ++conn.inflight;
  Response response = text_response(status, std::move(body));
  response.close = true;
  responder.send(std::move(response));
}

bool Reactor::try_complete_inline(ResponderTicket* t, int status,
                                  std::string_view content_type,
                                  std::string_view body, bool force_close) {
  const auto it = connections_.find(t->conn_id);
  if (it == connections_.end()) {
    return false;  // connection died; the hub path drops it identically
  }
  Connection& conn = *it->second;
  if (t->seq != conn.next_to_send) {
    return false;  // out of order: park through the hub like any other
  }
  const bool persist = t->keep_alive && !force_close;
  append_response(conn.out, status, content_type, body, persist);
  ++conn.next_to_send;
  --conn.inflight;
  count_status(counters_, status);
  latency_.record(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t->start)
          .count());
  support::count(counters_.requests_in_flight, -1);
  if (!persist) {
    conn.close_after_flush = true;
    conn.read_closed = true;
  }
  if (t == dispatching_) {
    // Root span stays open until the dispatcher records the route span
    // (children must nest inside their parent's interval); it closes right
    // after, still on this loop thread.
    t->completed_inline = true;
  } else {
    obs::tracer().end_request(t->trace);
  }
  mark_flush(conn);
  return true;
}

void Reactor::dispatch_parsed(Connection& conn) {
  obs::Tracer& tr = obs::tracer();
  while (!conn.read_closed && !conn.paused &&
         conn.parser.state() == RequestParser::State::kComplete) {
    const Request& request = conn.parser.request();
    support::count(counters_.requests_total);
    const Responder responder(
        acquire_ticket(conn.id, conn.next_seq++, request.keep_alive));
    ResponderTicket* ticket = responder.ticket_;
    obs::TraceContext trace_ctx;
    const bool tracing = tr.enabled();
    if (tracing) {
      const std::uint64_t t_dispatch = obs::now_ns();
      std::uint64_t t_read = conn.read_ns;
      if (t_read == 0 || t_read > t_dispatch) {
        t_read = t_dispatch;
      }
      ticket->trace = tr.begin_request(request.path, t_read);
      trace_ctx = ticket->trace.ctx;
      tr.record_stage(obs::Stage::kParse, t_read, t_dispatch);
      tr.record_span(trace_ctx, obs::Stage::kParse, t_read, t_dispatch);
      // Further pipelined requests in this buffer "arrived" now.
      conn.read_ns = t_dispatch;
    }
    support::count(counters_.requests_in_flight);
    ++conn.inflight;
    if (!request.keep_alive) {
      // Nothing after this request will be answered; stop parsing.
      conn.read_closed = true;
    }
    dispatching_ = ticket;
    if (tracing) {
      // The route span is recorded manually, NOT as a SpanScope: a scope
      // would re-parent the thread context for dispatch's extent, and
      // handlers that defer to a worker pool would capture a parent whose
      // interval closes right here. Deferred work must attach to the root
      // request span instead — the only span guaranteed to outlive it.
      const obs::ContextGuard guard(trace_ctx);
      const std::uint64_t t0 = obs::now_ns();
      router_.dispatch(request, responder);
      const std::uint64_t t1 = obs::now_ns();
      tr.record_stage(obs::Stage::kRoute, t0, t1);
      tr.record_span(trace_ctx, obs::Stage::kRoute, t0, t1);
    } else {
      router_.dispatch(request, responder);
    }
    dispatching_ = nullptr;
    if (ticket->completed_inline) {
      // Inline completion during dispatch deferred the root-span close so
      // the route span above could record inside it.
      tr.end_request(ticket->trace);
      ticket->completed_inline = false;
    }
    conn.parser.advance();
    // Enforce the pipeline bound inside the loop: one large read can hold
    // thousands of tiny buffered requests, and dispatching them all before
    // pausing would make max_pipeline bound nothing. Paused, the remainder
    // stays in the parser until responses flush (flush_ready resumes).
    if (conn.inflight >= config_.max_pipeline) {
      conn.paused = true;
    }
  }
  if (!conn.read_closed && !conn.paused &&
      conn.parser.state() == RequestParser::State::kError) {
    queue_error_response(conn, conn.parser.error_status(),
                         conn.parser.error_message() + "\n");
    conn.read_closed = true;
  }
  if (conn.parser.state() != RequestParser::State::kComplete &&
      conn.parser.buffered() == 0) {
    // Nothing of the next request has arrived; its intake timestamp is
    // whenever the next read actually lands, not now.
    conn.read_ns = 0;
  }
  if (conn.paused) {
    update_interest(conn);
  }
}

bool Reactor::should_shed(const Connection& conn) const {
  if (conn.inflight != 0) {
    // Responses are strictly ordered: a direct-appended 503 would cut in
    // front of this connection's parked completions. Best-effort admission
    // falls through to normal parsing here.
    return false;
  }
  if (max_in_flight_ > 0 &&
      support::load_relaxed(counters_.requests_in_flight) >=
          max_in_flight_) {
    return true;
  }
  return config_.shed_hook && config_.shed_hook();
}

void Reactor::on_readable(Connection& conn) {
  if (conn.read_closed) {
    return;  // response path decides when this connection dies
  }
  if (!shed_response_.empty() && should_shed(conn)) {
    // Shed before parse: the loop is over its in-flight share (or the shed
    // hook fired), so the arriving bytes are never read — the prebuilt 503
    // goes out and the connection closes. No parsing, no allocation, no
    // dispatch; the cost of an overload request is one append + one write.
    support::count(counters_.requests_shed);
    count_status(counters_, 503);
    conn.out.append(shed_response_);
    conn.read_closed = true;
    conn.close_after_flush = true;
    update_interest(conn);
    write_some(conn);
    return;
  }
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      support::count(counters_.bytes_read, static_cast<std::uint64_t>(n));
      if (idle_timeout_ns_ > 0) {
        conn.last_activity_ns = steady_ns();
      }
      if (conn.read_ns == 0 && obs::tracer().enabled()) {
        conn.read_ns = obs::now_ns();
      }
      conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      dispatch_parsed(conn);
      if (conn.read_closed || conn.paused) {
        update_interest(conn);
        return;  // inline responses flush in the flush_flagged sweep
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    // EOF or a hard error. Anything already dispatched still gets its
    // response written (the client may have shutdown only its write side),
    // and inline responses already serialized into `out` still flush.
    conn.read_closed = true;
    if (conn.inflight == 0 && conn.out_pos == conn.out.size()) {
      close_connection(conn.id);
    } else {
      conn.close_after_flush = true;
      update_interest(conn);
    }
    return;
  }
}

bool Reactor::write_some(Connection& conn) {
  if (conn.out_pos < conn.out.size() &&
      support::fault_fire(support::FaultSite::kNetWrite)) {
    // Injected write failure, shaped like ECONNRESET mid-response: the
    // connection dies exactly as if the peer vanished, exercising the same
    // teardown path (parked completions dropped with it).
    support::count(counters_.write_faults);
    close_connection(conn.id);
    return false;
  }
  while (conn.out_pos < conn.out.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-response must come back as
    // EPIPE (we close the connection), never as a process-wide SIGPIPE.
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      support::count(counters_.bytes_written, static_cast<std::uint64_t>(n));
      conn.out_pos += static_cast<std::size_t>(n);
      if (idle_timeout_ns_ > 0) {
        conn.last_activity_ns = steady_ns();
      }
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        update_interest(conn);
      }
      return true;
    }
    close_connection(conn.id);  // EPIPE/ECONNRESET: peer is gone
    return false;
  }
  conn.out.clear();  // keeps capacity: the buffer is grow-only per conn
  conn.out_pos = 0;
  if (conn.want_write) {
    conn.want_write = false;
    update_interest(conn);
  }
  if (conn.close_after_flush && conn.inflight == 0) {
    close_connection(conn.id);
    return false;
  }
  return true;
}

void Reactor::on_writable(Connection& conn) { write_some(conn); }

void Reactor::mark_flush(Connection& conn) {
  if (!conn.flush_flagged) {
    conn.flush_flagged = true;
    flush_queue_.push_back(conn.id);
  }
}

void Reactor::flush_flagged() {
  // Index loop: flush_ready may mark further connections (resumed dispatch
  // completing inline), which append to the queue mid-sweep.
  for (std::size_t i = 0; i < flush_queue_.size(); ++i) {
    const auto it = connections_.find(flush_queue_[i]);
    if (it == connections_.end()) {
      continue;  // closed since it was flagged
    }
    it->second->flush_flagged = false;
    flush_ready(*it->second);
  }
  flush_queue_.clear();
}

void Reactor::flush_ready(Connection& conn) {
  for (auto it = conn.parked.find(conn.next_to_send);
       it != conn.parked.end(); it = conn.parked.find(conn.next_to_send)) {
    Completion completion = std::move(it->second);
    conn.parked.erase(it);
    conn.parked_bytes -= completion.response.body.size();
    append_response(conn.out, completion.response, completion.keep_alive);
    ++conn.next_to_send;
    --conn.inflight;
    count_status(counters_, completion.response.status);
    latency_.record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      completion.start)
            .count());
    if (!completion.keep_alive || completion.response.close) {
      conn.close_after_flush = true;
      conn.read_closed = true;
    }
  }
  if (conn.paused && conn.inflight < config_.max_pipeline) {
    // Inline completions can drop inflight below the bound without any
    // splice above, so the resume check is unconditional. Requests may
    // already be buffered in the parser from before the pause.
    conn.paused = false;
    dispatch_parsed(conn);
  }
  // A client that pipelines heavily but never reads would otherwise grow
  // the output buffer without bound; past the cap the connection is
  // abusive, and its already-computed responses are dropped with it.
  if (conn.out.size() - conn.out_pos + conn.parked_bytes >
      config_.max_buffered_response_bytes) {
    close_connection(conn.id);
    return;
  }
  // Re-sync epoll interest in one place: the loop above may have set
  // read_closed (a Connection: close response), and with level-triggered
  // epoll a stale EPOLLIN on a connection we no longer read would spin.
  update_interest(conn);
  if (!write_some(conn)) {
    return;  // connection destroyed
  }
  if (draining_ && conn.inflight == 0 && conn.out_pos == conn.out.size()) {
    close_connection(conn.id);
  }
}

void Reactor::drain_hub() {
  {
    // Double-buffered swap: the hub gets back empty vectors that kept
    // their capacity, so a steady-state drain allocates nothing.
    const std::lock_guard<std::mutex> lock(hub_->mutex);
    ready_scratch_.swap(hub_->ready);
    tasks_scratch_.swap(hub_->tasks);
    adopted_scratch_.swap(hub_->adopted);
  }
  for (const int fd : adopted_scratch_) {
    adopt_connection(fd);
  }
  adopted_scratch_.clear();
  for (auto& task : tasks_scratch_) {
    task();
  }
  tasks_scratch_.clear();
  for (Completion& completion : ready_scratch_) {
    // A completion reached the loop: the request is no longer in a
    // handler's hands, even if its connection died waiting. The root span
    // closes here — serialized after this request's dispatch, so every
    // child span (parse/route on this thread, serving stages before the
    // handler posted) ended earlier on the shared timeline.
    obs::tracer().end_request(completion.trace);
    support::count(counters_.requests_in_flight, -1);
    const auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) {
      continue;  // connection died before its response was ready
    }
    it->second->parked_bytes += completion.response.body.size();
    it->second->parked.emplace(completion.seq, std::move(completion));
    // A batch may hold several responses for one connection, in any order:
    // the flush_flagged sweep that follows splices each connection once.
    mark_flush(*it->second);
  }
  ready_scratch_.clear();
}

void Reactor::begin_drain() {
  draining_ = true;
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  close_drained_idle();
}

void Reactor::close_drained_idle() {
  // Connections with nothing in flight and nothing left to flush are done.
  // Swept every loop iteration while draining: the last flush may happen on
  // any path (completion splice, EPOLLOUT round), and a keep-alive client
  // that simply holds its socket open must not pin run() forever.
  std::vector<std::uint64_t> idle;
  for (const auto& [id, conn] : connections_) {
    if (conn->inflight == 0 && conn->out_pos == conn->out.size()) {
      idle.push_back(id);
    }
  }
  for (const std::uint64_t id : idle) {
    close_connection(id);
  }
}

void Reactor::run() {
  t_current_reactor = this;
  epoll_event events[64];
  while (true) {
    if (stop_.load(std::memory_order_acquire) && !draining_) {
      begin_drain();
    }
    if (draining_ && connections_.empty()) {
      break;
    }
    // A muted listener polls on a short timeout: with loops > 1 the fd
    // that frees capacity may close on another loop, which never reaches
    // this reactor's close_connection re-arm path. The idle reaper rides
    // the same coarse tick — idle connections generate no events, so a
    // blocking wait would never sweep them.
    const int timeout_ms =
        listener_muted_ || idle_timeout_ns_ > 0 ? 50 : -1;
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      t_current_reactor = nullptr;
      throw_errno("epoll_wait");
    }
    support::count(counters_.epoll_wakeups);
    if (n == 0 && listener_muted_ && listen_fd_ >= 0) {
      if (reserve_fd_ < 0) {
        reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kListenerId;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
      listener_muted_ = false;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kListenerId) {
        accept_new();
        continue;
      }
      if (id == kWakeId) {
        std::uint64_t counter = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &counter, sizeof(counter));
        continue;  // hub drains below, stop flag re-checked on loop
      }
      const auto it = connections_.find(id);
      if (it == connections_.end()) {
        continue;  // closed earlier in this batch
      }
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        close_connection(id);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!write_some(conn)) {
          continue;
        }
      }
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        on_readable(conn);
      }
    }
    drain_hub();
    flush_flagged();
    if (idle_timeout_ns_ > 0 && !connections_.empty()) {
      const std::uint64_t now = steady_ns();
      if (now - last_idle_sweep_ns_ >= 50'000'000) {
        last_idle_sweep_ns_ = now;
        reap_idle(now);
      }
    }
    if (draining_) {
      close_drained_idle();
    }
  }
  t_current_reactor = nullptr;
}

void Reactor::reap_idle(std::uint64_t now_ns) {
  // Quiet means nothing in flight, nothing left to flush, and no socket
  // activity for the whole timeout — a keep-alive client parked between
  // requests, or a slowloris drip that never completes one. Either way the
  // connection pins a descriptor this loop can hand to someone else.
  std::vector<std::uint64_t> idle;
  for (const auto& [id, conn] : connections_) {
    if (conn->inflight == 0 && conn->out_pos == conn->out.size() &&
        now_ns - conn->last_activity_ns >= idle_timeout_ns_) {
      idle.push_back(id);
    }
  }
  for (const std::uint64_t id : idle) {
    support::count(counters_.idle_reaped);
    close_connection(id);
  }
}

}  // namespace lamb::net
