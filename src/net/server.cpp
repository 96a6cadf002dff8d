#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <mutex>
#include <utility>

#include "net/reactor.hpp"

namespace lamb::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

/// Open a bound, listening, non-blocking TCP socket on `addr`. Returns the
/// fd; -1 with errno set on failure (the socket is closed).
int open_listener(const sockaddr_in& addr, int backlog) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  const int on = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, backlog) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

}  // namespace

// ------------------------------------------------------------------ router

void Router::handle(std::string method, std::string path, Handler handler) {
  routes_.push_back(Route{std::move(method), std::move(path),
                          std::move(handler)});
}

void Router::get(std::string path, SyncHandler handler) {
  handle("GET", std::move(path),
         [h = std::move(handler)](const Request& req, Responder responder) {
           responder.send(h(req));
         });
}

void Router::post(std::string path, SyncHandler handler) {
  handle("POST", std::move(path),
         [h = std::move(handler)](const Request& req, Responder responder) {
           responder.send(h(req));
         });
}

void Router::dispatch(const Request& request, Responder responder) const {
  const Route* found = nullptr;
  bool path_known = false;
  for (const Route& route : routes_) {
    if (route.path != request.path) {
      continue;
    }
    path_known = true;
    if (route.method == request.method) {
      found = &route;
      break;
    }
  }
  if (found == nullptr) {
    responder.send(text_response(
        path_known ? 405 : 404,
        path_known ? "method not allowed on " + request.path + "\n"
                   : "no such route: " + request.path + "\n"));
    return;
  }
  try {
    found->handler(request, responder);  // keep a copy for the catch below
  } catch (const std::exception& e) {
    // If the handler already answered, the first send() won and this is a
    // no-op; otherwise the exception becomes the response.
    responder.send(text_response(500, std::string("handler error: ") +
                                          e.what() + "\n"));
  }
}

// ------------------------------------------------------------------- stats

void HttpStatsSnapshot::merge(const HttpStatsSnapshot& other) {
  support::add_rows<HttpStatsSnapshot>(kHttpMetrics, *this, other);
  request_latency.merge(other.request_latency);
}

// ------------------------------------------------------------------ server

Server::Server(Router router, ServerConfig config)
    : router_(std::move(router)), config_(std::move(config)) {
  std::size_t loops = config_.loops == 0 ? 1 : config_.loops;
  if (loops > 64) {
    loops = 64;
  }
  config_.loops = loops;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    throw NetError("invalid bind address: " + config_.bind_address);
  }

  // One listener, owned by reactor 0; with loops > 1 it deals accepted fds
  // round-robin to every loop (Reactor::accept_new).
  int listener = open_listener(addr, config_.backlog);
  if (listener < 0) {
    throw_errno("bind/listen " + config_.bind_address + ":" +
                std::to_string(config_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    const int saved = errno;
    ::close(listener);
    errno = saved;
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  // Each loop enforces its share of the connection bound locally, so the
  // accept path never consults another loop.
  const std::size_t per_loop =
      std::max<std::size_t>(1, (config_.max_connections + loops - 1) / loops);

  reactors_.reserve(loops);
  for (std::size_t i = 0; i < loops; ++i) {
    // Reactor 0 adopts the listener (and closes it even on ctor failure).
    const int fd = i == 0 ? std::exchange(listener, -1) : -1;
    reactors_.push_back(std::make_unique<Reactor>(router_, config_, stop_, i,
                                                  fd, per_loop));
  }
  if (loops > 1) {
    std::vector<Reactor*> targets;
    targets.reserve(loops);
    for (const auto& reactor : reactors_) {
      targets.push_back(reactor.get());
    }
    reactors_[0]->set_handoff(std::move(targets));
  }
}

Server::~Server() = default;

void Server::run() {
  running_.store(true, std::memory_order_release);
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto capture = [&](std::exception_ptr e) {
    {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) {
        error = std::move(e);
      }
    }
    stop();  // one failed loop takes the whole server down, gracefully
  };
  std::vector<std::thread> threads;
  threads.reserve(reactors_.size() > 0 ? reactors_.size() - 1 : 0);
  for (std::size_t i = 1; i < reactors_.size(); ++i) {
    threads.emplace_back([this, i, &capture] {
      try {
        reactors_[i]->run();
      } catch (...) {
        capture(std::current_exception());
      }
    });
  }
  try {
    reactors_[0]->run();
  } catch (...) {
    capture(std::current_exception());
  }
  for (std::thread& t : threads) {
    t.join();
  }
  running_.store(false, std::memory_order_release);
  if (error) {
    std::rethrow_exception(error);
  }
}

void Server::stop() {
  // Async-signal-safe and idempotent: an atomic store plus one eventfd
  // write per loop. Concurrent callers (signal handler racing the CLI)
  // at worst wake a loop twice, which is harmless.
  stop_.store(true, std::memory_order_release);
  for (const auto& reactor : reactors_) {
    reactor->wake();
  }
}

HttpStatsSnapshot Server::stats() const {
  HttpStatsSnapshot merged;
  for (const auto& reactor : reactors_) {
    merged.merge(reactor->stats());
  }
  return merged;
}

HttpStatsSnapshot Server::loop_stats(std::size_t loop) const {
  return reactors_.at(loop)->stats();
}

void Server::run_on_loop(std::size_t loop, std::function<void()> fn) {
  reactors_.at(loop)->post_task(std::move(fn));
}

}  // namespace lamb::net
