#ifndef SEPLSM_OBS_HTTP_EXPORTER_H_
#define SEPLSM_OBS_HTTP_EXPORTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace seplsm::obs {

/// A minimal embedded HTTP/1.1 exporter (DESIGN.md §15): plain POSIX
/// sockets, thread-per-connection, one request per connection
/// (`Connection: close`). Built for observability scrapes — Prometheus
/// `/metrics`, JSON `/stats`, health probes — not as a general web server:
/// GET/HEAD only, bounded request size, bounded concurrent connections.
///
/// Shared like the block cache and the job scheduler: the caller creates
/// one exporter, hands it to `Options::http_exporter` /
/// `MultiOptions::base.http_exporter`, and the engine (or MultiSeriesDB)
/// registers its endpoint handlers on Open and removes them on destruction.
/// Handlers are `std::function`s invoked from connection threads, so they
/// must be thread-safe; every registered component's public API already is.
///
/// Lifecycle: `Start()` binds and listens (port 0 picks an ephemeral port,
/// readable via `port()` afterwards); `Stop()` (idempotent, also run by the
/// destructor) closes the listener, wakes every in-flight connection, and
/// joins all threads. A component MUST deregister its handlers before dying
/// — deregistration blocks until no connection thread still runs the
/// handler being removed, so a handler can never outlive the object its
/// lambda captured.
class HttpExporter {
 public:
  struct Options {
    /// Interface to bind. Loopback by default: the exporter serves local
    /// scrapes and debug curls, not the open network.
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 binds an ephemeral port (see `port()`).
    uint16_t port = 0;
    /// listen(2) backlog.
    int backlog = 16;
    /// Requests larger than this are rejected with 431.
    size_t max_request_bytes = 8192;
    /// Concurrent connection threads; excess connections get 503.
    size_t max_connections = 32;
  };

  struct Request {
    std::string method;  ///< "GET" / "HEAD"
    std::string path;    ///< "/metrics" (query string stripped)
    std::string query;   ///< raw query string, "" when absent
  };

  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  using Handler = std::function<Response(const Request&)>;

  /// Cumulative exporter-side counters (served from the exporter itself,
  /// not the engine): scrape traffic is observable too.
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t requests_served = 0;
    uint64_t not_found = 0;        ///< 404 responses
    uint64_t rejected = 0;         ///< 431/503/400 responses
  };

  HttpExporter();  ///< Default Options.
  explicit HttpExporter(Options options);
  ~HttpExporter();  ///< Stop()s.

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Binds, listens, and spawns the accept thread. Idempotent once
  /// running; returns the bind/listen error otherwise.
  Status Start();

  /// Closes the listener, wakes in-flight connections, joins every thread.
  /// Safe to call repeatedly and from the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (the ephemeral pick when Options::port was 0); 0 until
  /// Start() succeeded.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Installs `handler` for exact-match `path` (replacing any previous
  /// one). Handlers may be registered before or after Start().
  void RegisterHandler(const std::string& path, Handler handler);

  /// Removes the handler and BLOCKS until no connection thread is still
  /// inside it, so the caller may destroy captured state afterwards.
  void DeregisterHandler(const std::string& path);

  /// All registered paths, sorted (drives the index page and doctor).
  std::vector<std::string> RegisteredPaths() const;

  Stats GetStats() const;

 private:
  struct Conn {
    int fd = -1;  ///< written (closed and cleared) only under conns_mutex_
    std::thread thread;
    std::atomic<bool> done{false};
  };
  /// A handler slot tracks in-flight invocations so DeregisterHandler can
  /// wait them out (shared_ptr keeps the slot alive for a thread that
  /// resolved the path just before removal).
  struct Slot {
    Handler handler;
    std::atomic<int64_t> in_flight{0};
  };

  /// Serves Start's copy of the listener; Stop clears `listen_fd_`.
  void AcceptLoop(int listen_fd);
  void ServeConnection(Conn* conn);
  Response Dispatch(const Request& request);
  void ReapFinishedLocked();

  Options options_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<uint16_t> port_{0};
  int listen_fd_ = -1;
  std::thread accept_thread_;

  mutable std::mutex handlers_mutex_;
  std::condition_variable handlers_cv_;  ///< signaled when in_flight drops
  std::map<std::string, std::shared_ptr<Slot>> handlers_;

  mutable std::mutex conns_mutex_;
  std::list<std::unique_ptr<Conn>> conns_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> not_found_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace seplsm::obs

#endif  // SEPLSM_OBS_HTTP_EXPORTER_H_
