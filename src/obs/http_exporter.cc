#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/logging.h"

namespace seplsm::obs {

namespace {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default:  return "Unknown";
  }
}

/// Serializes one response; HEAD carries the headers (incl. the real
/// Content-Length) but no body.
std::string SerializeResponse(const HttpExporter::Response& response,
                              bool head_only) {
  std::ostringstream out;
  out << "HTTP/1.1 " << response.status << " "
      << ReasonPhrase(response.status) << "\r\n"
      << "Content-Type: " << response.content_type << "\r\n"
      << "Content-Length: " << response.body.size() << "\r\n"
      << "Connection: close\r\n\r\n";
  if (!head_only) out << response.body;
  return out.str();
}

void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer went away; nothing to do
    }
    sent += static_cast<size_t>(n);
  }
}

}  // namespace

HttpExporter::HttpExporter() : HttpExporter(Options()) {}

HttpExporter::HttpExporter(Options options) : options_(std::move(options)) {}

HttpExporter::~HttpExporter() { Stop(); }

Status HttpExporter::Start() {
  if (running_.load(std::memory_order_acquire)) return Status::OK();
  stopping_.store(false, std::memory_order_release);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, options_.backlog) != 0) {
    Status st =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    Status st =
        Status::IOError(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  listen_fd_ = fd;
  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this, fd] { AcceptLoop(fd); });
  return Status::OK();
}

void HttpExporter::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Shutting the listener down unblocks accept(2). It is closed only once
  // the accept thread has exited, so that thread can never call accept on
  // a reused fd number.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Wake every in-flight connection (their recv returns 0/-1), then join.
  std::list<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void HttpExporter::RegisterHandler(const std::string& path, Handler handler) {
  auto slot = std::make_shared<Slot>();
  slot->handler = std::move(handler);
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  handlers_[path] = std::move(slot);
}

void HttpExporter::DeregisterHandler(const std::string& path) {
  std::shared_ptr<Slot> slot;
  {
    std::unique_lock<std::mutex> lock(handlers_mutex_);
    auto it = handlers_.find(path);
    if (it == handlers_.end()) return;
    slot = std::move(it->second);
    handlers_.erase(it);
    // A connection thread that resolved this slot before the erase is
    // still inside the handler; wait until every such invocation left.
    handlers_cv_.wait(lock, [&slot] {
      return slot->in_flight.load(std::memory_order_acquire) == 0;
    });
  }
}

std::vector<std::string> HttpExporter::RegisteredPaths() const {
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  std::vector<std::string> out;
  out.reserve(handlers_.size());
  for (const auto& [path, slot] : handlers_) {
    (void)slot;
    out.push_back(path);
  }
  return out;  // map order is already sorted
}

HttpExporter::Stats HttpExporter::GetStats() const {
  Stats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.requests_served = requests_served_.load(std::memory_order_relaxed);
  s.not_found = not_found_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  return s;
}

void HttpExporter::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void HttpExporter::AcceptLoop(int listen_fd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Stop() closed the listener (or it broke for good); either way the
      // loop is done.
      return;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    // A read timeout bounds how long a silent client can pin its thread;
    // Stop() still wakes connections immediately via shutdown.
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    std::lock_guard<std::mutex> lock(conns_mutex_);
    ReapFinishedLocked();
    if (conns_.size() >= options_.max_connections) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      Response busy;
      busy.status = 503;
      busy.body = "exporter connection limit reached\n";
      SendAll(fd, SerializeResponse(busy, /*head_only=*/false));
      ::close(fd);
      continue;
    }
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->fd = fd;
    conn->thread = std::thread([this, conn] { ServeConnection(conn); });
  }
}

void HttpExporter::ServeConnection(Conn* conn) {
  std::string buffer;
  char chunk[1024];
  bool have_request = false;
  while (buffer.find("\r\n\r\n") == std::string::npos) {
    if (buffer.size() > options_.max_request_bytes) break;
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // closed, timed out, or shut down by Stop()
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
  const size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    if (!buffer.empty()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      Response too_big;
      too_big.status = buffer.size() > options_.max_request_bytes ? 431 : 400;
      too_big.body = "malformed or oversized request\n";
      SendAll(conn->fd, SerializeResponse(too_big, /*head_only=*/false));
    }
  } else {
    // Request line: METHOD SP TARGET SP VERSION.
    const std::string line = buffer.substr(0, buffer.find("\r\n"));
    Request request;
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                : line.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
      request.method = line.substr(0, sp1);
      std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const size_t qmark = target.find('?');
      if (qmark != std::string::npos) {
        request.query = target.substr(qmark + 1);
        target.resize(qmark);
      }
      request.path = std::move(target);
      have_request = true;
    }
    Response response;
    if (!have_request) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      response.status = 400;
      response.body = "malformed request line\n";
    } else if (request.method != "GET" && request.method != "HEAD") {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      response.status = 405;
      response.body = "only GET and HEAD are supported\n";
    } else {
      response = Dispatch(request);
      requests_served_.fetch_add(1, std::memory_order_relaxed);
      if (response.status == 404) {
        not_found_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    SendAll(conn->fd,
            SerializeResponse(response, have_request &&
                                            request.method == "HEAD"));
  }
  {
    // Stop shuts down the fds it finds open under this lock, so it can
    // never hit a number closed here and already reused.
    std::lock_guard<std::mutex> lock(conns_mutex_);
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->done.store(true, std::memory_order_release);
}

HttpExporter::Response HttpExporter::Dispatch(const Request& request) {
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    auto it = handlers_.find(request.path);
    if (it != handlers_.end()) {
      slot = it->second;
      slot->in_flight.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  if (slot == nullptr) {
    if (request.path == "/") {
      // Index: one line per registered endpoint, so a bare curl discovers
      // the surface.
      Response index;
      std::ostringstream body;
      body << "seplsm exporter\n";
      for (const auto& path : RegisteredPaths()) body << path << "\n";
      index.body = body.str();
      return index;
    }
    Response missing;
    missing.status = 404;
    missing.body = "no handler for " + request.path + "\n";
    return missing;
  }
  Response response;
  try {
    response = slot->handler(request);
  } catch (...) {
    response.status = 500;
    response.body = "handler threw\n";
  }
  {
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    slot->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  }
  handlers_cv_.notify_all();
  return response;
}

}  // namespace seplsm::obs
