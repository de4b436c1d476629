#include "net/server_loop.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>

namespace fortd::net {

namespace {

/// The ServerLoop whose serve_loop() runs on this thread, if any. send()
/// asks this rather than thread_: start() assigns thread_ while the loop
/// thread is already running, so reading it there would race.
thread_local const ServerLoop* tl_serving_loop = nullptr;

}  // namespace

ServerLoop::~ServerLoop() { stop(); }

bool ServerLoop::start(const Options& options, std::string* err) {
  if (running_.load()) return true;
  options_ = options;
  if (!listener_.listen_on(options_.host, options_.port, err)) return false;
  int pipefd[2] = {-1, -1};
  if (::pipe(pipefd) != 0) {
    if (err) *err = "cannot create wake pipe";
    listener_.close();
    return false;
  }
  ::fcntl(pipefd[0], F_SETFL, O_NONBLOCK);
  ::fcntl(pipefd[1], F_SETFL, O_NONBLOCK);
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  stopping_.store(false);
  running_.store(true);
  thread_ = std::thread([this] {
    tl_serving_loop = this;
    serve_loop();
  });
  return true;
}

void ServerLoop::stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  if (wake_wr_ >= 0) {
    const char b = 0;
    [[maybe_unused]] ssize_t rc = ::write(wake_wr_, &b, 1);
  }
  if (thread_.joinable()) thread_.join();
  listener_.close();
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  wake_rd_ = wake_wr_ = -1;
  running_.store(false);
}

bool ServerLoop::send(ConnId conn, std::vector<uint8_t> payload) {
  std::vector<uint8_t> framed;
  if (!encode_frame(framed, payload)) return false;
  const bool on_loop_thread = tl_serving_loop == this;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (std::find(live_.begin(), live_.end(), conn) == live_.end()) {
      ++counters_.replies_dropped;
      return false;
    }
    PendingOp op;
    op.conn = conn;
    op.framed = std::move(framed);
    pending_.push_back(std::move(op));
  }
  // An executor thread finishing a request must not wait a full poll
  // timeout for its reply to move; the loop thread applies pending ops
  // within the running cycle anyway.
  if (!on_loop_thread && wake_wr_ >= 0) {
    const char b = 0;
    [[maybe_unused]] ssize_t rc = ::write(wake_wr_, &b, 1);
  }
  return true;
}

void ServerLoop::close_after_flush(ConnId conn) {
  std::lock_guard<std::mutex> lock(mu_);
  PendingOp op;
  op.conn = conn;
  pending_.push_back(std::move(op));
}

void ServerLoop::drop(ConnId conn) {
  std::lock_guard<std::mutex> lock(mu_);
  PendingOp op;
  op.conn = conn;
  op.drop = true;
  pending_.push_back(std::move(op));
}

ServerLoop::Counters ServerLoop::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void ServerLoop::apply_pending_locked() {
  for (auto& op : pending_) {
    auto it = conns_.find(op.conn);
    if (it == conns_.end()) {
      // The peer vanished between the reply's computation and this
      // cycle: the work is discarded, the loop unharmed.
      if (!op.framed.empty()) ++counters_.replies_dropped;
      continue;
    }
    if (op.framed.empty()) {
      if (op.drop)
        it->second->doomed = true;
      else
        it->second->closing = true;
    } else {
      it->second->outbuf.append(reinterpret_cast<const char*>(op.framed.data()),
                                op.framed.size());
    }
  }
  pending_.clear();
}

bool ServerLoop::read_conn(Conn& conn, ConnId id,
                           std::vector<InFrame>& frames) {
  std::string data;
  const auto st = conn.sock.recv_available(data);
  conn.decoder.feed(data);
  size_t got = 0;
  while (auto frame = conn.decoder.next()) {
    frames.push_back(InFrame{id, std::move(*frame)});
    ++got;
  }
  if (conn.decoder.failed()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.frame_errors;
    return false;
  }
  if (st == IoStatus::Error) return false;
  // EOF with frames still buffered: serve them this cycle, the next
  // poll drops the connection.
  if (st == IoStatus::Closed && got == 0) return false;
  return true;
}

void ServerLoop::serve_loop() {
  while (!stopping_.load()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      apply_pending_locked();
    }

    // fds: [0] listener, [1] wake pipe, then one per connection (ids
    // mirrors those entries).
    std::vector<struct pollfd> fds;
    std::vector<ConnId> ids;
    fds.push_back({listener_.fd(), POLLIN, 0});
    fds.push_back({wake_rd_, POLLIN, 0});
    for (const auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (!conn->outbuf.empty()) events |= POLLOUT;
      fds.push_back({conn->sock.fd(), events, 0});
      ids.push_back(id);
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), options_.poll_ms);

    if (fds[1].revents & POLLIN) {
      char buf[256];
      while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }

    if (fds[0].revents & POLLIN) {
      while (auto sock = listener_.accept_conn()) {
        auto conn = std::make_unique<Conn>();
        conn->sock = std::move(*sock);
        const ConnId id = next_id_++;
        conns_.emplace(id, std::move(conn));
        std::lock_guard<std::mutex> lock(mu_);
        live_.push_back(id);
        ++counters_.connections_accepted;
      }
    }

    // Gather complete frames from every readable connection.
    std::vector<ConnId> dropped;
    std::vector<InFrame> frames;
    for (size_t i = 0; i < ids.size(); ++i) {
      const short revents = fds[i + 2].revents;
      auto& conn = *conns_[ids[i]];
      if (conn.doomed) continue;
      if (revents & (POLLERR | POLLNVAL)) {
        conn.doomed = true;
        continue;
      }
      if (revents & (POLLIN | POLLHUP)) {
        if (!read_conn(conn, ids[i], frames)) conn.doomed = true;
      }
    }

    if (!frames.empty() && on_cycle_) on_cycle_(frames);

    // Handler and executor sends land before this cycle's output drain.
    {
      std::lock_guard<std::mutex> lock(mu_);
      apply_pending_locked();
    }

    // Drain output buffers. A peer that disconnected with output still
    // queued (EPIPE/reset — MSG_NOSIGNAL, so no SIGPIPE) is reaped and
    // counted; the loop itself never tears down.
    for (auto& [id, conn] : conns_) {
      if (conn->doomed || conn->outbuf.empty()) {
        if (!conn->doomed && conn->closing && conn->outbuf.empty())
          conn->doomed = true;
        continue;
      }
      size_t sent = 0;
      auto st = conn->sock.send_nonblocking(
          reinterpret_cast<const uint8_t*>(conn->outbuf.data()),
          conn->outbuf.size(), sent);
      if (sent > 0) conn->outbuf.erase(0, sent);
      if (st != IoStatus::Ok) conn->doomed = true;
      if (conn->closing && conn->outbuf.empty()) conn->doomed = true;
    }

    // Reap. Output still queued on a doomed connection is a reply its
    // peer never gets, whether the peer hung up before the reply was
    // queued or while it was being written.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second->doomed) {
        const ConnId id = it->first;
        const bool reply_lost = !it->second->outbuf.empty();
        it = conns_.erase(it);
        {
          std::lock_guard<std::mutex> lock(mu_);
          live_.erase(std::remove(live_.begin(), live_.end(), id),
                      live_.end());
          ++counters_.connections_closed;
          if (reply_lost) ++counters_.disconnects_mid_reply;
        }
        if (on_closed_) on_closed_(id);
      } else {
        ++it;
      }
    }
  }
  // Shutdown: flush what is already queued (bounded — a graceful drain's
  // final replies must reach their clients), then close everything.
  {
    std::lock_guard<std::mutex> lock(mu_);
    apply_pending_locked();
  }
  for (int spins = 0; spins < 20; ++spins) {
    bool outstanding = false;
    for (auto& [id, conn] : conns_) {
      if (conn->doomed || conn->outbuf.empty()) continue;
      size_t sent = 0;
      auto st = conn->sock.send_nonblocking(
          reinterpret_cast<const uint8_t*>(conn->outbuf.data()),
          conn->outbuf.size(), sent);
      if (sent > 0) conn->outbuf.erase(0, sent);
      if (st != IoStatus::Ok) {
        conn->doomed = true;
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.disconnects_mid_reply;
        continue;
      }
      if (!conn->outbuf.empty()) outstanding = true;
    }
    if (!outstanding) break;
    ::poll(nullptr, 0, 25);  // let the peers' receive windows reopen
  }
  // Close every connection (handlers see the closures).
  for (auto& [id, conn] : conns_) {
    (void)conn;
    if (on_closed_) on_closed_(id);
  }
  conns_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  live_.clear();
}

}  // namespace fortd::net
