#include "service/compile_service.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "codegen/spmd_printer.hpp"
#include "support/diagnostics.hpp"

namespace fortd::service {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

CompileService::CompileService(ServiceOptions options)
    : options_(std::move(options)),
      pool_(std::max(1, options_.jobs) - 1),
      store_(options_.cache_dir.empty()
                 ? nullptr
                 : std::make_unique<ContentStore>(CacheOptions{
                       options_.cache_dir, options_.cache_max_bytes})),
      sessions_(options_.max_sessions, options_.jobs, &pool_, store_.get()) {
  loop_.set_cycle_handler(
      [this](std::vector<net::ServerLoop::InFrame>& frames) {
        on_cycle(frames);
      });
  loop_.set_closed_handler([this](ConnId id) { hello_done_.erase(id); });
}

CompileService::~CompileService() { stop(); }

bool CompileService::start(std::string* err) {
  if (loop_.running()) return true;
  net::ServerLoop::Options lo;
  lo.host = options_.host;
  lo.port = options_.port;
  if (!loop_.start(lo, err)) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = false;
    draining_ = false;
  }
  const int n = std::max(1, options_.executors);
  executors_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i)
    executors_.emplace_back([this] { executor_loop(); });
  return true;
}

void CompileService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  flush_drain_waiters_locked();
  drain_cv_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void CompileService::stop() {
  if (!loop_.running() && executors_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : executors_) t.join();
  executors_.clear();
  loop_.stop();
}

void CompileService::send_reply(const Job& job,
                                remote::CompileReplyWire creply,
                                remote::CompileStatus status) {
  creply.status = static_cast<uint8_t>(status);
  remote::WireMessage reply;
  reply.type = remote::MsgType::CompileReply;
  reply.request_id = job.request_id;
  reply.creply = std::move(creply);
  auto bytes = encode_message(reply);
  {
    std::lock_guard<std::mutex> lock(mu_);
    switch (status) {
      case remote::CompileStatus::Ok: ++metrics_.ok; break;
      case remote::CompileStatus::CompileFail: ++metrics_.compile_fail; break;
      case remote::CompileStatus::Rejected: ++metrics_.rejected; break;
      case remote::CompileStatus::DeadlineExpired:
        ++metrics_.deadline_expired;
        break;
      case remote::CompileStatus::Draining: ++metrics_.draining; break;
    }
    metrics_.reply_bytes_total += bytes.size();
  }
  loop_.send(job.conn, std::move(bytes));
}

void CompileService::on_cycle(std::vector<net::ServerLoop::InFrame>& frames) {
  for (auto& in : frames) {
    auto msg = remote::decode_message(in.payload);
    if (!msg) {
      loop_.drop(in.conn);
      std::lock_guard<std::mutex> lock(mu_);
      ++metrics_.protocol_errors;
      continue;
    }
    auto hello = hello_done_.find(in.conn);
    if (hello == hello_done_.end() || !hello->second) {
      const uint64_t expected = options_.format_hash_override
                                    ? options_.format_hash_override
                                    : remote::remote_wire_format_hash();
      remote::WireMessage reply;
      reply.request_id = msg->request_id;
      switch (remote::process_hello(*msg, expected, &reply)) {
        case remote::HelloOutcome::Ok:
          hello_done_[in.conn] = true;
          loop_.send(in.conn, encode_message(reply));
          break;
        case remote::HelloOutcome::Reject:
          loop_.send(in.conn, encode_message(reply));
          loop_.close_after_flush(in.conn);
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++metrics_.handshake_rejects;
          }
          break;
        case remote::HelloOutcome::Protocol: {
          loop_.drop(in.conn);
          std::lock_guard<std::mutex> lock(mu_);
          ++metrics_.protocol_errors;
          break;
        }
      }
      continue;
    }

    switch (msg->type) {
      case remote::MsgType::Compile: {
        Job job;
        job.conn = in.conn;
        job.request_id = msg->request_id;
        job.source = std::move(msg->text);
        job.copts = msg->copts;
        job.enqueued = Clock::now();
        const uint32_t deadline_ms = job.copts.deadline_ms
                                         ? job.copts.deadline_ms
                                         : options_.default_deadline_ms;
        if (deadline_ms) {
          job.has_deadline = true;
          job.deadline =
              job.enqueued + std::chrono::milliseconds(deadline_ms);
        }
        bool admitted = false;
        remote::CompileStatus refusal = remote::CompileStatus::Rejected;
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++metrics_.requests;
          if (draining_ || stop_) {
            refusal = remote::CompileStatus::Draining;
          } else if (queue_.size() >= options_.max_queue) {
            refusal = remote::CompileStatus::Rejected;
          } else {
            queue_.push_back(std::move(job));
            metrics_.queue_peak =
                std::max(metrics_.queue_peak, queue_.size());
            admitted = true;
          }
        }
        if (admitted) {
          work_cv_.notify_one();
        } else {
          send_reply(job, remote::CompileReplyWire{}, refusal);
        }
        break;
      }
      case remote::MsgType::Metrics: {
        remote::WireMessage reply;
        reply.type = remote::MsgType::MetricsOk;
        reply.request_id = msg->request_id;
        reply.text = metrics_json();
        loop_.send(in.conn, encode_message(reply));
        break;
      }
      case remote::MsgType::Drain: {
        std::lock_guard<std::mutex> lock(mu_);
        draining_ = true;
        drain_waiters_.emplace_back(in.conn, msg->request_id);
        flush_drain_waiters_locked();
        break;
      }
      default: {
        remote::WireMessage reply;
        reply.type = remote::MsgType::Error;
        reply.request_id = msg->request_id;
        reply.text = "unexpected message type";
        loop_.send(in.conn, encode_message(reply));
        loop_.close_after_flush(in.conn);
        break;
      }
    }
  }
}

void CompileService::flush_drain_waiters_locked() {
  if (!draining_ || !queue_.empty() || in_flight_ != 0) return;
  for (const auto& [conn, request_id] : drain_waiters_) {
    remote::WireMessage reply;
    reply.type = remote::MsgType::DrainOk;
    reply.request_id = request_id;
    loop_.send(conn, encode_message(reply));
  }
  drain_waiters_.clear();
  drain_cv_.notify_all();
}

void CompileService::executor_loop() {
  for (;;) {
    Job job;
    double queue_ms = 0.0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      metrics_.in_flight_peak = std::max(metrics_.in_flight_peak, in_flight_);
      queue_ms = ms_since(job.enqueued);
      metrics_.queue_ms_total += queue_ms;
      metrics_.queue_ms_max = std::max(metrics_.queue_ms_max, queue_ms);
    }
    run_job(job, queue_ms);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      flush_drain_waiters_locked();
      drain_cv_.notify_all();
    }
  }
}

void CompileService::run_job(Job& job, double queue_ms) {
  if (job.has_deadline && Clock::now() > job.deadline) {
    // The whole budget went to queueing: dropping beats compiling work
    // whose requester already gave up and fell back to a local compile.
    send_reply(job, remote::CompileReplyWire{},
               remote::CompileStatus::DeadlineExpired);
    return;
  }
  if (options_.before_compile) options_.before_compile();

  remote::CompileReplyWire cw;
  remote::CompileStatus status = remote::CompileStatus::Ok;
  const auto t_start = Clock::now();
  CompilerStats stats;
  auto session = sessions_.acquire(job.copts);
  {
    std::lock_guard<std::mutex> session_lock(session->mu);
    try {
      CompileResult result = session->compiler.compile_source(job.source);
      cw.generated = static_cast<uint32_t>(result.stats.generated);
      cw.summaries_computed =
          static_cast<uint32_t>(result.stats.summaries_computed);
      cw.spmd = print_spmd(result.spmd);

      if (job.copts.analyze) {
        cw.findings = static_cast<uint32_t>(
            result.lint.warnings +
            static_cast<int>(result.verify.diags.size()));
        if (job.copts.want_lint_json)
          cw.lint_json = session->compiler.last_lint_report().json();
      }
      cw.diagnostics = compile_report(result, job.copts.analyze);
    } catch (const CompileError& e) {
      status = remote::CompileStatus::CompileFail;
      cw.diagnostics = "fortdc: " + std::string(e.what()) + "\n";
    }
    // Filled in before a CompileError propagates, the parse included.
    stats = session->compiler.last_stats();
  }
  const double compile_ms = ms_since(t_start) - stats.parse_ms;

  {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_.parse_ms_total += stats.parse_ms;
    metrics_.compile_ms_total += compile_ms;
  }
  if (job.copts.want_timings) {
    char json[512];
    std::snprintf(
        json, sizeof(json),
        "{\"queue_ms\":%.2f,\"parse_ms\":%.2f,\"compile_ms\":%.2f,"
        "\"bind_ms\":%.2f,\"ipa_ms\":%.2f,\"overlap_ms\":%.2f,"
        "\"codegen_ms\":%.2f,\"generated\":%u,"
        "\"summaries_computed\":%u,\"jobs\":%d}",
        queue_ms, stats.parse_ms, compile_ms, stats.bind_ms, stats.ipa_ms,
        stats.overlap_ms, stats.codegen_ms, cw.generated,
        cw.summaries_computed, stats.jobs);
    cw.timings_json = json;
  }
  send_reply(job, std::move(cw), status);
}

std::string CompileService::metrics_json() const {
  const auto lc = loop_.counters();
  const auto sc = sessions_.counters();
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  char num[64];
  auto put_ms = [&](const char* key, double v, bool comma = true) {
    std::snprintf(num, sizeof(num), "\"%s\":%.2f", key, v);
    out << num;
    if (comma) out << ",";
  };
  out << "{\"requests\":" << metrics_.requests << ",\"ok\":" << metrics_.ok
      << ",\"compile_fail\":" << metrics_.compile_fail
      << ",\"rejected\":" << metrics_.rejected
      << ",\"deadline_expired\":" << metrics_.deadline_expired
      << ",\"draining\":" << metrics_.draining
      << ",\"handshake_rejects\":" << metrics_.handshake_rejects
      << ",\"protocol_errors\":" << metrics_.protocol_errors + lc.frame_errors
      << ",\"in_flight_peak\":" << metrics_.in_flight_peak
      << ",\"queue_peak\":" << metrics_.queue_peak << ",";
  put_ms("queue_ms_total", metrics_.queue_ms_total);
  put_ms("queue_ms_max", metrics_.queue_ms_max);
  put_ms("parse_ms_total", metrics_.parse_ms_total);
  put_ms("compile_ms_total", metrics_.compile_ms_total);
  out << "\"reply_bytes_total\":" << metrics_.reply_bytes_total
      << ",\"connections_accepted\":" << lc.connections_accepted
      << ",\"connections_closed\":" << lc.connections_closed
      << ",\"disconnects_mid_reply\":" << lc.disconnects_mid_reply
      << ",\"replies_dropped\":" << lc.replies_dropped
      << ",\"sessions\":{\"hits\":" << sc.hits << ",\"misses\":" << sc.misses
      << ",\"evictions\":" << sc.evictions << ",\"resident\":" << sc.sessions
      << "}}";
  return out.str();
}

}  // namespace fortd::service
