#include "service/session.hpp"

namespace fortd::service {

SessionCache::SessionCache(size_t max_sessions, int jobs, ThreadPool* pool,
                           ContentStore* store)
    : max_sessions_(max_sessions < 1 ? 1 : max_sessions),
      jobs_(jobs < 1 ? 1 : jobs),
      pool_(pool),
      store_(store) {}

uint64_t SessionCache::key_of(const remote::CompileOptionsWire& copts) {
  // analyze is part of the key: a lint-enabled Compiler carries lint
  // state the plain one does not. want_lint_json/want_timings are
  // reply-shaping only and deliberately excluded.
  return (static_cast<uint64_t>(copts.n_procs) << 32) |
         (static_cast<uint64_t>(copts.strategy) << 16) |
         (static_cast<uint64_t>(copts.dyn_decomp) << 8) |
         static_cast<uint64_t>(copts.analyze ? 1 : 0);
}

std::shared_ptr<Session> SessionCache::acquire(
    const remote::CompileOptionsWire& copts) {
  const uint64_t key = key_of(copts);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(key);
  if (it != sessions_.end()) {
    lru_.erase(it->second.second);
    lru_.push_front(key);
    it->second.second = lru_.begin();
    ++counters_.hits;
    return it->second.first;
  }

  CodegenOptions options;
  options.n_procs = static_cast<int>(copts.n_procs);
  options.jobs = jobs_;
  options.strategy = static_cast<Strategy>(copts.strategy);
  options.dyn_decomp = static_cast<DynDecompOpt>(copts.dyn_decomp);
  IpaOptions ipa_options;
  LintOptions lint_options;
  if (copts.analyze) {
    lint_options.analyze = true;
    lint_options.verify_spmd = true;
  }
  auto session =
      std::make_shared<Session>(options, ipa_options, lint_options);
  if (pool_) session->compiler.set_shared_pool(pool_);
  if (store_) session->compiler.set_shared_store(store_);
  lru_.push_front(key);
  sessions_.emplace(key, std::make_pair(session, lru_.begin()));
  ++counters_.misses;
  while (sessions_.size() > max_sessions_) {
    const uint64_t victim = lru_.back();
    sessions_.erase(victim);
    lru_.pop_back();
    ++counters_.evictions;
  }
  return session;
}

SessionCache::Counters SessionCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters c = counters_;
  c.sessions = sessions_.size();
  return c;
}

}  // namespace fortd::service
