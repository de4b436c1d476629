#include "service/session.hpp"

#include "frontend/ast_serialize.hpp"
#include "frontend/parser.hpp"
#include "support/serialize.hpp"

namespace fortd::service {

SourceProgram AstCache::get(const std::string& source,
                            int* parsed_procedures) {
  const uint64_t digest =
      fnv1a(reinterpret_cast<const uint8_t*>(source.data()), source.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(digest);
    if (it != entries_.end()) {
      lru_.erase(it->second.lru);
      lru_.push_front(digest);
      it->second.lru = lru_.begin();
      BinaryReader r(it->second.bytes);
      SourceProgram ast;
      const size_t n = r.count();
      for (size_t i = 0; i < n && r.ok(); ++i)
        ast.procedures.push_back(read_procedure(r));
      if (r.ok() && r.at_end()) {
        ++counters_.hits;
        if (parsed_procedures) *parsed_procedures = 0;
        return ast;
      }
      // A round-trip failure here would be a serializer bug; degrade to
      // a plain parse rather than fail the request.
      bytes_ -= it->second.bytes.size();
      lru_.erase(it->second.lru);
      entries_.erase(it);
    }
  }

  SourceProgram ast = parse_program(source);  // throws CompileError
  BinaryWriter w;
  w.count(ast.procedures.size());
  for (const auto& proc : ast.procedures) write_procedure(w, *proc);
  std::vector<uint8_t> bytes = w.take();

  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.misses;
  if (parsed_procedures)
    *parsed_procedures = static_cast<int>(ast.procedures.size());
  if (bytes.size() <= max_bytes_ && !entries_.count(digest)) {
    bytes_ += bytes.size();
    lru_.push_front(digest);
    Entry e;
    e.bytes = std::move(bytes);
    e.procedures = static_cast<int>(ast.procedures.size());
    e.lru = lru_.begin();
    entries_.emplace(digest, std::move(e));
    evict_locked();
  }
  return ast;
}

void AstCache::evict_locked() {
  while (bytes_ > max_bytes_ && lru_.size() > 1) {
    const uint64_t victim = lru_.back();
    auto it = entries_.find(victim);
    bytes_ -= it->second.bytes.size();
    entries_.erase(it);
    lru_.pop_back();
    ++counters_.evictions;
  }
}

AstCache::Counters AstCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters c = counters_;
  c.bytes = bytes_;
  c.entries = entries_.size();
  return c;
}

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
