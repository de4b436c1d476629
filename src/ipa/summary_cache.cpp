#include "ipa/summary_cache.hpp"

#include "driver/compilation_db.hpp"
#include "ir/ir_serialize.hpp"

namespace fortd {

const char kSummaryArtifactKind[] = "summary";

void write_overlap_map(BinaryWriter& w,
                       const std::map<std::string, OverlapOffsets>& m) {
  w.count(m.size());
  for (const auto& [array, off] : m) {
    w.str(array);
    w.count(off.pos.size());
    for (int64_t v : off.pos) w.i64(v);
    w.count(off.neg.size());
    for (int64_t v : off.neg) w.i64(v);
  }
}

std::map<std::string, OverlapOffsets> read_overlap_map(BinaryReader& r) {
  std::map<std::string, OverlapOffsets> m;
  size_t n = r.count();
  for (size_t i = 0; i < n; ++i) {
    OverlapOffsets& off = m[r.str()];
    off.pos.resize(r.count());
    for (int64_t& v : off.pos) v = r.i64();
    off.neg.resize(r.count());
    for (int64_t& v : off.neg) v = r.i64();
  }
  return m;
}

namespace {

std::vector<const Stmt*> preorder_stmts(const Procedure& proc) {
  std::vector<const Stmt*> out;
  walk_stmts(proc.body, [&](const Stmt& s) { out.push_back(&s); });
  return out;
}

void write_idx_vec(BinaryWriter& w, const std::vector<size_t>& v) {
  w.count(v.size());
  for (size_t x : v) w.u64(x);
}

std::vector<size_t> read_idx_vec(BinaryReader& r) {
  std::vector<size_t> v(r.count());
  for (size_t& x : v) x = static_cast<size_t>(r.u64());
  return v;
}

}  // namespace

std::vector<uint8_t> IpaSummaryCache::serialize_entry(const Entry& entry) {
  const ProcSummary& s = entry.summary;
  BinaryWriter w;
  w.str(s.proc);
  w.u64(s.hash);
  write_str_set(w, s.mod);
  write_str_set(w, s.ref);
  write_rsd_map(w, s.defs);
  write_rsd_map(w, s.uses);
  w.count(s.align.size());
  for (const auto& [array, info] : s.align) {
    w.str(array);
    w.str(info.target);
    w.count(info.perm.size());
    for (int p : info.perm) w.i64(p);
  }
  // distribute_stmts / local_reaching call_stmts are stored as pre-order
  // indices (the pointers in entry.summary are already nulled).
  write_idx_vec(w, entry.distribute_idx);
  w.count(s.local_reaching.size());
  for (const LocalReachingEntry& lr : s.local_reaching) {
    w.str(lr.callee);
    write_decomp_sets(w, lr.reaching);
  }
  write_idx_vec(w, entry.call_idx);
  write_overlap_map(w, s.overlaps);
  w.boolean(s.has_dynamic_decomp);
  w.u64(entry.stmt_count);
  return w.take();
}

std::optional<IpaSummaryCache::Entry> IpaSummaryCache::deserialize_entry(
    const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  Entry entry;
  ProcSummary& s = entry.summary;
  s.proc = r.str();
  s.hash = r.u64();
  s.mod = read_str_set(r);
  s.ref = read_str_set(r);
  s.defs = read_rsd_map(r);
  s.uses = read_rsd_map(r);
  size_t n = r.count();
  for (size_t i = 0; i < n; ++i) {
    std::string array = r.str();
    AlignInfo info;
    info.target = r.str();
    size_t m = r.count();
    info.perm.reserve(m);
    for (size_t k = 0; k < m; ++k)
      info.perm.push_back(static_cast<int>(r.i64()));
    s.align[array] = std::move(info);
  }
  entry.distribute_idx = read_idx_vec(r);
  s.distribute_stmts.assign(entry.distribute_idx.size(), nullptr);
  n = r.count();
  s.local_reaching.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    LocalReachingEntry lr;
    lr.callee = r.str();
    lr.reaching = read_decomp_sets(r);
    s.local_reaching.push_back(std::move(lr));
  }
  entry.call_idx = read_idx_vec(r);
  if (entry.call_idx.size() != s.local_reaching.size()) return std::nullopt;
  s.overlaps = read_overlap_map(r);
  s.has_dynamic_decomp = r.boolean();
  entry.stmt_count = static_cast<size_t>(r.u64());
  if (!r.ok() || !r.at_end()) return std::nullopt;
  // Index sanity: every rehydration slot must fall inside the body.
  for (size_t idx : entry.distribute_idx)
    if (idx >= entry.stmt_count) return std::nullopt;
  for (size_t idx : entry.call_idx)
    if (idx >= entry.stmt_count) return std::nullopt;
  return entry;
}

std::optional<IpaSummaryCache::Entry> IpaSummaryCache::fetch(uint64_t hash) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(hash);
    if (it != entries_.end()) return it->second;  // copy: insert() may race
  }
  if (store_) {
    if (auto payload = store_->load(kSummaryArtifactKind,
                                    artifact_format_hash(kSummaryArtifactKind),
                                    hash)) {
      if (auto entry = deserialize_entry(*payload)) {
        std::lock_guard<std::mutex> lock(mu_);
        entries_[hash] = *entry;  // promote into the memory tier
        return entry;
      }
      store_->mark_corrupt(kSummaryArtifactKind, hash);
    }
  }
  return std::nullopt;
}

std::optional<ProcSummary> IpaSummaryCache::lookup(uint64_t hash,
                                                   const Procedure& proc) {
  std::optional<Entry> entry = fetch(hash);
  if (!entry) {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    return std::nullopt;
  }
  // Rehydrate Stmt pointers against the current AST. The hash covers the
  // whole procedure structure, so the pre-order shape must match; the
  // count check guards against hash collisions.
  std::vector<const Stmt*> order = preorder_stmts(proc);
  if (order.size() != entry->stmt_count) {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    return std::nullopt;
  }
  ProcSummary out = std::move(entry->summary);
  for (size_t i = 0; i < entry->distribute_idx.size(); ++i)
    out.distribute_stmts[i] = order[entry->distribute_idx[i]];
  for (size_t i = 0; i < entry->call_idx.size(); ++i)
    out.local_reaching[i].call_stmt = order[entry->call_idx[i]];
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++hits_;
  }
  return out;
}

void IpaSummaryCache::insert(uint64_t hash, const Procedure& proc,
                             const ProcSummary& summary) {
  std::map<const Stmt*, size_t> index_of;
  size_t count = 0;
  walk_stmts(proc.body, [&](const Stmt& s) { index_of[&s] = count++; });

  Entry entry;
  entry.stmt_count = count;
  entry.summary = summary;
  for (size_t i = 0; i < summary.distribute_stmts.size(); ++i) {
    auto it = index_of.find(summary.distribute_stmts[i]);
    if (it == index_of.end()) return;  // foreign pointer: refuse to cache
    entry.distribute_idx.push_back(it->second);
    entry.summary.distribute_stmts[i] = nullptr;
  }
  for (size_t i = 0; i < summary.local_reaching.size(); ++i) {
    auto it = index_of.find(summary.local_reaching[i].call_stmt);
    if (it == index_of.end()) return;
    entry.call_idx.push_back(it->second);
    entry.summary.local_reaching[i].call_stmt = nullptr;
  }

  if (store_)
    store_->store(kSummaryArtifactKind,
                  artifact_format_hash(kSummaryArtifactKind), hash,
                  serialize_entry(entry));
  std::lock_guard<std::mutex> lock(mu_);
  entries_[hash] = std::move(entry);
}

uint64_t IpaSummaryCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t IpaSummaryCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

size_t IpaSummaryCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace fortd
