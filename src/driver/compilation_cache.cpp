#include "driver/compilation_cache.hpp"

#include "driver/compilation_db.hpp"
#include "frontend/ast_serialize.hpp"
#include "ipa/recompilation.hpp"
#include "ipa/summaries.hpp"
#include "ir/ir_serialize.hpp"

namespace fortd {

// ---------------------------------------------------------------------------
// Persistent artifact codec (kind "proc")
// ---------------------------------------------------------------------------

const char kProcArtifactKind[] = "proc";

namespace {

void write_affine(BinaryWriter& w, const AffineForm& f) {
  w.count(f.coeffs.size());
  for (const auto& [var, coeff] : f.coeffs) {
    w.str(var);
    w.i64(coeff);
  }
  w.i64(f.konst);
}

AffineForm read_affine(BinaryReader& r) {
  AffineForm f;
  size_t n = r.count();
  for (size_t i = 0; i < n; ++i) {
    std::string var = r.str();
    f.coeffs[var] = r.i64();
  }
  f.konst = r.i64();
  return f;
}

void write_sym_triplet(BinaryWriter& w, const SymTriplet& t) {
  write_affine(w, t.lb);
  write_affine(w, t.ub);
  w.i64(t.step);
}

SymTriplet read_sym_triplet(BinaryReader& r) {
  SymTriplet t;
  t.lb = read_affine(r);
  t.ub = read_affine(r);
  t.step = r.i64();
  return t;
}

void write_sym_section(BinaryWriter& w, const SymSection& s) {
  w.count(s.size());
  for (const SymTriplet& t : s) write_sym_triplet(w, t);
}

SymSection read_sym_section(BinaryReader& r) {
  SymSection s(r.count());
  for (SymTriplet& t : s) t = read_sym_triplet(r);
  return s;
}

void write_comm_event(BinaryWriter& w, const CommEvent& e) {
  w.u8(static_cast<uint8_t>(e.kind));
  w.str(e.array);
  write_decomp_spec(w, e.spec);
  w.count(e.bounds.size());
  for (const auto& [lo, hi] : e.bounds) {
    w.i64(lo);
    w.i64(hi);
  }
  w.i64(e.dist_dim);
  w.i64(e.shift);
  write_sym_section(w, e.section);
  write_affine(w, e.root_index);
  w.str(e.scalar);
  w.i64(e.hoisted_loops);
  write_loc(w, e.loc);
}

CommEvent read_comm_event(BinaryReader& r) {
  CommEvent e;
  uint8_t kind = r.u8();
  if (kind > static_cast<uint8_t>(CommEvent::Kind::ScalarBcast)) r.fail();
  else e.kind = static_cast<CommEvent::Kind>(kind);
  e.array = r.str();
  e.spec = read_decomp_spec(r);
  size_t n = r.count();
  e.bounds.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t lo = r.i64();
    int64_t hi = r.i64();
    e.bounds.emplace_back(lo, hi);
  }
  e.dist_dim = static_cast<int>(r.i64());
  e.shift = r.i64();
  e.section = read_sym_section(r);
  e.root_index = read_affine(r);
  e.scalar = r.str();
  e.hoisted_loops = static_cast<int>(r.i64());
  e.loc = read_loc(r);
  return e;
}

void write_iteration_set(BinaryWriter& w, const IterationSet& s) {
  w.u8(static_cast<uint8_t>(s.kind));
  const OwnershipConstraint& c = s.constraint;
  w.str(c.var);
  write_affine(w, c.fixed);
  w.str(c.array);
  w.i64(c.dim);
  w.i64(c.offset);
}

IterationSet read_iteration_set(BinaryReader& r) {
  IterationSet s;
  uint8_t kind = r.u8();
  if (kind > static_cast<uint8_t>(IterationSet::Kind::RuntimeOnly)) r.fail();
  else s.kind = static_cast<IterationSet::Kind>(kind);
  s.constraint.var = r.str();
  s.constraint.fixed = read_affine(r);
  s.constraint.array = r.str();
  s.constraint.dim = static_cast<int>(r.i64());
  s.constraint.offset = r.i64();
  return s;
}

void write_exports(BinaryWriter& w, const ProcExports& e) {
  write_iteration_set(w, e.iter_set);
  w.count(e.pending_comms.size());
  for (const CommEvent& ev : e.pending_comms) write_comm_event(w, ev);
  w.count(e.sym_defs.size());
  for (const auto& [array, sections] : e.sym_defs) {
    w.str(array);
    w.count(sections.size());
    for (const SymSection& s : sections) write_sym_section(w, s);
  }
  write_str_set(w, e.decomp_use);
  write_str_set(w, e.decomp_kill);
  w.count(e.decomp_before.size());
  for (const auto& [spec, var] : e.decomp_before) {
    write_decomp_spec(w, spec);
    w.str(var);
  }
  w.count(e.decomp_after.size());
  for (const auto& [spec, var] : e.decomp_after) {
    write_decomp_spec(w, spec);
    w.str(var);
  }
  write_str_set(w, e.scalar_mods);
  w.boolean(e.contains_comm);
  w.count(e.shift_demand.size());
  for (const auto& [array, demand] : e.shift_demand) {
    w.str(array);
    w.i64(demand.first);
    w.i64(demand.second);
  }
}

ProcExports read_exports(BinaryReader& r) {
  ProcExports e;
  e.iter_set = read_iteration_set(r);
  size_t n = r.count();
  e.pending_comms.reserve(n);
  for (size_t i = 0; i < n; ++i) e.pending_comms.push_back(read_comm_event(r));
  n = r.count();
  for (size_t i = 0; i < n; ++i) {
    std::string array = r.str();
    size_t m = r.count();
    std::vector<SymSection> sections;
    sections.reserve(m);
    for (size_t k = 0; k < m; ++k) sections.push_back(read_sym_section(r));
    e.sym_defs[array] = std::move(sections);
  }
  e.decomp_use = read_str_set(r);
  e.decomp_kill = read_str_set(r);
  n = r.count();
  e.decomp_before.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    DecompSpec spec = read_decomp_spec(r);
    e.decomp_before.emplace_back(std::move(spec), r.str());
  }
  n = r.count();
  e.decomp_after.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    DecompSpec spec = read_decomp_spec(r);
    e.decomp_after.emplace_back(std::move(spec), r.str());
  }
  e.scalar_mods = read_str_set(r);
  e.contains_comm = r.boolean();
  n = r.count();
  for (size_t i = 0; i < n; ++i) {
    std::string array = r.str();
    int64_t lo = r.i64();
    int64_t hi = r.i64();
    e.shift_demand[array] = {lo, hi};
  }
  return e;
}

void write_storage_info(BinaryWriter& w, const ArrayStorageInfo& s) {
  w.str(s.array);
  write_decomp_spec(w, s.spec);
  w.i64(s.dist_dim);
  w.i64(s.local_extent);
  w.i64(s.other_extent);
  w.i64(s.overlap_lo);
  w.i64(s.overlap_hi);
  w.i64(s.est_lo);
  w.i64(s.est_hi);
  w.boolean(s.used_buffer);
  w.boolean(s.parameterized);
}

ArrayStorageInfo read_storage_info(BinaryReader& r) {
  ArrayStorageInfo s;
  s.array = r.str();
  s.spec = read_decomp_spec(r);
  s.dist_dim = static_cast<int>(r.i64());
  s.local_extent = r.i64();
  s.other_extent = r.i64();
  s.overlap_lo = r.i64();
  s.overlap_hi = r.i64();
  s.est_lo = r.i64();
  s.est_hi = r.i64();
  s.used_buffer = r.boolean();
  s.parameterized = r.boolean();
  return s;
}

void write_compile_stats(BinaryWriter& w, const CompileStats& s) {
  w.i64(s.clones_created);
  w.i64(s.vectorized_messages);
  w.i64(s.delayed_comms_exported);
  w.i64(s.delayed_comms_absorbed);
  w.i64(s.delayed_iter_sets_exported);
  w.i64(s.loops_bounds_reduced);
  w.i64(s.guards_inserted);
  w.i64(s.scalar_broadcasts);
  w.i64(s.runtime_resolved_stmts);
  w.i64(s.remaps_inserted);
  w.i64(s.remaps_eliminated_dead);
  w.i64(s.remaps_coalesced);
  w.i64(s.remaps_hoisted);
  w.i64(s.remaps_marked_in_place);
  w.i64(s.buffers_used);
}

CompileStats read_compile_stats(BinaryReader& r) {
  CompileStats s;
  s.clones_created = static_cast<int>(r.i64());
  s.vectorized_messages = static_cast<int>(r.i64());
  s.delayed_comms_exported = static_cast<int>(r.i64());
  s.delayed_comms_absorbed = static_cast<int>(r.i64());
  s.delayed_iter_sets_exported = static_cast<int>(r.i64());
  s.loops_bounds_reduced = static_cast<int>(r.i64());
  s.guards_inserted = static_cast<int>(r.i64());
  s.scalar_broadcasts = static_cast<int>(r.i64());
  s.runtime_resolved_stmts = static_cast<int>(r.i64());
  s.remaps_inserted = static_cast<int>(r.i64());
  s.remaps_eliminated_dead = static_cast<int>(r.i64());
  s.remaps_coalesced = static_cast<int>(r.i64());
  s.remaps_hoisted = static_cast<int>(r.i64());
  s.remaps_marked_in_place = static_cast<int>(r.i64());
  s.buffers_used = static_cast<int>(r.i64());
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------------

uint64_t procedure_digest(const Procedure& proc, const BoundProgram& program,
                          const IpaContext& ipa,
                          const OverlapEstimates& overlaps,
                          const CodegenOptions& options,
                          const std::map<std::string, ProcExports>& callee_exports) {
  BinaryWriter w(/*positions=*/false);
  auto sit = ipa.summaries.find(proc.name);
  w.u64(sit != ipa.summaries.end() ? sit->second.hash : hash_procedure(proc));
  write_codegen_inputs(w, proc.name, ipa, overlaps);
  // The option fields that shape the code. options.jobs is left out: the
  // schedule must not change the code, so serial and parallel compiles
  // share entries.
  w.i64(options.n_procs);
  w.u8(static_cast<uint8_t>(options.strategy));
  w.u8(static_cast<uint8_t>(options.dyn_decomp));
  w.boolean(options.prefer_buffers);
  w.boolean(options.parameterized_overlaps);
  // Generation consumes each callee's *compiled* interface (pending
  // comms, iteration sets, decomposition summary sets), finer-grained
  // than its static interface summary, and its formal names, which scope
  // the exported symbolic sections.
  const std::vector<const CallSiteInfo*> sites = ipa.acg.calls_from(proc.name);
  w.count(sites.size());
  for (const CallSiteInfo* site : sites) {
    w.str(site->callee);
    auto it = callee_exports.find(site->callee);
    w.boolean(it != callee_exports.end());
    if (it != callee_exports.end()) write_exports(w, it->second);
    const int callee = ipa.acg.procedure_index(site->callee);
    w.boolean(callee >= 0);
    if (callee >= 0)
      write_str_vec(
          w, program.ast.procedures[static_cast<size_t>(callee)]->formals);
  }
  return fnv1a(w.bytes());
}

std::vector<uint8_t> serialize_cached_procedure(const CachedProcedure& entry) {
  BinaryWriter w;
  write_procedure(w, *entry.compiled);
  write_exports(w, entry.exports);
  w.count(entry.storage.size());
  for (const ArrayStorageInfo& s : entry.storage) write_storage_info(w, s);
  write_compile_stats(w, entry.stats);
  return w.take();
}

std::optional<CachedProcedure> deserialize_cached_procedure(
    const std::vector<uint8_t>& payload) {
  BinaryReader r(payload);
  CachedProcedure entry;
  std::unique_ptr<Procedure> proc = read_procedure(r);
  if (!proc || !r.ok()) return std::nullopt;
  entry.compiled = std::shared_ptr<const Procedure>(std::move(proc));
  entry.exports = read_exports(r);
  size_t n = r.count();
  entry.storage.reserve(n);
  for (size_t i = 0; i < n; ++i) entry.storage.push_back(read_storage_info(r));
  entry.stats = read_compile_stats(r);
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return entry;
}

// ---------------------------------------------------------------------------
// Two-tier cache
// ---------------------------------------------------------------------------

std::shared_ptr<const CachedProcedure> CompilationCache::lookup(
    uint64_t digest) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(digest);
    if (it != entries_.end()) {
      ++hits_;
      return it->second;
    }
  }
  if (store_) {
    if (auto payload = store_->load(kProcArtifactKind,
                                    artifact_format_hash(kProcArtifactKind),
                                    digest)) {
      if (auto entry = deserialize_cached_procedure(*payload)) {
        auto sp = std::make_shared<const CachedProcedure>(std::move(*entry));
        std::lock_guard<std::mutex> lock(mu_);
        entries_[digest] = sp;
        ++hits_;
        return sp;
      }
      // Envelope checks passed but the payload would not decode: a codec
      // bug or a digest collision. Treat exactly like disk corruption.
      store_->mark_corrupt(kProcArtifactKind, digest);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  return nullptr;
}

void CompilationCache::insert(uint64_t digest, CachedProcedure entry) {
  if (store_)
    store_->store(kProcArtifactKind, artifact_format_hash(kProcArtifactKind),
                  digest, serialize_cached_procedure(entry));
  std::lock_guard<std::mutex> lock(mu_);
  entries_[digest] =
      std::make_shared<const CachedProcedure>(std::move(entry));
}

size_t CompilationCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace fortd
