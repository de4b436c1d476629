#include "ipa/recompilation.hpp"

#include "ipa/summary_cache.hpp"
#include "ir/ir_serialize.hpp"

namespace fortd {

namespace {

/// The interface summary callers consume of `callee` (bottom-up facts).
void write_interface(BinaryWriter& w, const std::string& callee,
                     const SideEffects& fx) {
  for (const auto* sets : {&fx.gmod, &fx.gref}) {
    auto it = sets->find(callee);
    w.boolean(it != sets->end());
    if (it != sets->end()) write_str_set(w, it->second);
  }
  for (const auto* sections : {&fx.gdefs, &fx.guses}) {
    auto it = sections->find(callee);
    if (it != sections->end()) write_rsd_map(w, it->second);
    else w.count(0);  // absent reads as empty
  }
}

}  // namespace

void write_codegen_inputs(BinaryWriter& w, const std::string& proc,
                          const IpaContext& ctx,
                          const OverlapEstimates& overlaps) {
  auto rit = ctx.reaching.reaching.find(proc);
  w.boolean(rit != ctx.reaching.reaching.end());
  if (rit != ctx.reaching.reaching.end()) write_decomp_sets(w, rit->second);
  auto oit = overlaps.estimates.find(proc);
  if (oit != overlaps.estimates.end()) write_overlap_map(w, oit->second);
  else w.count(0);  // absent reads as empty
  const std::vector<const CallSiteInfo*> sites = ctx.acg.calls_from(proc);
  w.count(sites.size());
  for (const CallSiteInfo* site : sites) {
    w.str(site->callee);
    write_interface(w, site->callee, ctx.effects);
  }
  // Run-time fallback status changes code shape too.
  w.boolean(ctx.runtime_fallback.count(proc) != 0);
  // May-alias environment (§6.4): a changed pair set widens side effects
  // and splits cloning partitions. Pairs are identified by their members;
  // provenance is not identity.
  const std::set<AliasPair>* pairs = ctx.alias.of(proc);
  w.count(pairs ? pairs->size() : 0);
  if (pairs)
    for (const AliasPair& p : *pairs) {
      w.str(p.a);
      w.str(p.b);
    }
}

uint64_t hash_codegen_inputs(const std::string& proc, const IpaContext& ctx,
                             const OverlapEstimates& overlaps) {
  BinaryWriter w(/*positions=*/false);
  write_codegen_inputs(w, proc, ctx, overlaps);
  return fnv1a(w.bytes());
}

}  // namespace fortd
