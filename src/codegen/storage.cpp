#include "codegen/storage.hpp"

#include <algorithm>

#include "codegen/codegen.hpp"

namespace fortd {

std::vector<ArrayStorageInfo> compute_storage(const CodeGenerator& cg,
                                              const Procedure& proc,
                                              const ProcExports& exports,
                                              CompileStats& stats) {
  const SymbolTable& st = cg.program().symtab(proc.name);
  const OverlapEstimates& est = cg.overlaps();
  const int nprocs = cg.options().n_procs;

  std::vector<ArrayStorageInfo> infos;
  for (const std::string& name : st.array_names()) {
    const Symbol* sym = st.lookup(name);
    if (!sym->dims_const) continue;
    ArrayStorageInfo info;
    info.array = name;
    auto spec = cg.ipa().reaching.unique_spec(proc.name, name);
    if (spec) info.spec = *spec;

    ArrayDistribution ad(name, info.spec, sym->dims, nprocs);
    info.dist_dim = ad.dist_dim();
    if (info.dist_dim < 0) {
      // Replicated: every processor holds the whole array.
      info.local_extent = 1;
      info.other_extent = 1;
      for (int d = 0; d < sym->rank(); ++d) info.other_extent *= sym->extent(d);
      infos.push_back(std::move(info));
      continue;
    }

    DimDistribution dd = ad.dim(info.dist_dim);
    int64_t max_local = 0;
    for (int p = 0; p < nprocs; ++p)
      max_local = std::max(max_local, dd.local_count(p));
    info.local_extent = max_local;
    info.other_extent = 1;
    for (int d = 0; d < sym->rank(); ++d)
      if (d != info.dist_dim) info.other_extent *= sym->extent(d);

    // Actual overlap demand from shift communication seen while compiling
    // this procedure.
    auto dit = exports.shift_demand.find(name);
    if (dit != exports.shift_demand.end()) {
      info.overlap_lo = dit->second.first;
      info.overlap_hi = dit->second.second;
    }
    // Interprocedural estimate along the distributed dimension.
    const OverlapOffsets* ov = est.lookup(proc.name, name);
    if (ov && info.dist_dim < static_cast<int>(ov->pos.size())) {
      info.est_hi = ov->pos[static_cast<size_t>(info.dist_dim)];
      info.est_lo = ov->neg[static_cast<size_t>(info.dist_dim)];
    }
    if (cg.options().prefer_buffers ||
        info.overlap_hi > info.est_hi || info.overlap_lo > info.est_lo) {
      info.used_buffer = true;
      ++stats.buffers_used;
    }
    info.parameterized = cg.options().parameterized_overlaps &&
                         sym->formal_index >= 0 &&
                         (info.overlap_lo > 0 || info.overlap_hi > 0);
    infos.push_back(std::move(info));
  }
  return infos;
}

}  // namespace fortd
