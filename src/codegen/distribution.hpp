// Distribution functions: value-level and symbolic (my$p-expression) forms
// of BLOCK / CYCLIC / BLOCK_CYCLIC data mappings (§3 step 2, §5.3).
//
// The value-level form answers "which processor owns index i" and "which
// indices does processor p own" — used by analysis, the run-time
// resolution baseline, the simulator, and tests. The symbolic form
// produces the my$p arithmetic that appears in generated SPMD code
// (reduced loop bounds, owner guards, neighbor expressions).
#pragma once

#include <cstdint>

#include "frontend/ast.hpp"
#include "ir/decomp.hpp"
#include "ir/rsd.hpp"
#include "ir/symbol_table.hpp"

namespace fortd {

/// Distribution of a single array dimension over `nprocs` processors.
class DimDistribution {
public:
  DimDistribution(DistSpec spec, int64_t glb, int64_t gub, int nprocs);

  DistKind kind() const { return spec_.kind; }
  int nprocs() const { return nprocs_; }
  int64_t glb() const { return glb_; }
  int64_t gub() const { return gub_; }
  /// BLOCK: elements per processor, ceil(N / P).
  int64_t block_size() const;

  /// Processor owning global index i (0-based processor ids).
  int owner(int64_t i) const;
  /// Global indices owned by processor p (single triplet for BLOCK and
  /// CYCLIC; BLOCK_CYCLIC footprints are not triplets — use owned_list).
  Triplet local_set(int p) const;
  RsdList owned_list(int p) const;  // exact for all kinds
  /// Count of indices owned by p.
  int64_t local_count(int p) const;

  // -- symbolic forms (expressions over "my$p" / an index expression) ----
  /// Expression for the owner of `index` (0-based processor number).
  ExprPtr owner_expr(ExprPtr index) const;
  /// Expression for the first global index owned by my$p (BLOCK/CYCLIC).
  ExprPtr local_lb_expr() const;
  /// Expression for the last global index owned by my$p (BLOCK/CYCLIC;
  /// capped at the global upper bound for BLOCK).
  ExprPtr local_ub_expr() const;

private:
  DistSpec spec_;
  int64_t glb_, gub_;
  int nprocs_;
};

/// Distribution of a whole array under a DecompSpec.
class ArrayDistribution {
public:
  ArrayDistribution(std::string array, DecompSpec spec,
                    std::vector<std::pair<int64_t, int64_t>> bounds, int nprocs);

  static ArrayDistribution replicated(std::string array,
                                      std::vector<std::pair<int64_t, int64_t>> bounds,
                                      int nprocs);

  const std::string& array() const { return array_; }
  const DecompSpec& spec() const { return spec_; }
  int rank() const { return static_cast<int>(bounds_.size()); }
  int nprocs() const { return nprocs_; }

  bool replicated_p() const;
  /// Index of the unique distributed dimension; -1 when replicated, -2
  /// when more than one dimension is distributed (compile-time code
  /// generation falls back to run-time resolution in that case).
  int dist_dim() const;
  DimDistribution dim(int d) const;

  /// Owner of a full index point; processors own points along the single
  /// distributed dim (0 for replicated arrays — every processor holds a
  /// copy and 0 is the canonical owner).
  int owner_of(const std::vector<int64_t>& point) const;

  /// Bytes moved if the array is remapped from this distribution to `to`
  /// (elements whose owner changes, times element size).
  int64_t remap_bytes(const ArrayDistribution& to, int elem_size) const;

private:
  std::string array_;
  DecompSpec spec_;
  std::vector<std::pair<int64_t, int64_t>> bounds_;
  int nprocs_;
};

}  // namespace fortd
