// Distribution functions: value-level and symbolic (my$p-expression) forms
// of BLOCK / CYCLIC / BLOCK_CYCLIC data mappings (§3 step 2, §5.3).
//
// The value-level form answers "which processor owns index i" (OwnerFn,
// what the SPMD evaluators compute for owner$ and redistributions) and
// "which indices does processor p own" — used by analysis, the run-time
// resolution baseline, the simulator, and tests. The symbolic form
// produces the my$p arithmetic that appears in generated SPMD code
// (reduced loop bounds, owner guards, neighbor expressions).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

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

  /// Global indices owned by processor p (single triplet for BLOCK and
  /// CYCLIC; BLOCK_CYCLIC footprints are not triplets — use owned_list).
  Triplet local_set(int p) const;
  RsdList owned_list(int p) const;  // exact for all kinds
  /// Count of indices owned by p.
  int64_t local_count(int p) const;

  // -- symbolic forms (expressions over "my$p" / an index expression) ----
  /// Expression for the owner of `index` (0-based processor number): the
  /// value OwnerFn::at computes.
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

private:
  std::string array_;
  DecompSpec spec_;
  std::vector<std::pair<int64_t, int64_t>> bounds_;
  int nprocs_;
};

/// Which processor owns an element of an array under a DecompSpec (0-based
/// processor ids). Processors own points along the single distributed
/// dimension, worked out once with its block size; an array that is
/// replicated, or distributed along several dimensions, belongs to
/// processor 0 (every processor holds a copy and 0 is the canonical owner).
struct OwnerFn {
  int dim = -1;  // the single distributed dimension; -1: processor 0
  DistKind kind = DistKind::None;
  int64_t glb = 0;
  int64_t block = 1;  // Block: ceil(extent / P); BlockCyclic: block size
  int nprocs = 1;

  OwnerFn() = default;
  OwnerFn(const DecompSpec& spec,
          const std::vector<std::pair<int64_t, int64_t>>& bounds, int nprocs);

  /// The owner of index `i` along `dim`.
  int at(int64_t i) const {
    const int64_t off = i - glb;
    switch (kind) {
      case DistKind::Block:
        return static_cast<int>(std::min<int64_t>(off / block, nprocs - 1));
      case DistKind::Cyclic:
        return static_cast<int>(off % nprocs);
      case DistKind::BlockCyclic:
        return static_cast<int>((off / block) % nprocs);
      case DistKind::None:
        break;
    }
    return 0;
  }
  /// The owner of a full index point of `rank` indices.
  int operator()(const int64_t* point, size_t rank) const {
    return dim < 0 || static_cast<size_t>(dim) >= rank ? 0 : at(point[dim]);
  }
};

/// Elements of an array with `bounds` whose owner differs under `from` and
/// `to`: what a remap between the two distributions moves.
int64_t moved_elements(const std::vector<std::pair<int64_t, int64_t>>& bounds,
                       const OwnerFn& from, const OwnerFn& to);

}  // namespace fortd
