// Generic iterative data-flow framework over a Cfg, used for local
// reaching decompositions (forward, may) and live decompositions
// (backward, may). Facts are small-integer indices into a problem-defined
// universe; sets are dynamic bitsets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"

namespace fortd {

/// Minimal dynamic bitset with the operations the solver needs.
class BitSet {
public:
  BitSet() = default;
  explicit BitSet(int n) : bits_((static_cast<size_t>(n) + 63) / 64, 0), n_(n) {}

  int size() const { return n_; }
  bool get(int i) const {
    return (bits_[static_cast<size_t>(i) / 64] >> (static_cast<size_t>(i) % 64)) & 1;
  }
  void set(int i) { bits_[static_cast<size_t>(i) / 64] |= uint64_t{1} << (static_cast<size_t>(i) % 64); }
  void reset(int i) { bits_[static_cast<size_t>(i) / 64] &= ~(uint64_t{1} << (static_cast<size_t>(i) % 64)); }
  void clear() { std::fill(bits_.begin(), bits_.end(), 0); }

  BitSet& operator|=(const BitSet& o);
  BitSet& operator&=(const BitSet& o);
  /// this = this \ o
  BitSet& subtract(const BitSet& o);
  bool operator==(const BitSet& o) const { return bits_ == o.bits_; }
  int count() const;
  std::vector<int> members() const;
  std::string str() const;

private:
  std::vector<uint64_t> bits_;
  int n_ = 0;
};

/// A gen/kill data-flow problem:  out = gen ∪ (in \ kill)  with in the
/// union (may) or intersection (must) over predecessor outs. For backward
/// problems the roles of preds/succs and in/out are swapped by the solver.
struct DataflowProblem {
  int num_facts = 0;
  bool forward = true;
  bool may = true;  // union confluence; false = intersection
  std::vector<BitSet> gen;   // one per basic block
  std::vector<BitSet> kill;  // one per basic block
  BitSet boundary;           // facts at entry (forward) or exit (backward)
};

struct DataflowResult {
  std::vector<BitSet> in;   // facts at block entry (execution order)
  std::vector<BitSet> out;  // facts at block exit
};

/// Iterate to a fixed point. Terminates because transfer functions are
/// monotone over a finite lattice.
DataflowResult solve_dataflow(const Cfg& cfg, const DataflowProblem& problem);

}  // namespace fortd
