#include "analysis/dataflow.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace fortd {

BitSet& BitSet::operator|=(const BitSet& o) {
  assert(n_ == o.n_);
  for (size_t i = 0; i < bits_.size(); ++i) bits_[i] |= o.bits_[i];
  return *this;
}

BitSet& BitSet::operator&=(const BitSet& o) {
  assert(n_ == o.n_);
  for (size_t i = 0; i < bits_.size(); ++i) bits_[i] &= o.bits_[i];
  return *this;
}

BitSet& BitSet::subtract(const BitSet& o) {
  assert(n_ == o.n_);
  for (size_t i = 0; i < bits_.size(); ++i) bits_[i] &= ~o.bits_[i];
  return *this;
}

int BitSet::count() const {
  int c = 0;
  for (uint64_t w : bits_) c += std::popcount(w);
  return c;
}

std::vector<int> BitSet::members() const {
  std::vector<int> out;
  for (int i = 0; i < n_; ++i)
    if (get(i)) out.push_back(i);
  return out;
}

std::string BitSet::str() const {
  std::string s = "{";
  bool first = true;
  for (int m : members()) {
    if (!first) s += ",";
    s += std::to_string(m);
    first = false;
  }
  return s + "}";
}

DataflowResult solve_dataflow(const Cfg& cfg, const DataflowProblem& problem) {
  const int n = cfg.size();
  assert(static_cast<int>(problem.gen.size()) == n);
  assert(static_cast<int>(problem.kill.size()) == n);

  DataflowResult res;
  res.in.assign(static_cast<size_t>(n), BitSet(problem.num_facts));
  res.out.assign(static_cast<size_t>(n), BitSet(problem.num_facts));

  // For a must (intersection) problem, initialize interior sets to TOP
  // (all facts); the boundary node keeps its boundary value.
  BitSet top(problem.num_facts);
  if (!problem.may)
    for (int i = 0; i < problem.num_facts; ++i) top.set(i);

  const int boundary_block = problem.forward ? cfg.entry() : cfg.exit();
  if (!problem.may)
    for (auto& s : res.out) s = top;
  res.out[static_cast<size_t>(boundary_block)] = problem.boundary;

  std::vector<int> order = cfg.reverse_postorder();
  if (!problem.forward) std::reverse(order.begin(), order.end());

  bool changed = true;
  while (changed) {
    changed = false;
    for (int b : order) {
      if (b == boundary_block) continue;
      const BasicBlock& blk = cfg.block(b);
      const auto& inputs = problem.forward ? blk.preds : blk.succs;

      BitSet meet(problem.num_facts);
      if (!problem.may && !inputs.empty()) meet = top;
      for (int p : inputs) {
        if (problem.may)
          meet |= res.out[static_cast<size_t>(p)];
        else
          meet &= res.out[static_cast<size_t>(p)];
      }
      res.in[static_cast<size_t>(b)] = meet;

      BitSet next = meet;
      next.subtract(problem.kill[static_cast<size_t>(b)]);
      next |= problem.gen[static_cast<size_t>(b)];
      if (!(next == res.out[static_cast<size_t>(b)])) {
        res.out[static_cast<size_t>(b)] = std::move(next);
        changed = true;
      }
    }
  }
  return res;
}

}  // namespace fortd
