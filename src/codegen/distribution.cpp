#include "codegen/distribution.hpp"

#include <algorithm>
#include <cassert>

#include "codegen/expr_build.hpp"

namespace fortd {

namespace build {

ExprPtr simplify(ExprPtr e) {
  if (!e) return e;
  for (auto& a : e->args) a = simplify(std::move(a));
  if (e->kind == ExprKind::Binary && e->args[0]->kind == ExprKind::IntLit &&
      e->args[1]->kind == ExprKind::IntLit) {
    int64_t l = e->args[0]->int_val, r = e->args[1]->int_val;
    switch (e->bin_op) {
      case BinOp::Add: return Expr::make_int(l + r);
      case BinOp::Sub: return Expr::make_int(l - r);
      case BinOp::Mul: return Expr::make_int(l * r);
      case BinOp::Div:
        if (r != 0) return Expr::make_int(l / r);
        break;
      default:
        break;
    }
  }
  if (e->kind == ExprKind::Binary) {
    auto is_zero = [](const Expr& x) {
      return x.kind == ExprKind::IntLit && x.int_val == 0;
    };
    auto is_one = [](const Expr& x) {
      return x.kind == ExprKind::IntLit && x.int_val == 1;
    };
    switch (e->bin_op) {
      case BinOp::Add:
        if (is_zero(*e->args[0])) return std::move(e->args[1]);
        if (is_zero(*e->args[1])) return std::move(e->args[0]);
        break;
      case BinOp::Sub:
        if (is_zero(*e->args[1])) return std::move(e->args[0]);
        break;
      case BinOp::Mul:
        if (is_one(*e->args[0])) return std::move(e->args[1]);
        if (is_one(*e->args[1])) return std::move(e->args[0]);
        if (is_zero(*e->args[0]) || is_zero(*e->args[1])) return Expr::make_int(0);
        break;
      case BinOp::Div:
        if (is_one(*e->args[1])) return std::move(e->args[0]);
        break;
      default:
        break;
    }
  }
  if (e->kind == ExprKind::FuncCall && e->args.size() == 2 &&
      e->args[0]->kind == ExprKind::IntLit && e->args[1]->kind == ExprKind::IntLit) {
    int64_t l = e->args[0]->int_val, r = e->args[1]->int_val;
    if (e->name == "min") return Expr::make_int(std::min(l, r));
    if (e->name == "max") return Expr::make_int(std::max(l, r));
    if (e->name == "modp" && r != 0) {
      int64_t m = l % r;
      return Expr::make_int(m < 0 ? m + r : m);
    }
  }
  return e;
}

}  // namespace build

// ---------------------------------------------------------------------------
// DimDistribution
// ---------------------------------------------------------------------------

DimDistribution::DimDistribution(DistSpec spec, int64_t glb, int64_t gub,
                                 int nprocs)
    : spec_(spec), glb_(glb), gub_(gub), nprocs_(nprocs) {
  assert(nprocs_ >= 1);
}

int64_t DimDistribution::block_size() const {
  int64_t n = gub_ - glb_ + 1;
  return (n + nprocs_ - 1) / nprocs_;
}

Triplet DimDistribution::local_set(int p) const {
  switch (spec_.kind) {
    case DistKind::None:
      return Triplet(glb_, gub_);
    case DistKind::Block: {
      int64_t b = block_size();
      int64_t lo = glb_ + p * b;
      int64_t hi = std::min(gub_, glb_ + (p + 1) * b - 1);
      return Triplet(lo, hi);
    }
    case DistKind::Cyclic:
      return Triplet(glb_ + p, gub_, nprocs_);
    case DistKind::BlockCyclic:
      // Not a single triplet; callers that need the exact footprint use
      // owned_list. Return the bounding triplet of the first block so the
      // caller can detect the approximation via owned_list instead.
      return Triplet(glb_ + p * spec_.block_size, gub_, 1);
  }
  return Triplet::empty_range();
}

RsdList DimDistribution::owned_list(int p) const {
  RsdList out;
  if (spec_.kind != DistKind::BlockCyclic) {
    out.add(Rsd({local_set(p)}));
    return out;
  }
  int64_t k = spec_.block_size;
  for (int64_t start = glb_ + p * k; start <= gub_; start += int64_t{nprocs_} * k) {
    out.add(Rsd({Triplet(start, std::min(gub_, start + k - 1))}));
  }
  return out;
}

int64_t DimDistribution::local_count(int p) const {
  if (spec_.kind == DistKind::BlockCyclic) {
    int64_t n = 0;
    RsdList owned = owned_list(p);  // keep alive across iteration
    for (const Rsd& r : owned.sections()) n += r.size();
    return n;
  }
  return local_set(p).count();
}

ExprPtr DimDistribution::owner_expr(ExprPtr index) const {
  using namespace build;
  ExprPtr off = simplify(sub(std::move(index), num(glb_)));
  switch (spec_.kind) {
    case DistKind::None:
      return num(0);
    case DistKind::Block:
      return simplify(fmin(div(std::move(off), num(block_size())), num(nprocs_ - 1)));
    case DistKind::Cyclic:
      return simplify(modp(std::move(off), num(nprocs_)));
    case DistKind::BlockCyclic:
      return simplify(
          modp(div(std::move(off), num(spec_.block_size)), num(nprocs_)));
  }
  return num(0);
}

ExprPtr DimDistribution::local_lb_expr() const {
  using namespace build;
  switch (spec_.kind) {
    case DistKind::None:
      return num(glb_);
    case DistKind::Block:
      return simplify(add(num(glb_), mul(myp(), num(block_size()))));
    case DistKind::Cyclic:
      return simplify(add(num(glb_), myp()));
    case DistKind::BlockCyclic:
      return simplify(add(num(glb_), mul(myp(), num(spec_.block_size))));
  }
  return num(glb_);
}

ExprPtr DimDistribution::local_ub_expr() const {
  using namespace build;
  switch (spec_.kind) {
    case DistKind::None:
    case DistKind::Cyclic:
      return num(gub_);
    case DistKind::Block:
      return simplify(fmin(
          num(gub_),
          sub(add(num(glb_), mul(add(myp(), num(1)), num(block_size()))), num(1))));
    case DistKind::BlockCyclic:
      return num(gub_);
  }
  return num(gub_);
}

// ---------------------------------------------------------------------------
// ArrayDistribution
// ---------------------------------------------------------------------------

ArrayDistribution::ArrayDistribution(std::string array, DecompSpec spec,
                                     std::vector<std::pair<int64_t, int64_t>> bounds,
                                     int nprocs)
    : array_(std::move(array)),
      spec_(std::move(spec)),
      bounds_(std::move(bounds)),
      nprocs_(nprocs) {
  if (spec_.dists.size() < bounds_.size())
    spec_.dists.resize(bounds_.size(), DistSpec{});
}

ArrayDistribution ArrayDistribution::replicated(
    std::string array, std::vector<std::pair<int64_t, int64_t>> bounds,
    int nprocs) {
  DecompSpec spec;
  spec.dists.assign(bounds.size(), DistSpec{});
  return ArrayDistribution(std::move(array), std::move(spec), std::move(bounds),
                           nprocs);
}

bool ArrayDistribution::replicated_p() const {
  if (spec_.is_top) return false;
  return spec_.distributed_dims() == 0;
}

int ArrayDistribution::dist_dim() const {
  if (replicated_p()) return -1;
  int d = spec_.single_distributed_dim();
  return d >= 0 ? d : -2;
}

DimDistribution ArrayDistribution::dim(int d) const {
  auto [lb, ub] = bounds_[static_cast<size_t>(d)];
  return DimDistribution(spec_.dists[static_cast<size_t>(d)], lb, ub, nprocs_);
}

// ---------------------------------------------------------------------------
// OwnerFn
// ---------------------------------------------------------------------------

OwnerFn::OwnerFn(const DecompSpec& spec,
                 const std::vector<std::pair<int64_t, int64_t>>& bounds,
                 int nprocs)
    : nprocs(nprocs) {
  const int d = spec.single_distributed_dim();
  if (d < 0 || static_cast<size_t>(d) >= bounds.size()) return;
  const auto [lb, ub] = bounds[static_cast<size_t>(d)];
  const DimDistribution dd(spec.dists[static_cast<size_t>(d)], lb, ub, nprocs);
  dim = d;
  kind = dd.kind();
  glb = lb;
  block = kind == DistKind::Block ? dd.block_size()
                                  : spec.dists[static_cast<size_t>(d)].block_size;
}

int64_t moved_elements(const std::vector<std::pair<int64_t, int64_t>>& bounds,
                       const OwnerFn& from, const OwnerFn& to) {
  // Owners vary along from.dim and to.dim only: count the differing owner
  // pairs there, times the extents of the other dimensions.
  int64_t other = 1;
  for (size_t d = 0; d < bounds.size(); ++d)
    if (static_cast<int>(d) != from.dim && static_cast<int>(d) != to.dim)
      other *= std::max<int64_t>(bounds[d].second - bounds[d].first + 1, 0);
  const auto owners = [&](const OwnerFn& o) {
    if (o.dim < 0) return std::vector<int>{0};
    std::vector<int> out;
    for (int64_t i = bounds[static_cast<size_t>(o.dim)].first;
         i <= bounds[static_cast<size_t>(o.dim)].second; ++i)
      out.push_back(o.at(i));
    return out;
  };
  const std::vector<int> f = owners(from), t = owners(to);
  int64_t differ = 0;
  if (from.dim >= 0 && from.dim == to.dim) {
    for (size_t i = 0; i < f.size(); ++i) differ += f[i] != t[i];
  } else {
    for (int a : f)
      for (int b : t) differ += a != b;
  }
  return differ * other;
}

}  // namespace fortd
