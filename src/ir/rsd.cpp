#include "ir/rsd.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace fortd {

namespace {

/// Extended Euclid: returns g = gcd(a,b) and x,y with a*x + b*y = g.
int64_t ext_gcd(int64_t a, int64_t b, int64_t& x, int64_t& y) {
  if (b == 0) {
    x = 1;
    y = 0;
    return a;
  }
  int64_t x1, y1;
  int64_t g = ext_gcd(b, a % b, x1, y1);
  x = y1;
  y = x1 - (a / b) * y1;
  return g;
}

int64_t floor_div(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

int64_t ceil_div(int64_t a, int64_t b) { return -floor_div(-a, b); }

/// Positive modulus.
int64_t pmod(int64_t a, int64_t m) {
  int64_t r = a % m;
  return r < 0 ? r + m : r;
}

}  // namespace

// ---------------------------------------------------------------------------
// Triplet
// ---------------------------------------------------------------------------

Triplet::Triplet(int64_t lb_, int64_t ub_, int64_t step_)
    : lb(lb_), ub(ub_), step(step_ > 0 ? step_ : 1) {
  if (lb > ub) {
    // Canonical empty.
    lb = 1;
    ub = 0;
    step = 1;
  } else {
    // Normalize ub onto the last member.
    ub = lb + ((ub - lb) / step) * step;
    if (lb == ub) step = 1;
  }
}

bool Triplet::contains(int64_t v) const {
  return !empty() && v >= lb && v <= ub && (v - lb) % step == 0;
}

bool Triplet::contains(const Triplet& other) const {
  if (other.empty()) return true;
  if (empty()) return false;
  if (!contains(other.lb) || !contains(other.ub)) return false;
  // Every step of `other` must land on our lattice.
  return other.count() == 1 || other.step % step == 0;
}

Triplet Triplet::intersect(const Triplet& a, const Triplet& b) {
  if (a.empty() || b.empty()) return empty_range();
  int64_t lo = std::max(a.lb, b.lb);
  int64_t hi = std::min(a.ub, b.ub);
  if (lo > hi) return empty_range();
  if (a.step == 1 && b.step == 1) return Triplet(lo, hi, 1);

  // Solve x = a.lb (mod a.step), x = b.lb (mod b.step) via CRT.
  int64_t u, v;
  int64_t g = ext_gcd(a.step, b.step, u, v);
  if (pmod(b.lb - a.lb, g) != 0) return empty_range();
  int64_t lcm = a.step / g * b.step;
  // x0 = a.lb + a.step * ((b.lb - a.lb)/g * u mod (b.step/g))
  int64_t m = b.step / g;
  int64_t t = pmod(((b.lb - a.lb) / g) % m * pmod(u, m), m);
  int64_t x0 = a.lb + a.step * t;
  // Move x0 into [lo, hi].
  if (x0 < lo) x0 += ceil_div(lo - x0, lcm) * lcm;
  if (x0 > hi) return empty_range();
  return Triplet(x0, hi, lcm);
}

std::vector<Triplet> Triplet::subtract(const Triplet& a, const Triplet& b,
                                       bool* exact) {
  if (exact) *exact = true;
  if (a.empty()) return {};
  Triplet i = intersect(a, b);
  if (i.empty()) return {a};

  std::vector<Triplet> out;
  auto push = [&out](Triplet t) {
    if (!t.empty()) out.push_back(t);
  };

  // Treat a single-element overlap as having a's step for alignment tests.
  int64_t istep = i.count() == 1 ? a.step : i.step;

  if (istep == a.step) {
    // The overlap removes a full-stride subrange: left + right remainders.
    push(Triplet(a.lb, i.lb - a.step, a.step));
    push(Triplet(i.ub + a.step, a.ub, a.step));
    return out;
  }
  if (istep == 2 * a.step) {
    // Every other element removed inside [i.lb, i.ub]; the skipped ones
    // plus the outer remainders are all triplets.
    push(Triplet(a.lb, i.lb - a.step, a.step));
    push(Triplet(i.lb + a.step, i.ub - a.step, 2 * a.step));
    push(Triplet(i.ub + a.step, a.ub, a.step));
    return out;
  }
  // Not expressible exactly: conservatively keep everything.
  if (exact) *exact = false;
  return {a};
}

std::optional<Triplet> Triplet::merge(const Triplet& a, const Triplet& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  if (a.count() == 1 && b.count() == 1) {
    if (a.lb == b.lb) return a;
    int64_t lo = std::min(a.lb, b.lb), hi = std::max(a.lb, b.lb);
    return Triplet(lo, hi, hi - lo);
  }
  // Orient so `x` is the multi-element triplet whose step governs.
  const Triplet& x = a.count() > 1 ? a : b;
  const Triplet& y = a.count() > 1 ? b : a;
  int64_t s = x.step;
  if (y.count() > 1 && y.step != s) return std::nullopt;
  if (pmod(y.lb - x.lb, s) != 0) return std::nullopt;
  // Same lattice; mergeable if ranges overlap or are within one step.
  if (y.lb > x.ub + s || x.lb > y.ub + s) return std::nullopt;
  return Triplet(std::min(x.lb, y.lb), std::max(x.ub, y.ub), s);
}

Triplet Triplet::translate(int64_t offset) const {
  if (empty()) return *this;
  return Triplet(lb + offset, ub + offset, step);
}

std::string Triplet::str() const {
  if (empty()) return "<empty>";
  std::string s = std::to_string(lb) + ":" + std::to_string(ub);
  if (step != 1) s += ":" + std::to_string(step);
  return s;
}

// ---------------------------------------------------------------------------
// Rsd
// ---------------------------------------------------------------------------

Rsd Rsd::dense(const std::vector<std::pair<int64_t, int64_t>>& bounds) {
  std::vector<Triplet> dims;
  dims.reserve(bounds.size());
  for (auto [lb, ub] : bounds) dims.emplace_back(lb, ub, 1);
  return Rsd(std::move(dims));
}

bool Rsd::empty() const {
  if (dims_.empty()) return true;
  return std::any_of(dims_.begin(), dims_.end(),
                     [](const Triplet& t) { return t.empty(); });
}

int64_t Rsd::size() const {
  if (empty()) return 0;
  int64_t n = 1;
  for (const auto& t : dims_) n *= t.count();
  return n;
}

bool Rsd::contains(const std::vector<int64_t>& point) const {
  if (point.size() != dims_.size() || empty()) return false;
  for (size_t d = 0; d < dims_.size(); ++d)
    if (!dims_[d].contains(point[d])) return false;
  return true;
}

bool Rsd::contains(const Rsd& other) const {
  if (other.empty()) return true;
  if (empty() || rank() != other.rank()) return false;
  for (size_t d = 0; d < dims_.size(); ++d)
    if (!dims_[d].contains(other.dims_[d])) return false;
  return true;
}

Rsd Rsd::intersect(const Rsd& a, const Rsd& b) {
  assert(a.rank() == b.rank());
  std::vector<Triplet> dims;
  dims.reserve(a.dims_.size());
  for (size_t d = 0; d < a.dims_.size(); ++d)
    dims.push_back(Triplet::intersect(a.dims_[d], b.dims_[d]));
  return Rsd(std::move(dims));
}

std::vector<Rsd> Rsd::subtract(const Rsd& a, const Rsd& b, bool* exact) {
  if (exact) *exact = true;
  if (a.empty()) return {};
  Rsd inter = intersect(a, b);
  if (inter.empty()) return {a};
  if (inter == a) return {};

  // Box decomposition: for each dimension, peel off the part of `a` lying
  // outside the intersection in that dimension, constraining already
  // processed dimensions to the intersection.
  std::vector<Rsd> out;
  bool all_exact = true;
  for (int d = 0; d < a.rank(); ++d) {
    bool dim_exact = true;
    std::vector<Triplet> pieces =
        Triplet::subtract(a.dim(d), inter.dim(d), &dim_exact);
    all_exact = all_exact && dim_exact;
    for (const Triplet& piece : pieces) {
      std::vector<Triplet> dims;
      dims.reserve(a.dims_.size());
      for (int k = 0; k < a.rank(); ++k) {
        if (k < d)
          dims.push_back(inter.dim(k));
        else if (k == d)
          dims.push_back(piece);
        else
          dims.push_back(a.dim(k));
      }
      Rsd box{std::move(dims)};
      if (!box.empty()) out.push_back(std::move(box));
    }
  }
  if (exact) *exact = all_exact;
  return out;
}

std::optional<Rsd> Rsd::merge(const Rsd& a, const Rsd& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  if (a.rank() != b.rank()) return std::nullopt;
  if (a.contains(b)) return a;
  if (b.contains(a)) return b;
  // Sections must agree in all dimensions but one, which must merge.
  int differing = -1;
  for (int d = 0; d < a.rank(); ++d) {
    if (a.dim(d) == b.dim(d)) continue;
    if (differing >= 0) return std::nullopt;
    differing = d;
  }
  if (differing < 0) return a;
  // Triplet::merge only succeeds on exact unions, so no precision is lost.
  auto merged = Triplet::merge(a.dim(differing), b.dim(differing));
  if (!merged) return std::nullopt;
  Rsd out = a;
  out.dim(differing) = *merged;
  return out;
}

Rsd Rsd::translate(const std::vector<int64_t>& offsets) const {
  assert(offsets.size() == dims_.size());
  std::vector<Triplet> dims;
  dims.reserve(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d)
    dims.push_back(dims_[d].translate(offsets[d]));
  return Rsd(std::move(dims));
}

std::vector<std::vector<int64_t>> Rsd::enumerate() const {
  std::vector<std::vector<int64_t>> out;
  for_each([&](const int64_t* point) { out.emplace_back(point, point + rank()); });
  return out;
}

std::string Rsd::str() const {
  if (dims_.empty()) return "[]";
  std::string s = "[";
  for (size_t d = 0; d < dims_.size(); ++d) {
    if (d) s += ",";
    s += dims_[d].str();
  }
  return s + "]";
}

// ---------------------------------------------------------------------------
// RsdList
// ---------------------------------------------------------------------------

void RsdList::add(Rsd r) {
  if (!r.empty()) sections_.push_back(std::move(r));
}

void RsdList::add_coalescing(Rsd r) {
  if (r.empty()) return;
  for (auto& existing : sections_) {
    if (auto merged = Rsd::merge(existing, r)) {
      existing = std::move(*merged);
      return;
    }
  }
  sections_.push_back(std::move(r));
}

bool RsdList::contains_point(const std::vector<int64_t>& p) const {
  return std::any_of(sections_.begin(), sections_.end(),
                     [&](const Rsd& r) { return r.contains(p); });
}

int64_t RsdList::total_size() const {
  int64_t n = 0;
  for (const auto& r : sections_) n += r.size();
  return n;
}

bool RsdList::empty() const {
  return std::all_of(sections_.begin(), sections_.end(),
                     [](const Rsd& r) { return r.empty(); });
}

std::string RsdList::str() const {
  std::string s = "{";
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (i) s += ", ";
    s += sections_[i].str();
  }
  return s + "}";
}

}  // namespace fortd
