// Regular Section Descriptors (RSDs) [Callahan & Kennedy; Havlak & Kennedy].
//
// The Fortran D compiler represents index sets (collections of data) and
// iteration sets (collections of loop iterations) as RSDs: per-dimension
// triplets lb:ub:step in Fortran 90 notation. This file implements the
// *value-level* algebra over integer triplets — intersection, exact or
// conservative subtraction, merging, translation — used by data
// partitioning, communication analysis, overlap calculation, the run-time
// resolution baseline, and the machine simulator.
//
// Conservativeness contract: operations that cannot produce an exact
// result over-approximate (never under-approximate) and report
// inexactness where the caller needs to know. Over-approximating a
// nonlocal index set causes extra communication, never incorrect results.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fortd {

/// Up to kInlineRank values on the stack, more on the heap: section points
/// and subscript lists without a heap allocation at any rank Fortran allows.
template <typename T>
class RankBuffer {
public:
  static constexpr size_t kInlineRank = 8;
  explicit RankBuffer(size_t n) {
    if (n > kInlineRank) {
      heap_.resize(n);
      data_ = heap_.data();
    }
  }
  RankBuffer(const RankBuffer&) = delete;
  RankBuffer& operator=(const RankBuffer&) = delete;
  T* data() { return data_; }
  T& operator[](size_t i) { return data_[i]; }

private:
  T inline_[kInlineRank];
  std::vector<T> heap_;
  T* data_ = inline_;
};

/// One dimension of a regular section: the integers
/// {lb, lb+step, ..., <= ub}. Normalized so that ub is exactly the last
/// member (or lb-1 for a canonical empty triplet).
struct Triplet {
  int64_t lb = 1;
  int64_t ub = 0;
  int64_t step = 1;

  Triplet() = default;
  Triplet(int64_t lb_, int64_t ub_, int64_t step_ = 1);

  static Triplet empty_range() { return Triplet(1, 0, 1); }
  static Triplet single(int64_t v) { return Triplet(v, v, 1); }

  bool empty() const { return lb > ub; }
  int64_t count() const { return empty() ? 0 : (ub - lb) / step + 1; }
  bool contains(int64_t v) const;
  /// Does this triplet contain every element of `other`?
  bool contains(const Triplet& other) const;
  bool is_dense() const { return step == 1; }

  /// Exact intersection (always representable as a triplet).
  static Triplet intersect(const Triplet& a, const Triplet& b);

  /// a \ b as disjoint triplets. Exact when b's footprint inside a is a
  /// full-stride subrange; otherwise conservatively returns {a} and sets
  /// *exact=false.
  static std::vector<Triplet> subtract(const Triplet& a, const Triplet& b,
                                       bool* exact = nullptr);

  /// Exact union when representable as a single triplet (adjacent,
  /// overlapping, or interleavable); nullopt otherwise.
  static std::optional<Triplet> merge(const Triplet& a, const Triplet& b);

  Triplet translate(int64_t offset) const;

  bool operator==(const Triplet&) const = default;
  std::string str() const;
};

/// A rectangular regular section: the cross product of per-dimension
/// triplets. An Rsd with any empty dimension is the empty set.
class Rsd {
public:
  Rsd() = default;
  explicit Rsd(std::vector<Triplet> dims) : dims_(std::move(dims)) {}

  /// Dense section [lb1:ub1, lb2:ub2, ...].
  static Rsd dense(const std::vector<std::pair<int64_t, int64_t>>& bounds);

  int rank() const { return static_cast<int>(dims_.size()); }
  const Triplet& dim(int d) const { return dims_[static_cast<size_t>(d)]; }
  Triplet& dim(int d) { return dims_[static_cast<size_t>(d)]; }
  const std::vector<Triplet>& dims() const { return dims_; }

  bool empty() const;
  /// Number of points in the section.
  int64_t size() const;
  bool contains(const std::vector<int64_t>& point) const;
  bool contains(const Rsd& other) const;

  static Rsd intersect(const Rsd& a, const Rsd& b);

  /// a \ b as disjoint sections (exact box decomposition when the
  /// per-dimension subtractions are exact; conservative otherwise).
  static std::vector<Rsd> subtract(const Rsd& a, const Rsd& b,
                                   bool* exact = nullptr);

  /// Exact union when representable as a single Rsd: sections equal in all
  /// dimensions but one whose triplets merge. nullopt otherwise.
  static std::optional<Rsd> merge(const Rsd& a, const Rsd& b);

  Rsd translate(const std::vector<int64_t>& offsets) const;

  /// Call fn(point) for every point, row-major over dimensions (last
  /// dimension fastest), with `point` holding rank() indices. The order
  /// message payloads are packed and unpacked in.
  template <typename Fn>
  void for_each(Fn fn) const {
    if (empty()) return;
    const int r = rank();
    RankBuffer<int64_t> point(static_cast<size_t>(r));
    for (int d = 0; d < r; ++d) point[static_cast<size_t>(d)] = dim(d).lb;
    for (;;) {
      fn(static_cast<const int64_t*>(point.data()));
      int d = r - 1;
      for (; d >= 0; --d) {
        int64_t& x = point[static_cast<size_t>(d)];
        x += dim(d).step;
        if (x <= dim(d).ub) break;
        x = dim(d).lb;
      }
      if (d < 0) return;
    }
  }

  /// All points in for_each() order, materialized. Intended for small
  /// sections (property tests).
  std::vector<std::vector<int64_t>> enumerate() const;

  bool operator==(const Rsd&) const = default;
  std::string str() const;

private:
  std::vector<Triplet> dims_;
};

/// A union-of-sections set with conservative merging, used for summary
/// side-effect sets and communication coalescing.
class RsdList {
public:
  void add(Rsd r);
  /// Add, merging with an existing section when an exact merge exists.
  void add_coalescing(Rsd r);
  bool contains_point(const std::vector<int64_t>& p) const;
  int64_t total_size() const;  // counts overlapping points multiple times
  const std::vector<Rsd>& sections() const { return sections_; }
  bool empty() const;
  std::string str() const;

private:
  std::vector<Rsd> sections_;
};

}  // namespace fortd
