// RSD algebra: unit tests plus property-based sweeps that check every
// operation against brute-force set semantics.
#include <gtest/gtest.h>

#include <set>

#include "ir/rsd.hpp"

namespace fortd {
namespace {

std::set<int64_t> members(const Triplet& t) {
  std::set<int64_t> out;
  for (int64_t v = t.lb; v <= t.ub; v += t.step) out.insert(v);
  return out;
}

TEST(Triplet, NormalizationAndCount) {
  Triplet t(1, 10, 3);  // {1,4,7,10}
  EXPECT_EQ(t.count(), 4);
  EXPECT_EQ(t.ub, 10);
  Triplet u(1, 9, 3);  // {1,4,7}
  EXPECT_EQ(u.count(), 3);
  EXPECT_EQ(u.ub, 7);  // normalized to last member
  Triplet e(5, 4);
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.count(), 0);
}

TEST(Triplet, Contains) {
  Triplet t(2, 14, 4);  // {2,6,10,14}
  EXPECT_TRUE(t.contains(6));
  EXPECT_FALSE(t.contains(7));
  EXPECT_FALSE(t.contains(18));
  EXPECT_TRUE(t.contains(Triplet(2, 10, 4)));
  EXPECT_TRUE(t.contains(Triplet(2, 14, 8)));  // {2,10}
  EXPECT_FALSE(t.contains(Triplet(2, 14, 2)));
}

TEST(Triplet, IntersectDense) {
  Triplet a(1, 30), b(26, 40);
  EXPECT_EQ(Triplet::intersect(a, b), Triplet(26, 30));
  EXPECT_TRUE(Triplet::intersect(Triplet(1, 5), Triplet(7, 9)).empty());
}

TEST(Triplet, IntersectStridedCrt) {
  // {1,4,7,...} with {2,5,8,...}: disjoint residues mod gcd-compatible.
  Triplet a(1, 100, 3), b(2, 100, 3);
  EXPECT_TRUE(Triplet::intersect(a, b).empty());
  // {0,6,12,...} with {0,10,20,...} -> lcm 30.
  Triplet c(0, 120, 6), d(0, 120, 10);
  Triplet i = Triplet::intersect(c, d);
  EXPECT_EQ(i, Triplet(0, 120, 30));
}

TEST(Triplet, SubtractFullStride) {
  bool exact = false;
  auto pieces = Triplet::subtract(Triplet(1, 30), Triplet(26, 30), &exact);
  EXPECT_TRUE(exact);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], Triplet(1, 25));
}

TEST(Triplet, SubtractMiddle) {
  bool exact = false;
  auto pieces = Triplet::subtract(Triplet(1, 10), Triplet(4, 6), &exact);
  EXPECT_TRUE(exact);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], Triplet(1, 3));
  EXPECT_EQ(pieces[1], Triplet(7, 10));
}

TEST(Triplet, SubtractConservative) {
  bool exact = true;
  // Removing every third element from a dense range is inexpressible.
  auto pieces = Triplet::subtract(Triplet(1, 30), Triplet(1, 30, 3), &exact);
  EXPECT_FALSE(exact);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], Triplet(1, 30));  // over-approximation keeps everything
}

TEST(Triplet, MergeAdjacentAndOverlapping) {
  EXPECT_EQ(*Triplet::merge(Triplet(1, 5), Triplet(6, 10)), Triplet(1, 10));
  EXPECT_EQ(*Triplet::merge(Triplet(1, 7), Triplet(4, 10)), Triplet(1, 10));
  EXPECT_FALSE(Triplet::merge(Triplet(1, 5), Triplet(7, 10)).has_value());
  EXPECT_EQ(*Triplet::merge(Triplet(1, 7, 3), Triplet(10, 13, 3)),
            Triplet(1, 13, 3));
  EXPECT_FALSE(Triplet::merge(Triplet(1, 7, 3), Triplet(2, 8, 3)).has_value());
}

// ---- property sweeps ------------------------------------------------------

struct TripletPair {
  Triplet a, b;
};

class TripletProperty : public ::testing::TestWithParam<TripletPair> {};

TEST_P(TripletProperty, IntersectMatchesSetSemantics) {
  const auto& [a, b] = GetParam();
  std::set<int64_t> expect;
  for (int64_t v : members(a))
    if (members(b).count(v)) expect.insert(v);
  EXPECT_EQ(members(Triplet::intersect(a, b)), expect)
      << a.str() << " ^ " << b.str();
}

TEST_P(TripletProperty, SubtractIsSoundAndDisjoint) {
  const auto& [a, b] = GetParam();
  bool exact = false;
  auto pieces = Triplet::subtract(a, b, &exact);
  std::set<int64_t> got;
  for (const auto& p : pieces)
    for (int64_t v : members(p)) {
      EXPECT_TRUE(got.insert(v).second) << "pieces overlap at " << v;
    }
  std::set<int64_t> expect;
  for (int64_t v : members(a))
    if (!members(b).count(v)) expect.insert(v);
  if (exact) {
    EXPECT_EQ(got, expect) << a.str() << " \\ " << b.str();
  } else {
    // Conservative: a superset of the true difference, subset of a.
    for (int64_t v : expect) EXPECT_TRUE(got.count(v));
    for (int64_t v : got) EXPECT_TRUE(members(a).count(v));
  }
}

TEST_P(TripletProperty, MergeIsExactUnion) {
  const auto& [a, b] = GetParam();
  auto merged = Triplet::merge(a, b);
  if (!merged) return;
  std::set<int64_t> expect = members(a);
  for (int64_t v : members(b)) expect.insert(v);
  EXPECT_EQ(members(*merged), expect) << a.str() << " U " << b.str();
}

std::vector<TripletPair> make_pairs() {
  std::vector<Triplet> pool = {
      Triplet(1, 10),       Triplet(5, 14),      Triplet(11, 20),
      Triplet(1, 30, 3),    Triplet(2, 29, 3),   Triplet(1, 30, 5),
      Triplet(4, 4),        Triplet(10, 10),     Triplet(1, 0),
      Triplet(0, 40, 4),    Triplet(2, 38, 6),   Triplet(-10, 10, 2),
      Triplet(-5, 25, 5),   Triplet(1, 100, 7),  Triplet(3, 99, 7),
  };
  std::vector<TripletPair> pairs;
  for (const auto& a : pool)
    for (const auto& b : pool) pairs.push_back({a, b});
  return pairs;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, TripletProperty,
                         ::testing::ValuesIn(make_pairs()));

// ---- Rsd ------------------------------------------------------------------

TEST(Rsd, SizeAndContains) {
  Rsd r = Rsd::dense({{1, 25}, {1, 100}});
  EXPECT_EQ(r.size(), 2500);
  EXPECT_TRUE(r.contains({1, 1}));
  EXPECT_TRUE(r.contains({25, 100}));
  EXPECT_FALSE(r.contains({26, 1}));
  EXPECT_TRUE(r.contains(Rsd::dense({{5, 10}, {20, 30}})));
  EXPECT_FALSE(r.contains(Rsd::dense({{5, 30}, {20, 30}})));
}

TEST(Rsd, IntersectAndEmpty) {
  Rsd a = Rsd::dense({{1, 25}, {1, 100}});
  Rsd b = Rsd::dense({{20, 40}, {50, 150}});
  Rsd i = Rsd::intersect(a, b);
  EXPECT_EQ(i, Rsd::dense({{20, 25}, {50, 100}}));
  Rsd c = Rsd::dense({{30, 40}, {1, 10}});
  EXPECT_TRUE(Rsd::intersect(a, c).empty());
}

TEST(Rsd, SubtractBoxDecomposition) {
  // [1:30] x [1:10] minus [26:30] x [1:10] = [1:25] x [1:10].
  bool exact = false;
  auto pieces = Rsd::subtract(Rsd::dense({{1, 30}, {1, 10}}),
                              Rsd::dense({{26, 30}, {1, 10}}), &exact);
  EXPECT_TRUE(exact);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], Rsd::dense({{1, 25}, {1, 10}}));
}

TEST(Rsd, SubtractCorner) {
  bool exact = false;
  auto pieces = Rsd::subtract(Rsd::dense({{1, 10}, {1, 10}}),
                              Rsd::dense({{6, 10}, {6, 10}}), &exact);
  EXPECT_TRUE(exact);
  int64_t total = 0;
  for (const auto& p : pieces) total += p.size();
  EXPECT_EQ(total, 100 - 25);
  // Pieces must be pairwise disjoint.
  for (size_t i = 0; i < pieces.size(); ++i)
    for (size_t j = i + 1; j < pieces.size(); ++j)
      EXPECT_TRUE(Rsd::intersect(pieces[i], pieces[j]).empty());
}

TEST(Rsd, MergeAlongOneDim) {
  auto m = Rsd::merge(Rsd::dense({{26, 30}, {1, 50}}),
                      Rsd::dense({{26, 30}, {51, 100}}));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, Rsd::dense({{26, 30}, {1, 100}}));
  EXPECT_FALSE(Rsd::merge(Rsd::dense({{1, 5}, {1, 50}}),
                          Rsd::dense({{6, 10}, {51, 100}}))
                   .has_value());
}

TEST(Rsd, MergeContainment) {
  auto m = Rsd::merge(Rsd::dense({{1, 30}}), Rsd::dense({{5, 10}}));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, Rsd::dense({{1, 30}}));
}

TEST(Rsd, TranslateAndEnumerate) {
  Rsd r = Rsd::dense({{1, 2}, {3, 4}});
  Rsd t = r.translate({10, -2});
  EXPECT_EQ(t, Rsd::dense({{11, 12}, {1, 2}}));
  auto pts = r.enumerate();
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0], (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(pts[3], (std::vector<int64_t>{2, 4}));
}

// for_each walks the points the runtime packs messages in: last dimension
// fastest, strides honored, nothing for an empty section.
TEST(Rsd, ForEachWalksLastDimensionFastest) {
  std::vector<std::vector<int64_t>> got;
  Rsd({Triplet(1, 5, 2), Triplet(7, 8)}).for_each([&](const int64_t* p) {
    got.push_back({p[0], p[1]});
  });
  const std::vector<std::vector<int64_t>> want = {
      {1, 7}, {1, 8}, {3, 7}, {3, 8}, {5, 7}, {5, 8}};
  EXPECT_EQ(got, want);
  int calls = 0;
  Rsd({Triplet(1, 3), Triplet::empty_range()}).for_each(
      [&](const int64_t*) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Ranks past the inline buffer walk the same way.
  const Rsd wide = Rsd::dense(std::vector<std::pair<int64_t, int64_t>>(10, {1, 2}));
  int64_t points = 0, last = 0;
  wide.for_each([&](const int64_t* p) {
    ++points;
    last = p[9];
  });
  EXPECT_EQ(points, 1024);
  EXPECT_EQ(last, 2);
  EXPECT_EQ(wide.enumerate().back(), std::vector<int64_t>(10, 2));
}

TEST(RsdList, CoalescingAddMergesSections) {
  RsdList list;
  for (int64_t c = 1; c <= 100; ++c)
    list.add_coalescing(Rsd({Triplet(26, 30), Triplet::single(c)}));
  ASSERT_EQ(list.sections().size(), 1u);
  EXPECT_EQ(list.sections()[0], Rsd::dense({{26, 30}, {1, 100}}));
  EXPECT_EQ(list.total_size(), 500);
}

TEST(RsdList, ContainsPoint) {
  RsdList list;
  list.add(Rsd::dense({{1, 5}}));
  list.add(Rsd::dense({{10, 15}}));
  EXPECT_TRUE(list.contains_point({3}));
  EXPECT_TRUE(list.contains_point({12}));
  EXPECT_FALSE(list.contains_point({7}));
}

// 2-D subtraction property sweep against brute force.
struct BoxPair {
  Rsd a, b;
};

class RsdSubtractProperty : public ::testing::TestWithParam<BoxPair> {};

TEST_P(RsdSubtractProperty, MatchesSetSemantics) {
  const auto& [a, b] = GetParam();
  bool exact = false;
  auto pieces = Rsd::subtract(a, b, &exact);
  std::set<std::vector<int64_t>> got;
  for (const auto& p : pieces)
    for (auto& pt : p.enumerate()) EXPECT_TRUE(got.insert(pt).second);
  std::set<std::vector<int64_t>> expect;
  for (auto& pt : a.enumerate())
    if (!b.contains(pt)) expect.insert(pt);
  if (exact)
    EXPECT_EQ(got, expect);
  else
    for (const auto& pt : expect) EXPECT_TRUE(got.count(pt));
}

std::vector<BoxPair> make_boxes() {
  std::vector<Rsd> pool = {
      Rsd::dense({{1, 8}, {1, 8}}),   Rsd::dense({{3, 10}, {3, 10}}),
      Rsd::dense({{1, 8}, {5, 12}}),  Rsd::dense({{4, 6}, {4, 6}}),
      Rsd::dense({{9, 12}, {1, 4}}),  Rsd({Triplet(1, 7, 2), Triplet(1, 8)}),
      Rsd({Triplet(2, 8, 2), Triplet(1, 8)}),
  };
  std::vector<BoxPair> out;
  for (const auto& a : pool)
    for (const auto& b : pool) out.push_back({a, b});
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllBoxes, RsdSubtractProperty,
                         ::testing::ValuesIn(make_boxes()));

}  // namespace
}  // namespace fortd
