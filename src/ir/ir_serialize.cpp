#include "ir/ir_serialize.hpp"

namespace fortd {

void write_triplet(BinaryWriter& w, const Triplet& t) {
  w.i64(t.lb);
  w.i64(t.ub);
  w.i64(t.step);
}

Triplet read_triplet(BinaryReader& r) {
  // Field-exact: bypass the normalizing constructor so round-tripping
  // preserves the stored representation bit for bit.
  Triplet t;
  t.lb = r.i64();
  t.ub = r.i64();
  t.step = r.i64();
  if (t.step == 0) r.fail();  // never produced by Triplet's constructor
  return t;
}

void write_rsd(BinaryWriter& w, const Rsd& rsd) {
  w.count(rsd.dims().size());
  for (const Triplet& t : rsd.dims()) write_triplet(w, t);
}

Rsd read_rsd(BinaryReader& r) {
  std::vector<Triplet> dims(r.count());
  for (Triplet& t : dims) t = read_triplet(r);
  return Rsd(std::move(dims));
}

void write_rsd_list(BinaryWriter& w, const RsdList& l) {
  w.count(l.sections().size());
  for (const Rsd& rsd : l.sections()) write_rsd(w, rsd);
}

RsdList read_rsd_list(BinaryReader& r) {
  RsdList out;
  size_t n = r.count();
  // add() (not add_coalescing): restore the stored sections verbatim.
  for (size_t i = 0; i < n; ++i) out.add(read_rsd(r));
  return out;
}

void write_rsd_map(BinaryWriter& w, const RsdMap& m) {
  w.count(m.size());
  for (const auto& [array, list] : m) {
    w.str(array);
    write_rsd_list(w, list);
  }
}

RsdMap read_rsd_map(BinaryReader& r) {
  RsdMap m;
  size_t n = r.count();
  for (size_t i = 0; i < n; ++i) {
    std::string array = r.str();
    m[array] = read_rsd_list(r);
  }
  return m;
}

void write_decomp_spec(BinaryWriter& w, const DecompSpec& d) {
  w.boolean(d.is_top);
  write_dist_specs(w, d.dists);
}

DecompSpec read_decomp_spec(BinaryReader& r) {
  DecompSpec d;
  d.is_top = r.boolean();
  d.dists = read_dist_specs(r);
  return d;
}

void write_decomp_sets(BinaryWriter& w, const DecompSets& m) {
  w.count(m.size());
  for (const auto& [var, specs] : m) {
    w.str(var);
    w.count(specs.size());
    for (const DecompSpec& spec : specs) write_decomp_spec(w, spec);
  }
}

DecompSets read_decomp_sets(BinaryReader& r) {
  DecompSets m;
  size_t n = r.count();
  for (size_t i = 0; i < n; ++i) {
    std::set<DecompSpec>& specs = m[r.str()];
    size_t k = r.count();
    for (size_t j = 0; j < k; ++j) specs.insert(read_decomp_spec(r));
  }
  return m;
}

}  // namespace fortd
