// Binary (de)serialization of IR value types shared by the persistent
// artifact codecs: regular sections (Triplet/Rsd/RsdList) and
// decomposition specs. Same conventions as frontend/ast_serialize.hpp:
// writers are exact, readers set the BinaryReader fail bit on malformed
// input instead of throwing.
#pragma once

#include <map>
#include <set>

#include "frontend/ast_serialize.hpp"
#include "ir/decomp.hpp"
#include "ir/rsd.hpp"

namespace fortd {

/// Sections per array (summary def/use sets, GDEF/GUSE).
using RsdMap = std::map<std::string, RsdList>;
/// Decompositions reaching each variable (LocalReaching, Reaching(P)).
using DecompSets = std::map<std::string, std::set<DecompSpec>>;

void write_triplet(BinaryWriter& w, const Triplet& t);
void write_rsd(BinaryWriter& w, const Rsd& r);
void write_rsd_list(BinaryWriter& w, const RsdList& l);
void write_rsd_map(BinaryWriter& w, const RsdMap& m);
void write_decomp_spec(BinaryWriter& w, const DecompSpec& d);
void write_decomp_sets(BinaryWriter& w, const DecompSets& m);

Triplet read_triplet(BinaryReader& r);
Rsd read_rsd(BinaryReader& r);
RsdList read_rsd_list(BinaryReader& r);
RsdMap read_rsd_map(BinaryReader& r);
DecompSpec read_decomp_spec(BinaryReader& r);
DecompSets read_decomp_sets(BinaryReader& r);

}  // namespace fortd
