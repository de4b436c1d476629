// Binary (de)serialization of the AST — the SPMD-level procedure bodies
// the persistent compilation database stores per generated procedure.
//
// Round-tripping is field-exact: statement ids, source locations, and
// next_stmt_id are preserved so a procedure rehydrated from disk behaves
// identically to the freshly generated one (the pretty-printer, the
// dynamic-decomposition optimizer, and the simulator all run on cached
// bodies). Statements serialize every field behind presence flags rather
// than a per-kind subset, so a new use of an existing field can never
// silently desynchronize the cache format.
//
// Readers never throw: a malformed payload leaves the BinaryReader's fail
// bit set and the deserializer returns nullptr/nullopt.
//
// The same writers feed the cache digests: hash_procedure
// (ipa/summaries.hpp) is fnv1a over write_procedure's bytes, written with
// source positions switched off (BinaryWriter::positions).
#pragma once

#include <optional>

#include "frontend/ast.hpp"
#include "support/serialize.hpp"

namespace fortd {

/// A source position; writes nothing when !w.positions().
void write_loc(BinaryWriter& w, const SourceLoc& loc);
void write_dist_spec(BinaryWriter& w, const DistSpec& d);
void write_dist_specs(BinaryWriter& w, const std::vector<DistSpec>& v);
void write_expr(BinaryWriter& w, const Expr& e);
void write_expr_opt(BinaryWriter& w, const ExprPtr& e);  // nullable
void write_section_expr(BinaryWriter& w, const SectionExpr& s);
void write_stmt(BinaryWriter& w, const Stmt& s);
void write_stmts(BinaryWriter& w, const std::vector<StmtPtr>& stmts);
void write_procedure(BinaryWriter& w, const Procedure& proc);

/// Each reader returns a null/empty value with r.ok() == false on
/// malformed input; callers check r.ok() once after the outermost read.
SourceLoc read_loc(BinaryReader& r);
DistSpec read_dist_spec(BinaryReader& r);
std::vector<DistSpec> read_dist_specs(BinaryReader& r);
ExprPtr read_expr(BinaryReader& r);
ExprPtr read_expr_opt(BinaryReader& r);
SectionExpr read_section_expr(BinaryReader& r);
StmtPtr read_stmt(BinaryReader& r);
std::vector<StmtPtr> read_stmts(BinaryReader& r);
std::unique_ptr<Procedure> read_procedure(BinaryReader& r);

}  // namespace fortd
