#ifndef MVIEW_RELATIONAL_CSV_H_
#define MVIEW_RELATIONAL_CSV_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "relational/relation.h"

namespace mview {

/// CSV persistence for relations.
///
/// Format: a typed header line `name:int64,name:string,…` followed by one
/// row per tuple.  String fields are double-quoted when they contain a
/// comma, quote, or newline, with embedded quotes doubled (RFC-4180 style).
/// Counted relations append a final `#count` column.

/// Writes `relation` to `out`.  Rows are emitted in sorted order so output
/// is deterministic.
void WriteCsv(const Relation& relation, std::ostream& out);

/// Writes a counted relation, appending a `#count` column.
void WriteCsv(const CountedRelation& relation, std::ostream& out);

/// Reads a relation written by `WriteCsv`.  Throws `Error` on malformed
/// input (bad header, arity mismatch, unparsable integers) and on counted
/// input (a `#count` column), which has no plain-relation reading.
Relation ReadCsv(std::istream& in);

/// File-path conveniences; throw `Error` when the file cannot be opened.
void WriteCsvFile(const Relation& relation, const std::string& path);
Relation ReadCsvFile(const std::string& path);

}  // namespace mview

#endif  // MVIEW_RELATIONAL_CSV_H_
