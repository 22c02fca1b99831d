#ifndef LAYOUTDB_UTIL_SPEC_TEXT_H_
#define LAYOUTDB_UTIL_SPEC_TEXT_H_

// The one spec grammar and number policy. Every declarative input goes
// through here: the `--faults`, `--autopilot`, scenario and
// `--journal-crash` specs, the problem file's numbers, journal record
// fields and numeric CLI flags.
//
// Grammar: `;` separates clauses and `,` separates `key=value` items.
// Empty clauses and items are skipped. Clauses are numbered from 1 over
// the non-empty ones, and every clause-level error reads
// "<grammar> clause N: <what>".
//
// Numbers are parsed as whole tokens and without regard to locale
// (std::from_chars):
//  - ParseDecimal takes decimal or exponent form, and `inf`, because
//    `window=inf` and `threshold=inf` mean something. It rejects NaN, hex,
//    a leading blank or `+`, an exponent out of range and trailing text.
//  - ParseInteger takes an optional `-` and decimal digits. It rejects any
//    value the destination type cannot hold, so nothing is truncated or
//    clamped.
// FormatExact prints the shortest decimal that ParseDecimal reads back
// bit-identically, so every spec formatter round-trips.

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "util/status.h"

namespace ldb {

bool ParseDecimal(std::string_view token, double* out);

template <typename Int>
bool ParseInteger(std::string_view token, Int* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

std::string FormatExact(double value);

/// "<grammar> clause N: <what>".
Status ClauseError(std::string_view grammar, int clause,
                   const std::string& what);

struct SpecItem {
  std::string key;
  std::string value;
};

/// One non-empty clause. Its number parsers fail with the clause's error
/// shape: "bad number '<value>' for key '<key>'".
struct SpecClause {
  std::string_view grammar;
  int index = 0;  ///< 1-based among the non-empty clauses
  std::vector<SpecItem> items;

  Status Error(const std::string& what) const;
  Status Decimal(const SpecItem& item, double* out) const;
  template <typename Int>
  Status Integer(const SpecItem& item, Int* out) const {
    if (ParseInteger(item.value, out)) return Status::Ok();
    return BadNumber(item, "integer");
  }

 private:
  Status BadNumber(const SpecItem& item, const char* noun) const;
};

/// Splits `text` into its non-empty clauses. A non-empty item without `=`
/// fails with its clause's error. `grammar` must outlive the result.
Result<std::vector<SpecClause>> SplitSpecClauses(std::string_view grammar,
                                                 std::string_view text);

}  // namespace ldb

#endif  // LAYOUTDB_UTIL_SPEC_TEXT_H_
