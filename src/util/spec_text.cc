#include "util/spec_text.h"

#include <algorithm>
#include <cmath>

#include "util/table.h"

namespace ldb {

bool ParseDecimal(std::string_view token, double* out) {
  const char* end = token.data() + token.size();
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(token.data(), end, value,
                                         std::chars_format::general);
  if (ec != std::errc() || ptr != end || std::isnan(value)) return false;
  *out = value;
  return true;
}

std::string FormatExact(double value) {
  char buf[32];  // the longest shortest-form double is 24 characters
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, ptr);
}

Status ClauseError(std::string_view grammar, int clause,
                   const std::string& what) {
  return Status::InvalidArgument(
      StrFormat("%.*s clause %d: %s", static_cast<int>(grammar.size()),
                grammar.data(), clause, what.c_str()));
}

Status SpecClause::Error(const std::string& what) const {
  return ClauseError(grammar, index, what);
}

Status SpecClause::Decimal(const SpecItem& item, double* out) const {
  if (ParseDecimal(item.value, out)) return Status::Ok();
  return BadNumber(item, "number");
}

Status SpecClause::BadNumber(const SpecItem& item, const char* noun) const {
  return Error(StrFormat("bad %s '%s' for key '%s'", noun, item.value.c_str(),
                         item.key.c_str()));
}

Result<std::vector<SpecClause>> SplitSpecClauses(std::string_view grammar,
                                                 std::string_view text) {
  // Splits on `sep`, dropping empty pieces.
  const auto split = [](std::string_view s, char sep) {
    std::vector<std::string_view> pieces;
    while (!s.empty()) {
      const size_t end = std::min(s.find(sep), s.size());
      if (end > 0) pieces.push_back(s.substr(0, end));
      s.remove_prefix(std::min(end + 1, s.size()));
    }
    return pieces;
  };
  std::vector<SpecClause> clauses;
  for (std::string_view text_clause : split(text, ';')) {
    SpecClause& clause = clauses.emplace_back();
    clause.grammar = grammar;
    clause.index = static_cast<int>(clauses.size());
    for (std::string_view item : split(text_clause, ',')) {
      const size_t eq = item.find('=');
      if (eq == std::string_view::npos) {
        return clause.Error(
            StrFormat("'%.*s' is not key=value", static_cast<int>(item.size()),
                      item.data()));
      }
      clause.items.push_back(
          {std::string(item.substr(0, eq)), std::string(item.substr(eq + 1))});
    }
  }
  return clauses;
}

}  // namespace ldb
