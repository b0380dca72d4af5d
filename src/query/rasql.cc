#include "query/rasql.h"

#include <algorithm>
#include <cctype>

namespace tilestore {

namespace {

std::string_view TrimSpace(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool IsIdentifier(std::string_view text) {
  if (text.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(text[0])) && text[0] != '_') {
    return false;
  }
  return std::all_of(text.begin(), text.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  });
}

// Finds the top-level, case-insensitive keyword ` FROM ` (not inside
// brackets/parens). Returns npos if absent.
size_t FindFromKeyword(std::string_view text) {
  int depth = 0;
  for (size_t i = 0; i + 4 <= text.size(); ++i) {
    const char c = text[i];
    if (c == '[' || c == '(') ++depth;
    if (c == ']' || c == ')') --depth;
    if (depth != 0) continue;
    if (EqualsIgnoreCase(text.substr(i, 4), "from")) {
      const bool boundary_before =
          i == 0 || std::isspace(static_cast<unsigned char>(text[i - 1]));
      const bool boundary_after =
          i + 4 == text.size() ||
          std::isspace(static_cast<unsigned char>(text[i + 4]));
      if (boundary_before && boundary_after) return i;
    }
  }
  return std::string_view::npos;
}

// Parses "ident" or "ident[...]"; fills object/trim.
Status ParseTarget(std::string_view text, RasqlQuery* query) {
  text = TrimSpace(text);
  const size_t bracket = text.find('[');
  std::string_view name =
      bracket == std::string_view::npos ? text : text.substr(0, bracket);
  name = TrimSpace(name);
  if (!IsIdentifier(name)) {
    return Status::InvalidArgument("bad object name '" + std::string(name) +
                                   "'");
  }
  query->object = std::string(name);
  if (bracket == std::string_view::npos) return Status::OK();

  std::string_view rest = TrimSpace(text.substr(bracket));
  if (rest.empty() || rest.back() != ']') {
    return Status::InvalidArgument("unterminated trim expression in '" +
                                   std::string(text) + "'");
  }
  Result<MInterval> trim = MInterval::Parse(rest);
  if (!trim.ok()) return trim.status();
  query->trim = std::move(trim).MoveValue();
  return Status::OK();
}

}  // namespace

Result<RasqlQuery> ParseRasql(std::string_view text) {
  std::string_view rest = TrimSpace(text);
  // "select" must be followed by whitespace, so a query needs >= 7 bytes.
  if (rest.size() < 7 || !EqualsIgnoreCase(rest.substr(0, 6), "select") ||
      !std::isspace(static_cast<unsigned char>(rest[6]))) {
    return Status::InvalidArgument("query must start with SELECT");
  }
  rest.remove_prefix(6);

  const size_t from = FindFromKeyword(rest);
  if (from == std::string_view::npos) {
    return Status::InvalidArgument("missing FROM clause");
  }
  std::string_view item = TrimSpace(rest.substr(0, from));
  std::string_view from_name = TrimSpace(rest.substr(from + 4));
  if (!IsIdentifier(from_name)) {
    return Status::InvalidArgument("bad FROM object '" +
                                   std::string(from_name) + "'");
  }
  if (item.empty()) {
    return Status::InvalidArgument("empty SELECT item");
  }

  RasqlQuery query;

  // Condenser form: ident '(' target ')'.
  const size_t paren = item.find('(');
  if (paren != std::string_view::npos) {
    if (item.back() != ')') {
      return Status::InvalidArgument("unterminated condenser call");
    }
    std::string_view condenser = TrimSpace(item.substr(0, paren));
    Result<AggregateOp> op = AggregateOpFromName(condenser);
    if (!op.ok()) return op.status();
    query.condenser = op.value();
    item = item.substr(paren + 1, item.size() - paren - 2);
  }

  Status st = ParseTarget(item, &query);
  if (!st.ok()) return st;

  if (query.object != from_name) {
    return Status::InvalidArgument(
        "SELECT references '" + query.object + "' but FROM names '" +
        std::string(from_name) +
        "' (joins over MDD collections are not supported)");
  }
  return query;
}

Result<RasqlValue> RasqlEngine::Execute(std::string_view text,
                                        QueryStats* stats) {
  Result<RasqlQuery> parsed = ParseRasql(text);
  if (!parsed.ok()) return parsed.status();

  Result<MDDObject*> object = store_->GetMDD(parsed->object);
  if (!object.ok()) return object.status();

  MInterval region;
  if (parsed->trim.has_value()) {
    region = *parsed->trim;
  } else {
    // Whole object: every axis unbounded, resolved by the executor.
    std::vector<Coord> lo((*object)->definition_domain().dim(), kLoUnbounded);
    std::vector<Coord> hi((*object)->definition_domain().dim(), kHiUnbounded);
    Result<MInterval> all = MInterval::Create(std::move(lo), std::move(hi));
    if (!all.ok()) return all.status();
    region = std::move(all).MoveValue();
  }

  RasqlValue value;
  if (parsed->condenser.has_value()) {
    // Push-down: condense tile by tile without materializing the region.
    Result<double> scalar =
        executor_.ExecuteAggregate(*object, region, *parsed->condenser,
                                   stats);
    if (!scalar.ok()) return scalar.status();
    value.scalar = *scalar;
  } else {
    Result<Array> array = executor_.Execute(*object, region, stats);
    if (!array.ok()) return array.status();
    value.array = std::move(array).MoveValue();
  }
  return value;
}

}  // namespace tilestore
