// phisched_lint — telemetry-schema extraction and cross-checks.
//
// The observability layer registers every metric through obs::Registry
// (`m.counter(name)`, `m.gauge`, `m.series`, `m.time_histogram`,
// `m.histogram`) and every event through `Recorder::event(t, type, ...)`.
// This pass statically extracts the NAME argument of each call as a
// pattern: string-literal fragments are kept verbatim and every
// non-literal subexpression (`prefix +`, `std::to_string(d)`, ...)
// becomes a `*` wildcard, so
//
//     prefix + ".mic" + std::to_string(d) + ".queue_depth"
//
// extracts as `*.mic*.queue_depth`. Names emitted through an indirection
// the extractor cannot see are declared with an annotation comment:
//
//     // phisched-lint: emits<(>event job_completed, event job_failed<)>
//
// (shown with <(> for the parenthesis so the pass does not read this very
// comment as an annotation)
//
// The extracted set is cross-checked against the fenced
// ```telemetry-schema``` block in docs/telemetry.md (placeholders like
// `<dev>` normalize to `*`) and against the metric names in the golden
// bench files:
//
//   schema-undocumented  an extracted pattern matches no documented entry
//                        of the same kind (misspelled or undocumented)
//   schema-orphan        a documented entry matches no extracted pattern
//                        (the code stopped emitting it), or a documented
//                        `bench` entry matches no golden metric name
//   schema-golden        a golden metric name matches no documented
//                        `bench` entry
//
// Two patterns "match" when their glob languages intersect, decided by a
// memoized two-pattern DP — so `sla.tenant*.wait_p99` matches the doc
// entry `sla.tenant<k>.wait_p99` without either side being literal.

#include "lint/lint.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "common/json.hpp"

namespace phisched::lint {

namespace {

const std::set<std::string, std::less<>>& metric_kinds() {
  static const std::set<std::string, std::less<>> kKinds = {
      "counter", "gauge", "series", "time_histogram", "histogram"};
  return kKinds;
}

bool valid_kind(const std::string& k) {
  return metric_kinds().count(k) > 0 || k == "event" || k == "bench";
}

struct Entry {
  std::string kind;     // counter/gauge/series/time_histogram/histogram/event
  std::string pattern;  // with '*' wildcards
  std::string file;
  std::size_t line = 0;
};

// ---------------------------------------------------------------------------
// Glob-intersection: do two '*' patterns share any concrete string?
// ---------------------------------------------------------------------------

bool intersects_impl(const std::string& a, std::size_t i, const std::string& b,
                     std::size_t j, std::map<std::size_t, char>& memo) {
  const std::size_t key = i * (b.size() + 1) + j;
  const auto hit = memo.find(key);
  if (hit != memo.end()) return hit->second != 0;
  bool result;
  if (i == a.size() && j == b.size()) {
    result = true;
  } else if (i < a.size() && a[i] == '*') {
    result = intersects_impl(a, i + 1, b, j, memo) ||
             (j < b.size() && intersects_impl(a, i, b, j + 1, memo));
  } else if (j < b.size() && b[j] == '*') {
    result = intersects_impl(a, i, b, j + 1, memo) ||
             (i < a.size() && intersects_impl(a, i + 1, b, j, memo));
  } else if (i < a.size() && j < b.size() && a[i] == b[j]) {
    result = intersects_impl(a, i + 1, b, j + 1, memo);
  } else {
    result = false;
  }
  memo[key] = result ? 1 : 2;
  return result;
}

bool patterns_intersect(const std::string& a, const std::string& b) {
  std::map<std::size_t, char> memo;
  return intersects_impl(a, 0, b, 0, memo);
}

// ---------------------------------------------------------------------------
// Extraction from registration call sites
// ---------------------------------------------------------------------------

/// Splits `args` (the text between a call's parentheses) into top-level
/// comma-separated arguments.
std::vector<std::string> split_args(const std::string& args) {
  std::vector<std::string> parts;
  int depth = 0;
  bool in_str = false;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= args.size(); ++i) {
    if (i == args.size()) {
      parts.push_back(args.substr(start));
      break;
    }
    const char c = args[i];
    if (in_str) {
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
      continue;
    }
    if (c == '"') in_str = true;
    else if (c == '(' || c == '[' || c == '{') ++depth;
    else if (c == ')' || c == ']' || c == '}') --depth;
    else if (c == ',' && depth == 0) {
      parts.push_back(args.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

/// Builds the name pattern for one argument expression: top-level `+`
/// concatenation of string literals and arbitrary subexpressions, where
/// every non-literal operand contributes a `*`. Returns empty when the
/// expression has no literal fragment at all (a pure-`*` pattern says
/// nothing checkable).
std::string pattern_of(const std::string& expr) {
  std::string pattern;
  bool any_literal = false;
  int depth = 0;
  bool in_str = false;
  bool operand_literal_only = true;  // current '+'-operand is pure literal(s)
  std::string literal;
  auto flush_operand = [&]() {
    if (operand_literal_only && !literal.empty()) {
      pattern += literal;
      any_literal = true;
    } else if (!operand_literal_only) {
      if (!literal.empty()) {
        // Mixed operand (e.g. a call containing a literal) — wildcard.
      }
      if (pattern.empty() || pattern.back() != '*') pattern += '*';
    } else if (literal.empty()) {
      // Empty operand (shouldn't happen) — treat as wildcard.
      if (pattern.empty() || pattern.back() != '*') pattern += '*';
    }
    literal.clear();
    operand_literal_only = true;
  };
  bool str_top = false;  // current string literal sits at concat depth 0
  for (std::size_t i = 0; i < expr.size(); ++i) {
    const char c = expr[i];
    if (in_str) {
      if (c == '\\' && i + 1 < expr.size()) {
        if (str_top) literal += expr[i + 1];
        ++i;
      } else if (c == '"') {
        in_str = false;
      } else if (str_top) {
        literal += c;
      }
      continue;
    }
    if (c == '"') {
      in_str = true;
      str_top = depth == 0;
      if (!str_top) operand_literal_only = false;  // literal inside a call
      continue;
    }
    if (c == '(' || c == '[' || c == '{') ++depth;
    else if (c == ')' || c == ']' || c == '}') --depth;
    if (c == '+' && depth == 0) {
      flush_operand();
      continue;
    }
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
      operand_literal_only = false;
    }
  }
  flush_operand();
  if (!any_literal) return {};
  return pattern;
}

/// Extracts registration calls from one file. A call site is a member
/// access (`.` or `->`) whose method name is a metric kind (name = first
/// argument) or `event` (name = second argument).
void extract_calls(const FileText& f, std::vector<Entry>& out) {
  const std::string& code = f.code_strings;
  std::size_t i = 0;
  while (i < code.size()) {
    if (!is_ident_start(code[i]) || (i > 0 && is_ident_char(code[i - 1]))) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < code.size() && is_ident_char(code[end])) ++end;
    const std::string name = code.substr(i, end - i);
    const bool is_metric = metric_kinds().count(name) > 0;
    const bool is_event = name == "event";
    if (!is_metric && !is_event) {
      i = end;
      continue;
    }
    // Must be a member call: receiver '.' or '->' directly before.
    std::size_t p = i;
    while (p > 0 && (code[p - 1] == ' ' || code[p - 1] == '\t')) --p;
    const bool member =
        (p > 0 && code[p - 1] == '.') ||
        (p > 1 && code[p - 1] == '>' && code[p - 2] == '-');
    if (!member) {
      i = end;
      continue;
    }
    const std::size_t paren = skip_spaces(code, end);
    if (paren >= code.size() || code[paren] != '(') {
      i = end;
      continue;
    }
    const std::size_t close = skip_balanced(code, paren, '(', ')');
    if (close == std::string::npos) {
      i = end;
      continue;
    }
    const std::vector<std::string> args =
        split_args(code.substr(paren + 1, close - paren - 2));
    const std::size_t arg_idx = is_event ? 1 : 0;
    if (args.size() > arg_idx) {
      const std::string pattern = pattern_of(args[arg_idx]);
      if (!pattern.empty()) {
        out.push_back({is_event ? "event" : name, pattern, f.path,
                       f.line_of(i)});
      }
    }
    i = end;
  }

  // Annotation comments for names emitted through indirections:
  // (the marker string is spliced so this file does not annotate itself)
  static const std::string kMarker = std::string("phisched-lint: ") + "emits(";
  std::size_t pos = 0;
  while ((pos = f.raw.find(kMarker, pos)) != std::string::npos) {
    const std::size_t open = pos + kMarker.size() - 1;
    const std::size_t close2 = f.raw.find(')', open);
    const std::size_t line = f.line_of(pos);
    pos = open;
    if (close2 == std::string::npos) continue;
    std::stringstream list(f.raw.substr(open + 1, close2 - open - 1));
    std::string item;
    while (std::getline(list, item, ',')) {
      std::stringstream kv(item);
      std::string kind, pat;
      kv >> kind >> pat;
      if (!kind.empty() && !pat.empty() && valid_kind(kind) && kind != "bench") {
        out.push_back({kind, pat, f.path, line});
      } else if (!kind.empty()) {
        out.push_back({"", "", f.path, line});  // malformed — flagged below
      }
    }
  }
}

// ---------------------------------------------------------------------------
// docs/telemetry.md schema block
// ---------------------------------------------------------------------------

struct DocEntry {
  std::string kind;
  std::string pattern;    // '<...>' placeholders normalized to '*'
  std::string spelling;   // as written in the doc, for messages
  std::size_t line = 0;
};

/// Normalizes a documented name: every `<...>` placeholder becomes `*`.
std::string normalize_doc_pattern(const std::string& s) {
  std::string out;
  std::size_t i = 0;
  while (i < s.size()) {
    if (s[i] == '<') {
      const std::size_t close = s.find('>', i);
      if (close != std::string::npos) {
        if (out.empty() || out.back() != '*') out += '*';
        i = close + 1;
        continue;
      }
    }
    out += s[i++];
  }
  return out;
}

/// Parses the ```telemetry-schema fenced block. Lines are `kind name`;
/// blank lines and `#` comments are skipped. Returns false (with a
/// finding) when the file has no such block.
bool parse_doc_schema(const std::string& path, const std::string& text,
                      std::vector<DocEntry>& entries,
                      std::vector<Finding>& findings) {
  std::size_t line_no = 0;
  bool in_block = false;
  bool found_block = false;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos) {
      const std::string trimmed = line.substr(first);
      if (trimmed.rfind("```", 0) == 0) {
        if (!in_block && trimmed.rfind("```telemetry-schema", 0) == 0) {
          in_block = true;
          found_block = true;
        } else if (in_block) {
          in_block = false;
        }
      } else if (in_block && trimmed[0] != '#') {
        std::stringstream ss(trimmed);
        std::string kind, name;
        ss >> kind >> name;
        if (kind.empty()) {
          // blank-ish line
        } else if (!valid_kind(kind) || name.empty()) {
          findings.push_back(
              {path, line_no, "schema-orphan",
               "malformed telemetry-schema line '" + trimmed +
                   "': expected '<kind> <name>' with kind one of counter, "
                   "gauge, series, time_histogram, histogram, event, bench"});
        } else {
          entries.push_back(
              {kind, normalize_doc_pattern(name), name, line_no});
        }
      }
    }
    pos = eol + 1;
    if (eol == text.size()) break;
  }
  return found_block;
}

// ---------------------------------------------------------------------------
// bench/golden metric names
// ---------------------------------------------------------------------------

struct GoldenName {
  std::string name;
  std::string file;
  std::size_t line = 0;
};

/// Pulls every key of every `"metrics": {...}` object out of a golden
/// bench JSON file, with line numbers.
void parse_golden(const std::string& path, const std::string& text,
                  std::vector<GoldenName>& out) {
  std::vector<std::size_t> line_starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') line_starts.push_back(i + 1);
  }
  auto line_of = [&](std::size_t off) {
    const auto it =
        std::upper_bound(line_starts.begin(), line_starts.end(), off);
    return static_cast<std::size_t>(it - line_starts.begin());
  };
  static const std::string kNeedle = "\"metrics\"";
  std::size_t pos = 0;
  while ((pos = text.find(kNeedle, pos)) != std::string::npos) {
    std::size_t p = text.find('{', pos + kNeedle.size());
    pos += kNeedle.size();
    if (p == std::string::npos) break;
    int depth = 0;
    bool expecting_key = true;
    while (p < text.size()) {
      const char c = text[p];
      if (c == '{' || c == '[') {
        ++depth;
        ++p;
        continue;
      }
      if (c == '}' || c == ']') {
        if (--depth == 0) break;
        ++p;
        continue;
      }
      if (c == '"') {
        const std::size_t start = p + 1;
        std::size_t q = start;
        while (q < text.size() && text[q] != '"') {
          if (text[q] == '\\') ++q;
          ++q;
        }
        if (depth == 1 && expecting_key) {
          out.push_back({text.substr(start, q - start), path, line_of(p)});
          expecting_key = false;
        }
        p = q + 1;
        continue;
      }
      if (c == ',' && depth == 1) expecting_key = true;
      ++p;
    }
  }
}

/// Minimal FileText over a non-C++ file, for suppression lookups
/// (is_suppressed only reads raw lines).
FileText doc_filetext(const std::string& path, const std::string& text) {
  FileText f;
  f.path = path;
  f.raw = text;
  f.line_starts.push_back(0);
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') f.line_starts.push_back(i + 1);
  }
  return f;
}

bool read_all(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

bool run_schema_pass(const std::vector<FileText>& files,
                     const SchemaOptions& opts, std::vector<Finding>& out) {
  // --- extract ---
  std::vector<Entry> raw_entries;
  for (const FileText& f : files) extract_calls(f, raw_entries);

  // Malformed emits() annotations become findings at the annotation line.
  std::vector<Entry> entries;
  for (Entry& e : raw_entries) {
    if (e.kind.empty()) {
      out.push_back(
          {e.file, e.line, "schema-undocumented",
           std::string("malformed 'phisched-lint: ") + "emits(...)' annotation: expected "
           "comma-separated '<kind> <name>' pairs with kind one of counter, "
           "gauge, series, time_histogram, histogram, event"});
    } else {
      entries.push_back(std::move(e));
    }
  }

  // Dedup by (kind, pattern), keeping the first site, and sort for a
  // deterministic schema file.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.pattern != b.pattern) return a.pattern < b.pattern;
    if (a.file != b.file) return a.file < b.file;
    return a.line < b.line;
  });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.kind == b.kind &&
                                     a.pattern == b.pattern;
                            }),
                entries.end());

  // --- schema-out JSON ---
  if (!opts.schema_out.empty()) {
    std::ofstream js(opts.schema_out);
    if (!js) {
      std::cerr << "phisched_lint: cannot write " << opts.schema_out << "\n";
      return false;
    }
    js << "{\n  \"tool\": \"phisched_lint\",\n  \"schema_version\": 2,\n"
       << "  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const Entry& e = entries[i];
      js << "    {\"kind\": \"" << json_escape(e.kind) << "\", \"pattern\": \""
         << json_escape(e.pattern) << "\", \"file\": \"" << json_escape(e.file)
         << "\", \"line\": " << e.line << "}"
         << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    js << "  ]\n}\n";
    if (!js) {
      std::cerr << "phisched_lint: error writing " << opts.schema_out << "\n";
      return false;
    }
  }

  if (opts.docs_path.empty()) return true;  // extraction-only mode

  // --- docs cross-check ---
  std::string doc_text;
  if (!read_all(opts.docs_path, doc_text)) {
    std::cerr << "phisched_lint: cannot read " << opts.docs_path << "\n";
    return false;
  }
  const FileText doc_ft = doc_filetext(opts.docs_path, doc_text);
  std::vector<DocEntry> doc;
  std::vector<Finding> doc_findings;
  if (!parse_doc_schema(opts.docs_path, doc_text, doc, doc_findings)) {
    out.push_back({opts.docs_path, 1, "schema-orphan",
                   "no ```telemetry-schema fenced block found — the schema "
                   "cross-check needs the machine-readable name list (see "
                   "docs/telemetry.md)"});
    return true;
  }
  for (Finding& f : doc_findings) {
    f.suppressed = is_suppressed(doc_ft, f.line, f.rule);
    out.push_back(std::move(f));
  }

  // schema-undocumented: extracted entries with no documented match.
  for (const Entry& e : entries) {
    bool matched = false;
    for (const DocEntry& d : doc) {
      if (d.kind == e.kind && patterns_intersect(e.pattern, d.pattern)) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      out.push_back(
          {e.file, e.line, "schema-undocumented",
           e.kind + " '" + e.pattern +
               "' is not documented in the telemetry-schema block of " +
               opts.docs_path +
               " — document it (placeholders like <dev> match the "
               "wildcards) or fix the misspelled name"});
    }
  }

  // schema-orphan: documented metric/event entries nothing extracts.
  for (const DocEntry& d : doc) {
    if (d.kind == "bench") continue;
    bool matched = false;
    for (const Entry& e : entries) {
      if (d.kind == e.kind && patterns_intersect(e.pattern, d.pattern)) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      Finding f{opts.docs_path, d.line, "schema-orphan",
                d.kind + " '" + d.spelling +
                    "' is documented but no registration call in the "
                    "scanned tree emits a matching name — remove the stale "
                    "doc entry or restore the metric"};
      f.suppressed = is_suppressed(doc_ft, f.line, f.rule);
      out.push_back(std::move(f));
    }
  }

  // --- golden cross-check ---
  if (opts.golden_paths.empty()) return true;
  std::vector<GoldenName> golden;
  std::vector<FileText> golden_fts;
  for (const std::string& gp : opts.golden_paths) {
    std::string text;
    if (!read_all(gp, text)) {
      std::cerr << "phisched_lint: cannot read " << gp << "\n";
      return false;
    }
    parse_golden(gp, text, golden);
    golden_fts.push_back(doc_filetext(gp, text));
  }
  auto golden_ft = [&](const std::string& path) -> const FileText& {
    for (const FileText& f : golden_fts) {
      if (f.path == path) return f;
    }
    return golden_fts.front();
  };

  // schema-golden: golden names with no documented bench entry.
  for (const GoldenName& g : golden) {
    bool matched = false;
    for (const DocEntry& d : doc) {
      if (d.kind == "bench" && patterns_intersect(g.name, d.pattern)) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      Finding f{g.file, g.line, "schema-golden",
                "golden bench metric '" + g.name +
                    "' matches no 'bench' entry in the telemetry-schema "
                    "block of " + opts.docs_path +
                    " — document the bench metric or fix the name"};
      f.suppressed = is_suppressed(golden_ft(g.file), f.line, f.rule);
      out.push_back(std::move(f));
    }
  }

  // schema-orphan for bench doc entries with no golden name.
  for (const DocEntry& d : doc) {
    if (d.kind != "bench") continue;
    bool matched = false;
    for (const GoldenName& g : golden) {
      if (patterns_intersect(g.name, d.pattern)) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      Finding f{opts.docs_path, d.line, "schema-orphan",
                "bench '" + d.spelling +
                    "' is documented but appears in no golden bench file — "
                    "remove the stale doc entry or regenerate the goldens"};
      f.suppressed = is_suppressed(doc_ft, f.line, f.rule);
      out.push_back(std::move(f));
    }
  }

  return true;
}

}  // namespace phisched::lint
