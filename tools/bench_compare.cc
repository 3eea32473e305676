// Compares a freshly produced BENCH_*.json against the committed
// baseline under bench/results/, flagging regressions per metric. CI
// runs it after the bench smokes so a change that silently halves the
// engine's read throughput (or breaks an oracle) fails the build
// instead of landing as a mystery for the next profiling session.
//
//   bench_compare <fresh.json> <baseline.json>
//       [--tolerance f]   relative slack for timing-ish metrics
//                         (default 0.5 = 50%, benches are noisy)
//       [--min-base v]    skip relative checks when |baseline| < v
//                         (default 1e-6; tiny denominators are noise)
//       [--only substr]   restrict checks to keys containing substr
//       [--machine-independent]
//                         gate only metrics that do not depend on the
//                         host's speed: oracle mismatch/failure
//                         counts, boolean bound/ok flags, and
//                         speedup ratios. Timings and throughput are
//                         still *reported*, never fatal. This is the
//                         CI mode: committed baselines come from a
//                         different machine than the runner.
//
// Both files are flattened to `path -> number` (arrays index as
// `rows[3].reads_per_second`); each key present in both sides is
// classified by name into a comparison direction:
//
//   * exact-or-better (mismatches, failures):  fresh <= baseline
//   * boolean must-hold (_met, ok):            baseline true => fresh true
//   * higher-better (speedup, *_per_second):   fresh >= baseline*(1-tol)
//   * lower-better (*_ms/_us/p50/p95/p99...):  fresh <= baseline*(1+tol)
//   * everything else: informational only
//
// Keys present on only one side are reported (schema drift) but not
// fatal — benches grow fields across PRs. Independently of the
// baseline, any `oracle_checks` leaf of the fresh run that is 0 is a
// regression: an oracle that checked nothing passes vacuously. Exit 1
// on any regression.
//
// Self-contained on purpose: tools build without linking the library,
// and the repo deliberately has no JSON parser dependency, so a
// minimal recursive-descent parser lives here.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ------------------------------------------------------------ JSON

// Flattens a JSON document straight into dotted-path leaves; only
// numbers and booleans (as 0/1) are kept — strings and nulls have no
// comparison semantics here.
class FlattenParser {
 public:
  explicit FlattenParser(const std::string& text) : text_(text) {}

  bool Run(std::map<std::string, double>* out) {
    out_ = out;
    pos_ = 0;
    const bool ok = ParseValue("");
    SkipWs();
    return ok && pos_ == text_.size();
  }

  std::string Error() const {
    return "parse error near offset " + std::to_string(pos_);
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        out->push_back(text_[pos_ + 1]);  // verbatim is fine for keys
        pos_ += 2;
      } else {
        out->push_back(text_[pos_]);
        ++pos_;
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseValue(const std::string& path) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(path);
    if (c == '[') return ParseArray(path);
    if (c == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    if (c == 't') {
      if (!Literal("true")) return false;
      Emit(path, 1.0);
      return true;
    }
    if (c == 'f') {
      if (!Literal("false")) return false;
      Emit(path, 0.0);
      return true;
    }
    if (c == 'n') return Literal("null");
    // number
    char* end = nullptr;
    const double value = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    pos_ = static_cast<size_t>(end - text_.c_str());
    Emit(path, value);
    return true;
  }

  bool ParseObject(const std::string& path) {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!ParseValue(path.empty() ? key : path + "." + key)) return false;
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(const std::string& path) {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (size_t index = 0;; ++index) {
      if (!ParseValue(path + "[" + std::to_string(index) + "]")) return false;
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  void Emit(const std::string& path, double value) {
    if (!path.empty()) (*out_)[path] = value;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::map<std::string, double>* out_ = nullptr;
};

// ------------------------------------------------- classification

enum class Direction {
  kExactOrBetter,  // counts of wrongness: fresh <= baseline, no slack
  kMustHold,       // boolean: baseline 1 => fresh 1
  kHigherBetter,   // throughput / speedups, with tolerance
  kLowerBetter,    // latencies / costs, with tolerance
  kInfo,           // everything else
};

bool Contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// The leaf name of a flattened key (its last dotted component).
std::string Leaf(const std::string& key) {
  const size_t dot = key.rfind('.');
  return dot == std::string::npos ? key : key.substr(dot + 1);
}

// Classifies by the leaf name, so `rows[3].batch_p99_ms` and
// `insert.p95_ms` classify the same way.
Direction Classify(const std::string& key) {
  const std::string leaf = Leaf(key);
  if (Contains(leaf, "mismatch") || Contains(leaf, "failure")) {
    return Direction::kExactOrBetter;
  }
  if (EndsWith(leaf, "_met") || leaf == "ok") return Direction::kMustHold;
  if (Contains(leaf, "speedup") || Contains(leaf, "per_second")) {
    return Direction::kHigherBetter;
  }
  if (EndsWith(leaf, "_ms") || EndsWith(leaf, "_us") ||
      EndsWith(leaf, "_seconds") || Contains(leaf, "p50") ||
      Contains(leaf, "p95") || Contains(leaf, "p99") ||
      Contains(leaf, "copied") || Contains(leaf, "mean")) {
    return Direction::kLowerBetter;
  }
  return Direction::kInfo;
}

// In --machine-independent mode, only directions whose values do not
// scale with host speed stay fatal. Speedups are ratios of two runs
// on the *same* host, so they transfer across machines (with slack).
bool MachineIndependent(Direction direction) {
  return direction == Direction::kExactOrBetter ||
         direction == Direction::kMustHold ||
         direction == Direction::kHigherBetter;
}

const char* DirectionName(Direction d) {
  switch (d) {
    case Direction::kExactOrBetter: return "exact";
    case Direction::kMustHold: return "must-hold";
    case Direction::kHigherBetter: return "higher-better";
    case Direction::kLowerBetter: return "lower-better";
    case Direction::kInfo: return "info";
  }
  return "?";
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_compare <fresh.json> <baseline.json> "
               "[--tolerance f] [--min-base v] [--only substr] "
               "[--machine-independent]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string fresh_path, baseline_path, only;
  double tolerance = 0.5;
  double min_base = 1e-6;
  bool machine_independent = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tolerance" && i + 1 < argc) {
      tolerance = std::atof(argv[++i]);
    } else if (arg == "--min-base" && i + 1 < argc) {
      min_base = std::atof(argv[++i]);
    } else if (arg == "--only" && i + 1 < argc) {
      only = argv[++i];
    } else if (arg == "--machine-independent") {
      machine_independent = true;
    } else if (!arg.empty() && arg[0] != '-') {
      if (fresh_path.empty()) {
        fresh_path = arg;
      } else if (baseline_path.empty()) {
        baseline_path = arg;
      } else {
        return Usage();
      }
    } else {
      return Usage();
    }
  }
  if (fresh_path.empty() || baseline_path.empty()) return Usage();

  std::string fresh_text, baseline_text;
  if (!ReadFile(fresh_path, &fresh_text)) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n",
                 fresh_path.c_str());
    return 2;
  }
  if (!ReadFile(baseline_path, &baseline_text)) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n",
                 baseline_path.c_str());
    return 2;
  }

  std::map<std::string, double> fresh, baseline;
  {
    FlattenParser parser(fresh_text);
    if (!parser.Run(&fresh)) {
      std::fprintf(stderr, "bench_compare: %s: %s\n", fresh_path.c_str(),
                   parser.Error().c_str());
      return 2;
    }
  }
  {
    FlattenParser parser(baseline_text);
    if (!parser.Run(&baseline)) {
      std::fprintf(stderr, "bench_compare: %s: %s\n", baseline_path.c_str(),
                   parser.Error().c_str());
      return 2;
    }
  }

  size_t compared = 0, gated = 0, missing = 0;
  std::vector<std::string> regressions;
  for (const auto& [key, base] : baseline) {
    if (!only.empty() && !Contains(key, only.c_str())) continue;
    const auto it = fresh.find(key);
    if (it == fresh.end()) {
      std::printf("  MISSING  %-60s (baseline %.6g)\n", key.c_str(), base);
      ++missing;
      continue;
    }
    const double now = it->second;
    const Direction direction = Classify(key);
    ++compared;
    const bool fatal =
        direction != Direction::kInfo &&
        (!machine_independent || MachineIndependent(direction));

    bool bad = false;
    switch (direction) {
      case Direction::kExactOrBetter:
        bad = now > base;
        break;
      case Direction::kMustHold:
        bad = base >= 0.5 && now < 0.5;
        break;
      case Direction::kHigherBetter:
        bad = std::fabs(base) >= min_base && now < base * (1.0 - tolerance);
        break;
      case Direction::kLowerBetter:
        bad = std::fabs(base) >= min_base && now > base * (1.0 + tolerance);
        break;
      case Direction::kInfo:
        break;
    }
    const char* verdict = "ok";
    if (bad && fatal) {
      verdict = "REGRESSION";
      regressions.push_back(key);
    } else if (bad) {
      verdict = "worse (not gated)";
    }
    if (fatal) ++gated;
    if (bad || direction != Direction::kInfo) {
      std::printf("  %-18s %-13s %-54s %.6g -> %.6g\n", verdict,
                  DirectionName(direction), key.c_str(), base, now);
    }
  }

  for (const auto& [key, now] : fresh) {
    if (!only.empty() && !Contains(key, only.c_str())) continue;
    if (Leaf(key) == "oracle_checks" && now == 0) {
      std::printf("  %-18s %-13s %-54s %.6g\n", "REGRESSION", "nonzero",
                  key.c_str(), now);
      regressions.push_back(key);
    }
  }

  std::printf(
      "bench_compare: %zu keys compared (%zu gated, tolerance %.0f%%%s), "
      "%zu baseline keys absent from fresh run\n",
      compared, gated, tolerance * 100,
      machine_independent ? ", machine-independent only" : "", missing);
  if (!regressions.empty()) {
    std::fprintf(stderr, "bench_compare: %zu regression(s):\n",
                 regressions.size());
    for (const std::string& key : regressions) {
      std::fprintf(stderr, "  %s\n", key.c_str());
    }
    return 1;
  }
  std::printf("bench_compare: OK\n");
  return 0;
}
