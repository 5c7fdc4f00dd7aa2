// Shared helpers for the reproduction benches: aligned table printing,
// pass/fail accounting against the paper's reported values, and the
// BENCH_<name>.json artifact writer the CI smoke job uploads.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace empls::bench {

/// Simple fixed-width table writer for paper-style rows.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (std::size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string{};
        std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (const auto w : widths) {
      std::printf("%s|", std::string(w + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) {
      print_row(row);
    }
  }

  /// Also emit the table as CSV (plot-ready artifact next to the
  /// human-readable print).  Cells containing commas are quoted.
  bool write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    auto emit = [&out](const std::vector<std::string>& row) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c > 0) {
          out << ',';
        }
        if (row[c].find(',') != std::string::npos) {
          out << '"' << row[c] << '"';
        } else {
          out << row[c];
        }
      }
      out << '\n';
    };
    emit(headers_);
    for (const auto& row : rows_) {
      emit(row);
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// CI artifact writer: collects (dotted key, value) pairs and emits
/// them as nested JSON to BENCH_<name>.json.  "line8.pooled.pps" lands
/// under {"line8": {"pooled": {"pps": ...}}}; keys sharing a prefix
/// must be added consecutively (the writer streams, it does not sort).
/// Every artifact is stamped with the build config and `git describe`
/// so CI uploads are traceable to a commit.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {
    set("build.git", git_describe());
#ifdef NDEBUG
    set("build.config", std::string("Release"));
#else
    set("build.config", std::string("Debug"));
#endif
  }

  template <typename T>
  void set(const std::string& dotted_key, T value) {
    if constexpr (std::is_same_v<T, bool>) {
      entries_.emplace_back(dotted_key, value ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
      entries_.emplace_back(dotted_key, std::to_string(value));
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.10g", static_cast<double>(value));
      entries_.emplace_back(dotted_key, buf);
    } else {
      entries_.emplace_back(dotted_key, quote(std::string(value)));
    }
  }

  /// Write BENCH_<name>.json in the working directory and announce it.
  /// Refuses (returns false) when the collected keys would emit invalid
  /// JSON: exact duplicates, or a key reused as an object prefix.
  bool write() const {
    if (!keys_valid()) {
      std::fprintf(stderr,
                   "BENCH_%s.json: duplicate or conflicting dotted keys\n",
                   name_.c_str());
      return false;
    }
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    std::vector<std::string> open;  // object path currently open
    out << '{';
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const auto parts = split(entries_[i].first);
      std::size_t common = 0;
      while (common < open.size() && common + 1 < parts.size() &&
             open[common] == parts[common]) {
        ++common;
      }
      for (std::size_t d = open.size(); d > common; --d) {
        out << '\n' << indent(d) << '}';
      }
      open.resize(common);
      if (i > 0) {
        out << ',';
      }
      for (std::size_t d = common; d + 1 < parts.size(); ++d) {
        out << '\n' << indent(d + 1) << '"' << parts[d] << "\": {";
        open.push_back(parts[d]);
      }
      out << '\n' << indent(open.size() + 1) << '"' << parts.back()
          << "\": " << entries_[i].second;
    }
    for (std::size_t d = open.size(); d > 0; --d) {
      out << '\n' << indent(d) << '}';
    }
    out << "\n}\n";
    if (out) {
      std::printf("wrote %s\n", path.c_str());
    }
    return static_cast<bool>(out);
  }

 private:
  static std::string git_describe() {
#if defined(_WIN32)
    return "unknown";
#else
    std::string text;
    if (FILE* p = popen("git describe --always --dirty --tags 2>/dev/null",
                        "r")) {
      char buf[128];
      while (std::fgets(buf, sizeof buf, p) != nullptr) {
        text += buf;
      }
      pclose(p);
    }
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    return text.empty() ? "unknown" : text;
#endif
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\r':
          out += "\\r";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(c)));
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
    return out;
  }

  /// A duplicate key, or a key that is also an object prefix of another
  /// ("a.b" alongside "a.b.c"), would stream out as invalid JSON.
  [[nodiscard]] bool keys_valid() const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      for (std::size_t j = i + 1; j < entries_.size(); ++j) {
        const std::string& a = entries_[i].first;
        const std::string& b = entries_[j].first;
        if (a == b) {
          return false;
        }
        const std::string& shorter = a.size() < b.size() ? a : b;
        const std::string& longer = a.size() < b.size() ? b : a;
        if (longer.size() > shorter.size() &&
            longer.compare(0, shorter.size(), shorter) == 0 &&
            longer[shorter.size()] == '.') {
          return false;
        }
      }
    }
    return true;
  }

  static std::vector<std::string> split(const std::string& key) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= key.size(); ++i) {
      if (i == key.size() || key[i] == '.') {
        parts.push_back(key.substr(start, i - start));
        start = i + 1;
      }
    }
    return parts;
  }

  static std::string indent(std::size_t depth) {
    return std::string(2 * depth, ' ');
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Check accounting: every reproduced quantity is verified against the
/// paper, and the bench exits non-zero if any diverges.
class Checks {
 public:
  void expect_eq(const std::string& what, long long paper,
                 long long measured) {
    const bool ok = paper == measured;
    std::printf("  [%s] %s: paper=%lld measured=%lld\n", ok ? "OK" : "MISMATCH",
                what.c_str(), paper, measured);
    failed_ += ok ? 0 : 1;
  }

  void expect_true(const std::string& what, bool ok) {
    std::printf("  [%s] %s\n", ok ? "OK" : "MISMATCH", what.c_str());
    failed_ += ok ? 0 : 1;
  }

  [[nodiscard]] int exit_code() const {
    if (failed_ > 0) {
      std::printf("\n%d check(s) FAILED\n", failed_);
      return 1;
    }
    std::printf("\nall checks passed\n");
    return 0;
  }

 private:
  int failed_ = 0;
};

}  // namespace empls::bench
