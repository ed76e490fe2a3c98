#include "flodb/bench_util/report.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace flodb::bench {

double EnvDouble(const char* name, double def) {
  const char* v = getenv(name);
  return (v == nullptr || *v == '\0') ? def : atof(v);
}

int64_t EnvInt(const char* name, int64_t def) {
  const char* v = getenv(name);
  return (v == nullptr || *v == '\0') ? def : atoll(v);
}

std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--json" && i + 1 < argc) {
      return argv[i + 1];
    }
    if (arg.rfind("--json=", 0) == 0) {
      return arg.substr(strlen("--json="));
    }
  }
  const char* env = getenv("FLODB_BENCH_JSON");
  return env != nullptr ? env : "";
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
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
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

Report::Report(std::string figure_id, std::string title) : figure_id_(std::move(figure_id)) {
  printf("\n== %s: %s ==\n", figure_id_.c_str(), title.c_str());
}

void Report::Header(const std::vector<std::string>& columns) {
  widths_.clear();
  for (const std::string& c : columns) {
    widths_.push_back(c.size() < 12 ? 12 : c.size() + 2);
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    printf("%-*s", static_cast<int>(widths_[i]), columns[i].c_str());
  }
  printf("\n");
  size_t total = 0;
  for (size_t w : widths_) {
    total += w;
  }
  for (size_t i = 0; i < total; ++i) {
    putchar('-');
  }
  printf("\n");
}

void Report::Row(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    const size_t w = i < widths_.size() ? widths_[i] : 12;
    printf("%-*s", static_cast<int>(w), cells[i].c_str());
  }
  printf("\n");
  fflush(stdout);
}

void Report::Csv(const std::vector<std::string>& cells) {
  printf("CSV,%s", figure_id_.c_str());
  for (const std::string& c : cells) {
    printf(",%s", c.c_str());
  }
  printf("\n");
  fflush(stdout);
}

void Report::JsonRow(const std::vector<std::pair<std::string, std::string>>& strings,
                     const std::vector<std::pair<std::string, double>>& numbers) {
  std::string row = "{";
  bool first = true;
  for (const auto& [key, value] : strings) {
    if (!first) {
      row += ", ";
    }
    first = false;
    row.append("\"").append(JsonEscape(key)).append("\": \"");
    row.append(JsonEscape(value)).append("\"");
  }
  for (const auto& [key, value] : numbers) {
    if (!first) {
      row += ", ";
    }
    first = false;
    char buf[64];
    snprintf(buf, sizeof(buf), "%.6g", value);
    row.append("\"").append(JsonEscape(key)).append("\": ").append(buf);
  }
  row += "}";
  json_rows_.push_back(std::move(row));
}

bool Report::WriteJson(const std::string& path) const {
  if (path.empty()) {
    return true;
  }
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "report: cannot write %s\n", path.c_str());
    return false;
  }
  fprintf(f, "{\"figure\": \"%s\", \"rows\": [\n", JsonEscape(figure_id_).c_str());
  for (size_t i = 0; i < json_rows_.size(); ++i) {
    fprintf(f, "  %s%s\n", json_rows_[i].c_str(), i + 1 < json_rows_.size() ? "," : "");
  }
  fprintf(f, "]}\n");
  fclose(f);
  printf("# wrote %zu JSON rows to %s\n", json_rows_.size(), path.c_str());
  return true;
}

std::string Report::Fmt(double v, int precision) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace flodb::bench
