/// Anti-rot contract between the metric names the source tree registers
/// and the metric catalog in `docs/OPERATIONS.md`:
///
///  1. every string literal passed to `GetCounter`, `GetGauge` or
///     `GetHistogram` under src/ — plus every name written straight into a
///     snapshot as `counters["…"]` / `gauges["…"]` (the service's cache
///     export) — has a catalog row of the same kind;
///  2. the catalog lists nothing src/ does not register.
///
/// `XSUM_SOURCE_DIR` is injected by CMake so the test can read the
/// repository it was built from.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace xsum {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Metric name -> kind ("counter", "gauge", "histogram") for every
/// literal name src/ registers or exports.
std::map<std::string, std::string> SourceMetrics() {
  const std::pair<const char*, const char*> patterns[] = {
      {"GetCounter(\"", "counter"},     {"GetGauge(\"", "gauge"},
      {"GetHistogram(\"", "histogram"}, {"counters[\"", "counter"},
      {"gauges[\"", "gauge"},
  };
  std::map<std::string, std::string> names;
  const fs::path root = fs::path(XSUM_SOURCE_DIR) / "src";
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cpp") continue;
    const std::string content = ReadFile(entry.path());
    for (const auto& [pattern, kind] : patterns) {
      size_t pos = 0;
      while ((pos = content.find(pattern, pos)) != std::string::npos) {
        const size_t begin = pos + std::string(pattern).size();
        const size_t end = content.find('"', begin);
        const std::string name = content.substr(begin, end - begin);
        const auto [it, inserted] = names.emplace(name, kind);
        EXPECT_TRUE(inserted || it->second == kind)
            << entry.path().string() << " registers " << name << " as a "
            << kind << " and elsewhere as a " << it->second;
        pos = end;
      }
    }
  }
  return names;
}

/// Name -> kind for every row of the "Metric catalog" table.
std::map<std::string, std::string> DocumentedMetrics() {
  const std::string doc =
      ReadFile(fs::path(XSUM_SOURCE_DIR) / "docs" / "OPERATIONS.md");
  std::map<std::string, std::string> rows;
  std::istringstream lines(doc);
  std::string line;
  bool in_catalog = false;
  bool in_code = false;
  while (std::getline(lines, line)) {
    if (line.rfind("```", 0) == 0) in_code = !in_code;
    if (in_code) continue;
    if (line.rfind('#', 0) == 0) {
      in_catalog = line.find("Metric catalog") != std::string::npos;
      continue;
    }
    if (!in_catalog || line.rfind("| `", 0) != 0) continue;
    const size_t name_end = line.find('`', 3);
    const size_t kind_begin = line.find("| ", name_end) + 2;
    const size_t kind_end = line.find(" |", kind_begin);
    if (name_end == std::string::npos || kind_end == std::string::npos) {
      ADD_FAILURE() << "malformed metric catalog row: " << line;
      continue;
    }
    const std::string name = line.substr(3, name_end - 3);
    EXPECT_TRUE(
        rows.emplace(name, line.substr(kind_begin, kind_end - kind_begin))
            .second)
        << "docs/OPERATIONS.md lists " << name << " twice";
  }
  return rows;
}

TEST(MetricDocsTest, CatalogListsExactlyTheRegisteredMetrics) {
  const std::map<std::string, std::string> source = SourceMetrics();
  const std::map<std::string, std::string> docs = DocumentedMetrics();
  // Sanity: the scans found the well-known registrations and the table.
  ASSERT_GE(source.size(), 30u);
  ASSERT_FALSE(docs.empty())
      << "docs/OPERATIONS.md has no \"Metric catalog\" table";
  for (const auto& [name, kind] : source) {
    const auto it = docs.find(name);
    if (it == docs.end()) {
      ADD_FAILURE() << "src/ registers " << kind << " " << name
                    << " which docs/OPERATIONS.md's metric catalog omits";
    } else {
      EXPECT_EQ(it->second, kind) << name;
    }
  }
  for (const auto& [name, kind] : docs) {
    EXPECT_TRUE(source.count(name))
        << "docs/OPERATIONS.md documents " << kind << " " << name
        << " which nothing under src/ registers";
  }
}

}  // namespace
}  // namespace xsum
