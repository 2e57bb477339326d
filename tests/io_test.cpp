// I/O tests: CSV round-trip, chart/scatter/SVG rendering sanity, and the
// MappedBuffer spill primitive.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <sstream>
#include <utility>

#include "io/ascii_chart.hpp"
#include "io/csv.hpp"
#include "io/mapped_buffer.hpp"
#include "io/svg.hpp"
#include "support/error.hpp"

namespace {

using sops::geom::Vec2;
using sops::io::ChartOptions;
using sops::io::CsvTable;
using sops::io::read_csv;
using sops::io::render_chart;
using sops::io::render_scatter;
using sops::io::render_svg;
using sops::io::Series;
using sops::io::write_csv;

TEST(Csv, RoundTrip) {
  CsvTable table;
  table.header = {"t", "mi", "entropy"};
  table.add_row({0.0, 1.5, -2.25});
  table.add_row({1.0, 2.5e-10, 1e17});

  std::stringstream stream;
  write_csv(stream, table);
  const CsvTable back = read_csv(stream);

  EXPECT_EQ(back.header, table.header);
  ASSERT_EQ(back.rows.size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(back.rows[r][c], table.rows[r][c]);
    }
  }
}

TEST(Csv, ColumnLookup) {
  CsvTable table;
  table.header = {"a", "b"};
  EXPECT_EQ(table.column("b"), 1u);
  EXPECT_THROW((void)table.column("missing"), sops::Error);
}

TEST(Csv, RowWidthEnforced) {
  CsvTable table;
  table.header = {"a", "b"};
  EXPECT_THROW(table.add_row({1.0}), sops::PreconditionError);
}

TEST(Csv, RejectsNonNumericCell) {
  std::stringstream stream("a,b\n1.0,oops\n");
  EXPECT_THROW((void)read_csv(stream), sops::Error);
}

TEST(Csv, RejectsRaggedRows) {
  std::stringstream stream("a,b\n1.0\n");
  EXPECT_THROW((void)read_csv(stream), sops::Error);
}

TEST(Csv, RejectsEmptyInput) {
  std::stringstream stream("");
  EXPECT_THROW((void)read_csv(stream), sops::Error);
}

TEST(Csv, SkipsBlankLines) {
  std::stringstream stream("a\n1\n\n2\n");
  const CsvTable table = read_csv(stream);
  EXPECT_EQ(table.rows.size(), 2u);
}

TEST(Chart, RendersSeriesGlyphsAndLegend) {
  const Series series{"multi-information", {0, 1, 2, 3}, {0.0, 1.0, 2.0, 4.0}};
  const std::string chart = render_chart(std::vector<Series>{series});
  EXPECT_NE(chart.find('1'), std::string::npos);  // series glyph
  EXPECT_NE(chart.find("multi-information"), std::string::npos);
  EXPECT_NE(chart.find("[t]"), std::string::npos);
}

TEST(Chart, MultipleSeriesDistinctGlyphs) {
  const std::vector<Series> series{
      {"a", {0, 1}, {0.0, 1.0}},
      {"b", {0, 1}, {1.0, 0.0}},
  };
  const std::string chart = render_chart(series);
  EXPECT_NE(chart.find("1 = a"), std::string::npos);
  EXPECT_NE(chart.find("2 = b"), std::string::npos);
}

TEST(Chart, SkipsNaN) {
  const Series series{
      "x", {0, 1, 2}, {1.0, std::nan(""), 2.0}};
  EXPECT_NO_THROW((void)render_chart(std::vector<Series>{series}));
}

TEST(Chart, AllNaNThrows) {
  const Series series{"x", {0}, {std::nan("")}};
  EXPECT_THROW((void)render_chart(std::vector<Series>{series}),
               sops::PreconditionError);
}

TEST(Chart, ConstantSeriesRenders) {
  const Series series{"flat", {0, 1, 2}, {3.0, 3.0, 3.0}};
  EXPECT_NO_THROW((void)render_chart(std::vector<Series>{series}));
}

TEST(Chart, MismatchedXYThrows) {
  const Series series{"bad", {0, 1}, {1.0}};
  EXPECT_THROW((void)render_chart(std::vector<Series>{series}),
               sops::PreconditionError);
}

TEST(Scatter, ShowsTypeDigits) {
  const std::vector<Vec2> points{{0, 0}, {1, 1}, {2, 0}};
  const std::vector<sops::sim::TypeId> types{0, 1, 2};
  const std::string plot = render_scatter(points, types);
  EXPECT_NE(plot.find('0'), std::string::npos);
  EXPECT_NE(plot.find('1'), std::string::npos);
  EXPECT_NE(plot.find('2'), std::string::npos);
}

TEST(Scatter, EmptyConfiguration) {
  EXPECT_NE(render_scatter({}, {}).find("empty"), std::string::npos);
}

TEST(Scatter, SinglePointDegenerateBox) {
  const std::vector<Vec2> points{{5, 5}};
  const std::vector<sops::sim::TypeId> types{0};
  EXPECT_NO_THROW((void)render_scatter(points, types));
}

TEST(Scatter, MismatchThrows) {
  const std::vector<Vec2> points{{0, 0}};
  const std::vector<sops::sim::TypeId> types{0, 1};
  EXPECT_THROW((void)render_scatter(points, types), sops::PreconditionError);
}

TEST(Svg, WellFormedDocument) {
  const std::vector<Vec2> points{{0, 0}, {1, 1}};
  const std::vector<sops::sim::TypeId> types{0, 1};
  const std::string svg = render_svg(points, types);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One circle per particle.
  std::size_t circles = 0;
  for (std::size_t pos = 0; (pos = svg.find("<circle", pos)) != std::string::npos;
       ++pos) {
    ++circles;
  }
  EXPECT_EQ(circles, 2u);
}

TEST(Svg, EmptyConfigurationStillValid) {
  const std::string svg = render_svg({}, {});
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Svg, TypeLabelsOptional) {
  const std::vector<Vec2> points{{0, 0}};
  const std::vector<sops::sim::TypeId> types{3};
  sops::io::SvgOptions options;
  options.label_types = false;
  EXPECT_EQ(render_svg(points, types, options).find("<text"), std::string::npos);
  options.label_types = true;
  EXPECT_NE(render_svg(points, types, options).find("<text"), std::string::npos);
}

TEST(TextFile, WriteFailsOnBadPath) {
  EXPECT_THROW(
      sops::io::write_text_file("/nonexistent-dir/x.svg", "content"),
      sops::Error);
}

TEST(MappedBuffer, MapsWritesFlushesAndCleansUp) {
  using sops::io::MappedBuffer;
  const std::string path =
      ::testing::TempDir() + "sops_mapped_buffer_test.bin";
  std::filesystem::remove(path);
  {
    MappedBuffer buffer(path, 1 << 16);
    if (!buffer.mapped()) {
      GTEST_SKIP() << "mmap unavailable: " << buffer.failure_reason();
    }
    EXPECT_EQ(buffer.size(), std::size_t{1} << 16);
    EXPECT_EQ(buffer.path(), path);
    EXPECT_TRUE(std::filesystem::exists(path));
    auto* bytes = static_cast<unsigned char*>(buffer.data());
    // Fresh file pages read as zero.
    EXPECT_EQ(bytes[0], 0);
    EXPECT_EQ(bytes[(1 << 16) - 1], 0);
    std::memset(bytes, 0xAB, 1 << 16);
    // Data survives a flush + page-release round-trip (release drops the
    // pages from the resident set; the file/page cache repopulates them).
    EXPECT_TRUE(buffer.flush(0, 1 << 16));
    EXPECT_TRUE(buffer.release(0, 1 << 16));
    EXPECT_EQ(bytes[0], 0xAB);
    EXPECT_EQ(bytes[(1 << 16) - 1], 0xAB);
    // Sub-page ranges round safely (flush widens, release shrinks to whole
    // interior pages — possibly to nothing).
    EXPECT_TRUE(buffer.flush(100, 50));
    EXPECT_TRUE(buffer.release(100, 50));
    // A second buffer refuses to clobber the live file (O_EXCL) and stays
    // empty.
    MappedBuffer collision(path, 4096);
    EXPECT_FALSE(collision.mapped());
    EXPECT_FALSE(collision.failure_reason().empty());
    EXPECT_TRUE(collision.empty());
    // Move transfers the mapping and the cleanup duty.
    MappedBuffer moved = std::move(buffer);
    EXPECT_TRUE(moved.mapped());
    EXPECT_EQ(static_cast<unsigned char*>(moved.data())[5], 0xAB);
  }
  // Scratch semantics: the backing file is unlinked with the buffer.
  EXPECT_FALSE(std::filesystem::exists(path));
}

// A failed mapping leaves no storage behind, just the failure report:
// callers with their own fallback (FrameStore's heap vector) pay no
// discarded full-payload allocation.
TEST(MappedBuffer, StaysEmptyOnUnwritablePath) {
  sops::io::MappedBuffer buffer("/nonexistent-dir/spill.bin", 4096);
  EXPECT_FALSE(buffer.mapped());
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.data(), nullptr);
  EXPECT_TRUE(buffer.path().empty());
  EXPECT_FALSE(buffer.failure_reason().empty());
}

}  // namespace
