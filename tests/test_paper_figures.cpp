// bench_paper's figure table (bench/paper_figures.hpp) is well formed:
// unique names, non-empty grids in both window modes, and row functions
// that fill exactly the figure's columns. Checked without running a
// simulation, on default-constructed results.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bench/paper_figures.hpp"

namespace metro::bench {
namespace {

TEST(PaperFiguresTest, NamesAreUnique) {
  std::set<std::string> names;
  for (const Figure& f : paper_figures()) {
    EXPECT_TRUE(names.insert(f.name).second) << "duplicate figure name " << f.name;
  }
  EXPECT_EQ(names.size(), 15u);
}

TEST(PaperFiguresTest, EveryGridIsNonEmptyInFastAndFullWindows) {
  for (const Figure& f : paper_figures()) {
    for (const bool fast : {true, false}) {
      const auto grid = f.grid(fast);
      EXPECT_FALSE(grid.empty()) << f.name << (fast ? " (fast)" : " (full)");
      for (const Point& p : grid) {
        EXPECT_EQ(p.config.warmup, windows(fast).warmup) << f.name;
        EXPECT_GT(p.config.measure, 0) << f.name;
      }
    }
  }
}

TEST(PaperFiguresTest, RowsFillExactlyTheFigureColumns) {
  apps::ExperimentResult with_queues;
  with_queues.queues.resize(3);  // Table III prints one row per Rx queue
  for (const Figure& f : paper_figures()) {
    ASSERT_FALSE(f.columns.empty()) << f.name;
    std::size_t rows = 0;
    for (const Point& p : f.grid(true)) {
      for (const apps::ExperimentResult& r : {apps::ExperimentResult{}, with_queues}) {
        for (const Cells& row : f.rows(p, r)) {
          EXPECT_EQ(row.size(), f.columns.size()) << f.name;
          ++rows;
        }
      }
    }
    EXPECT_GT(rows, 0u) << f.name << " never produces a table row";
  }
}

}  // namespace
}  // namespace metro::bench
