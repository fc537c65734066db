// metrics.hpp — summary statistics and fixed-width table printing.
//
// Every bench binary prints its experiment as a fixed-width table (the
// reproduction's equivalent of the paper's figures/series); this header
// keeps the formatting in one place so the bench outputs stay visually
// consistent.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace approx::sim {

/// Order statistics over a sample.
struct Stats {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t count = 0;

  /// Computes stats over `samples` (empty ⇒ all zeros).
  static Stats of(std::vector<double> samples);
};

/// Minimal fixed-width table printer.
///
///   Table t({"n", "k", "steps/op"});
///   t.add_row({"8", "3", "5.42"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Formats a double with `precision` digits after the point.
  static std::string num(double value, int precision = 2);
  static std::string num(std::uint64_t value);

  void print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace approx::sim
