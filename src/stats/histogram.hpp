// Fixed-bin histograms.
//
// Figure 9 of the paper histograms revocation events by local hour of day;
// Histogram supports that directly (24 bins over [0, 24)) as well as
// generic equal-width binning with ASCII rendering for the figure benches.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace cmdare::stats {

class Histogram {
 public:
  /// Equal-width bins over [lo, hi). Values outside the range are counted
  /// in underflow/overflow. Requires bins >= 1 and lo < hi.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value);

  std::size_t bin_count() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const;
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t total() const { return total_; }

  /// [lo, hi) edges of a bin.
  double bin_low(std::size_t bin) const;
  double bin_high(std::size_t bin) const;

  /// Fraction of in-range values in a bin (0 when total() == 0).
  double fraction(std::size_t bin) const;

  /// Renders an ASCII bar chart, one line per bin:
  ///   [ 8, 9)  12 ############
  std::string render(std::size_t max_bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace cmdare::stats
