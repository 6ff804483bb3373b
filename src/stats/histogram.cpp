#include "stats/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace cmdare::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be >= 1");
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo must be < hi");
  counts_.assign(bins, 0);
}

void Histogram::add(double value) {
  if (value < lo_) {
    ++underflow_;
    return;
  }
  if (value >= hi_) {
    ++overflow_;
    return;
  }
  auto bin = static_cast<std::size_t>((value - lo_) / width_);
  bin = std::min(bin, counts_.size() - 1);  // guard float edge cases
  ++counts_[bin];
  ++total_;
}

std::size_t Histogram::count(std::size_t bin) const {
  if (bin >= counts_.size()) {
    throw std::out_of_range("Histogram::count: bin out of range");
  }
  return counts_[bin];
}

double Histogram::bin_low(std::size_t bin) const {
  if (bin >= counts_.size()) {
    throw std::out_of_range("Histogram::bin_low: bin out of range");
  }
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_high(std::size_t bin) const {
  return bin_low(bin) + width_;
}

double Histogram::fraction(std::size_t bin) const {
  const std::size_t c = count(bin);
  return total_ == 0 ? 0.0
                     : static_cast<double>(c) / static_cast<double>(total_);
}

std::string Histogram::render(std::size_t max_bar_width) const {
  const std::size_t peak =
      counts_.empty() ? 0 : *std::max_element(counts_.begin(), counts_.end());
  std::ostringstream oss;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const std::size_t bar =
        peak == 0 ? 0 : (counts_[b] * max_bar_width + peak - 1) / peak;
    oss << "[" << util::format_double(bin_low(b), 1) << ", "
        << util::format_double(bin_high(b), 1) << ")  " << counts_[b] << "  "
        << std::string(bar, '#') << '\n';
  }
  return oss.str();
}

}  // namespace cmdare::stats
