#include "ml/scaler.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace cmdare::ml {

void MinMaxScaler::fit(const Dataset& data) {
  if (data.empty()) throw std::invalid_argument("MinMaxScaler: empty data");
  const std::size_t f = data.feature_count();
  mins_.assign(f, 0.0);
  maxs_.assign(f, 0.0);
  for (std::size_t j = 0; j < f; ++j) {
    const auto col = data.feature_column(j);
    mins_[j] = stats::min(col);
    maxs_[j] = stats::max(col);
  }
}

void MinMaxScaler::fit(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("MinMaxScaler: empty data");
  mins_ = {stats::min(values)};
  maxs_ = {stats::max(values)};
}

std::vector<double> MinMaxScaler::transform(std::span<const double> x) const {
  if (!fitted()) throw std::logic_error("MinMaxScaler: not fitted");
  if (x.size() != feature_count()) {
    throw std::invalid_argument("MinMaxScaler: feature count mismatch");
  }
  std::vector<double> out(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    const double range = maxs_[j] - mins_[j];
    out[j] = range == 0.0 ? 0.0 : (x[j] - mins_[j]) / range;
  }
  return out;
}

double MinMaxScaler::transform_scalar(double v) const {
  if (feature_count() != 1) {
    throw std::logic_error("MinMaxScaler: transform_scalar needs 1 feature");
  }
  const double range = maxs_[0] - mins_[0];
  return range == 0.0 ? 0.0 : (v - mins_[0]) / range;
}

Dataset MinMaxScaler::transform(const Dataset& data) const {
  Dataset out(data.feature_names());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out.add(transform(data.x(i)), data.y(i));
  }
  return out;
}

}  // namespace cmdare::ml
