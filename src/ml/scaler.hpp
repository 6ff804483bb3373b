// Feature scaling.
//
// Section III-B normalizes computation ratio and model complexity with
// min-max normalization (the paper notes z-score was considered and
// rejected because the data is not Gaussian), so only min-max is provided.
#pragma once

#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace cmdare::ml {

/// Scales each feature to [0, 1] from its training range. A constant
/// feature maps to 0.
class MinMaxScaler {
 public:
  /// Learns per-feature min/max from the dataset (must be non-empty).
  void fit(const Dataset& data);
  void fit(std::span<const double> values);  // single feature convenience

  bool fitted() const { return !mins_.empty(); }
  std::size_t feature_count() const { return mins_.size(); }

  /// Transforms one example in place semantics (returns scaled copy).
  std::vector<double> transform(std::span<const double> x) const;
  double transform_scalar(double v) const;  // requires feature_count()==1

  /// Transforms a whole dataset.
  Dataset transform(const Dataset& data) const;

  double feature_min(std::size_t f) const { return mins_.at(f); }
  double feature_max(std::size_t f) const { return maxs_.at(f); }

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

}  // namespace cmdare::ml
