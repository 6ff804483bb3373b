#include "cloud/revocation.hpp"

#include <cmath>
#include <stdexcept>

namespace cmdare::cloud {
namespace {

// Table V of the paper, one row per measured (region, GPU) pair.
const std::vector<RevocationTarget> kTargets = {
    {Region::kUsEast1, GpuType::kK80, 30, 0.4667},
    {Region::kUsCentral1, GpuType::kK80, 48, 0.5625},
    {Region::kUsWest1, GpuType::kK80, 48, 0.2292},
    {Region::kEuropeWest1, GpuType::kK80, 30, 0.6667},
    {Region::kUsEast1, GpuType::kP100, 30, 0.70},
    {Region::kUsCentral1, GpuType::kP100, 30, 0.5333},
    {Region::kUsWest1, GpuType::kP100, 30, 0.6667},
    {Region::kEuropeWest1, GpuType::kP100, 30, 0.2667},
    {Region::kUsCentral1, GpuType::kV100, 30, 0.6667},
    {Region::kUsWest1, GpuType::kV100, 30, 0.7333},
    {Region::kEuropeWest4, GpuType::kV100, 30, 0.43},
    {Region::kAsiaEast1, GpuType::kV100, 30, 0.47},
};

// Hour-of-day hazard weights per GPU (Figure 9). Each array has 24 entries
// whose mean is ~1. K80 peaks sharply at 10 AM (a demand surge, per the
// paper); P100 has a broad double hump; V100 has a morning peak and *zero*
// revocations between 4 PM and 8 PM.
constexpr double kTod[3][24] = {
    // K80
    {0.55, 0.50, 0.50, 0.50, 0.60, 0.70, 0.90, 1.20, 1.60, 2.00, 2.60, 2.00,
     1.50, 1.30, 1.20, 1.10, 1.00, 0.90, 0.90, 0.80, 0.80, 0.70, 0.70, 0.60},
    // P100
    {0.70, 0.60, 0.60, 0.60, 0.70, 0.80, 1.00, 1.30, 1.60, 1.80, 1.50, 1.30,
     1.40, 1.60, 1.70, 1.50, 1.20, 1.00, 0.90, 0.80, 0.80, 0.70, 0.70, 0.70},
    // V100 (zero 16:00-19:59 local)
    {0.90, 0.80, 0.80, 0.90, 1.00, 1.20, 1.60, 1.90, 2.10, 2.00, 1.70, 1.40,
     1.20, 1.10, 1.00, 0.60, 0.00, 0.00, 0.00, 0.00, 0.80, 1.00, 1.10, 1.00},
};

}  // namespace

const std::vector<RevocationTarget>& revocation_targets() { return kTargets; }

const RevocationModel& calibrated_revocation_model() {
  static const RevocationModel model;
  return model;
}

bool gpu_offered_in_region(Region region, GpuType gpu) {
  for (const RevocationTarget& t : kTargets) {
    if (t.region == region && t.gpu == gpu) return true;
  }
  return false;
}

const RevocationTarget& revocation_target(Region region, GpuType gpu) {
  for (const RevocationTarget& t : kTargets) {
    if (t.region == region && t.gpu == gpu) return t;
  }
  throw std::invalid_argument(std::string("revocation_target: ") +
                              gpu_name(gpu) + " not offered in " +
                              region_name(region));
}

double RevocationModel::tod_weight(GpuType gpu, double local_hour) const {
  if (local_hour < 0.0 || local_hour >= 24.0) {
    throw std::invalid_argument("tod_weight: hour must be in [0, 24)");
  }
  return kTod[static_cast<std::size_t>(gpu)]
             [static_cast<std::size_t>(local_hour)];
}

double RevocationModel::age_shape(Region region, GpuType gpu,
                                  double age_hours) const {
  if (age_hours < 0.0) {
    throw std::invalid_argument("age_shape: negative age");
  }
  // Figure 8 calibration: europe-west1 K80s die young (>50% within two
  // hours); us-west1 K80s almost never do (<5% in two hours, hazard grows
  // with age); us-central1 V100s skew early, giving the short mean time to
  // revocation the paper reports (7.7 h).
  if (region == Region::kEuropeWest1 && gpu == GpuType::kK80) {
    return 1.0 + 60.0 * std::exp(-age_hours);
  }
  if (region == Region::kUsWest1 && gpu == GpuType::kK80) {
    return 0.30 + 0.70 * (1.0 - std::exp(-age_hours / 8.0));
  }
  if (region == Region::kUsCentral1 && gpu == GpuType::kV100) {
    return 1.0 + 12.0 * std::exp(-age_hours / 1.5);
  }
  return 1.0;
}

double RevocationModel::hazard_per_hour(Region region, GpuType gpu,
                                        double launch_local_hour,
                                        double age_hours) const {
  const double base = base_rate_per_hour(region, gpu);
  double hour = std::fmod(launch_local_hour + age_hours, 24.0);
  if (hour < 0.0) hour += 24.0;
  return base * tod_weight(gpu, hour) * age_shape(region, gpu, age_hours);
}

double RevocationModel::integrated_hazard_shape(Region region, GpuType gpu,
                                                double launch_local_hour,
                                                double horizon_hours) const {
  // Midpoint rule at 6-minute resolution; the integrand is bounded and
  // piecewise-smooth, so this is accurate to well under 1%.
  constexpr double kStepHours = 0.1;
  double integral = 0.0;
  for (double a = 0.0; a < horizon_hours; a += kStepHours) {
    const double mid = a + kStepHours / 2.0;
    double hour = std::fmod(launch_local_hour + mid, 24.0);
    if (hour < 0.0) hour += 24.0;
    integral +=
        kStepHours * tod_weight(gpu, hour) * age_shape(region, gpu, mid);
  }
  return integral;
}

RevocationModel::RevocationModel() {
  for (auto& row : base_) {
    for (double& v : row) v = -1.0;
  }
  for (auto& row : lambda_max_) {
    for (double& v : row) v = -1.0;
  }
  for (const RevocationTarget& t : kTargets) {
    // P(revoked within 24h) = 1 - exp(-base * I) with I the integrated
    // tod*shape profile => base = -ln(1 - p) / I.
    const double integral = integrated_hazard_shape(
        t.region, t.gpu, kReferenceLaunchLocalHour, 24.0);
    const double base = -std::log(1.0 - t.revoked_fraction) / integral;
    base_[static_cast<std::size_t>(t.region)][static_cast<std::size_t>(
        t.gpu)] = base;

    // Thinning majorant: max tod weight times max age-shape value (the age
    // shapes are maximal at age 0 or asymptotically; 1.0 covers the rising
    // us-west1 shape). Computed once here instead of on every sample.
    double max_tod = 0.0;
    for (int h = 0; h < 24; ++h) {
      max_tod = std::max(max_tod, kTod[static_cast<std::size_t>(t.gpu)][h]);
    }
    const double max_shape = std::max(age_shape(t.region, t.gpu, 0.0), 1.0);
    lambda_max_[static_cast<std::size_t>(t.region)][static_cast<std::size_t>(
        t.gpu)] = base * max_tod * max_shape;
  }
}

double RevocationModel::base_rate_per_hour(Region region, GpuType gpu) const {
  const double base =
      base_[static_cast<std::size_t>(region)][static_cast<std::size_t>(gpu)];
  if (base < 0.0) {
    throw std::invalid_argument(std::string("base_rate_per_hour: ") +
                                gpu_name(gpu) + " not offered in " +
                                region_name(region));
  }
  return base;
}

double RevocationModel::revocation_probability(Region region, GpuType gpu,
                                               double launch_local_hour,
                                               double horizon_hours) const {
  const double base = base_rate_per_hour(region, gpu);
  const double integral =
      integrated_hazard_shape(region, gpu, launch_local_hour, horizon_hours);
  return 1.0 - std::exp(-base * integral);
}

std::optional<double> RevocationModel::sample_revocation_age_seconds(
    Region region, GpuType gpu, double launch_local_hour,
    util::Rng& rng) const {
  const double lambda_max =
      lambda_max_[static_cast<std::size_t>(region)]
                 [static_cast<std::size_t>(gpu)];
  if (lambda_max < 0.0) base_rate_per_hour(region, gpu);  // throws: N/A pair

  // The draws stay scalar on purpose: the loop has two exits that consume
  // different numbers of uniforms (a horizon exit after the exponential
  // draw alone, an accept exit after exponential + accept), and `rng` is
  // the provider's shared stream — batching with Rng::fill_uniform would
  // overdraw on one exit and shift every later draw in the run. The
  // inlined generator core already keeps the state in registers here.
  const double horizon_hours = kMaxTransientLifetimeSeconds / 3600.0;
  double age = 0.0;
  while (true) {
    age += rng.exponential(lambda_max);
    if (age >= horizon_hours) return std::nullopt;
    const double lambda =
        hazard_per_hour(region, gpu, launch_local_hour, age);
    if (rng.uniform() * lambda_max < lambda) return age * 3600.0;
  }
}

}  // namespace cmdare::cloud
