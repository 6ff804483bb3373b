// Transient-server revocation model (Section V, Table V, Figures 8-9).
//
// Revocations are modeled as the first event of a non-homogeneous Poisson
// process whose hazard rate is
//
//   lambda(age) = base(region, gpu) * tod(gpu, local_hour) * shape(region,
//                 gpu, age)
//
// capped by the hard 24-hour maximum lifetime of Google preemptible VMs.
//
//   * base    — calibrated numerically so that the probability of
//               revocation within 24 h (for a launch at the reference
//               local hour) equals the Table V percentage for that
//               (region, GPU) pair;
//   * tod     — per-GPU hour-of-day weight (Figure 9: K80 revocations peak
//               at 10 AM local; V100 shows none between 4 PM and 8 PM);
//   * shape   — per-(region, GPU) age profile (Figure 8: europe-west1 K80s
//               are mostly revoked in the first two hours, us-west1 K80s
//               almost never are).
//
// Consistent with Section V-C, the instance's workload (idle vs stressed)
// does not enter the hazard at all.
#pragma once

#include <optional>
#include <vector>

#include "cloud/gpu.hpp"
#include "cloud/region.hpp"
#include "util/rng.hpp"

namespace cmdare::cloud {

/// Hard maximum lifetime of a preemptible VM.
inline constexpr double kMaxTransientLifetimeSeconds = 24.0 * 3600.0;

/// Reference local launch hour used for base-rate calibration (the
/// measurement campaigns launch their batches at 9 AM local time).
inline constexpr double kReferenceLaunchLocalHour = 9.0;

/// (region, GPU) pairs the paper measured, with the campaign server count
/// and observed revocation fraction from Table V.
struct RevocationTarget {
  Region region;
  GpuType gpu;
  int servers_launched;       // over the full 12-day campaign
  double revoked_fraction;    // of those, fraction revoked within 24 h
};

/// All twelve measured (region, GPU) combinations of Table V.
const std::vector<RevocationTarget>& revocation_targets();

/// True when the paper measured this combination (others are "N/A").
bool gpu_offered_in_region(Region region, GpuType gpu);

/// Table V target for a measured combination; throws for N/A pairs.
const RevocationTarget& revocation_target(Region region, GpuType gpu);

class RevocationModel {
 public:
  RevocationModel();

  /// Hour-of-day hazard weight for a GPU type (mean ~1 over the day).
  double tod_weight(GpuType gpu, double local_hour) const;

  /// Age-profile hazard multiplier (hours since launch).
  double age_shape(Region region, GpuType gpu, double age_hours) const;

  /// Calibrated base hazard rate in events/hour; throws for N/A pairs.
  double base_rate_per_hour(Region region, GpuType gpu) const;

  /// Instantaneous hazard (events/hour) at the given age for a server
  /// launched at `launch_local_hour`.
  double hazard_per_hour(Region region, GpuType gpu, double launch_local_hour,
                         double age_hours) const;

  /// Probability of revocation within `horizon_hours` (numerical
  /// integration of the hazard).
  double revocation_probability(Region region, GpuType gpu,
                                double launch_local_hour,
                                double horizon_hours = 24.0) const;

  /// Samples the revocation age (seconds) for a server launched at the
  /// given local hour, or nullopt when the server survives to the 24-hour
  /// cap. Uses Ogata thinning.
  std::optional<double> sample_revocation_age_seconds(
      Region region, GpuType gpu, double launch_local_hour,
      util::Rng& rng) const;

 private:
  double integrated_hazard_shape(Region region, GpuType gpu,
                                 double launch_local_hour,
                                 double horizon_hours) const;

  // base rates indexed [region][gpu]; negative = N/A.
  double base_[6][3];
  // Thinning majorant base * max(tod) * max(shape), precomputed per pair so
  // the sampler (called once per transient launch) does no per-call scan
  // of the hazard tables. Negative = N/A.
  double lambda_max_[6][3];
};

/// The process-wide calibrated model, built on first use, so providers,
/// catalog sweeps and benches calibrate once. Every method is const and
/// samples from the caller's rng, so concurrent use is safe.
const RevocationModel& calibrated_revocation_model();

}  // namespace cmdare::cloud
