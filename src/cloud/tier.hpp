// Multi-tier object-storage model (checkpoint data plane).
//
// The paper measures one flat checkpoint target (a regional bucket in the
// same data center, Section IV-B); production checkpoint planes layer a
// local NVMe cache in front of it and demote cold generations to archive
// storage. Each tier trades latency/bandwidth against $/GB: local is
// nearly free to hit but ephemeral-priced, cold is cheap to hold but slow
// to read back. StorageTier + TierModel describe that ladder; placement
// and promotion policy live in src/ckpt (the store only prices and times
// transfers). Header-only so src/faults can scope outage windows to a
// tier without linking the cloud library (same precedent as gpu.hpp /
// region.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

namespace cmdare::cloud {

enum class StorageTier {
  kLocal = 0,     // node-local NVMe cache (fast, ephemeral-priced)
  kRegional = 1,  // regional object store (the paper's measured target)
  kCold = 2,      // archive class (cheap to hold, slow to read)
};

inline constexpr std::size_t kStorageTierCount = 3;

constexpr std::string_view storage_tier_name(StorageTier tier) {
  switch (tier) {
    case StorageTier::kLocal:
      return "local";
    case StorageTier::kRegional:
      return "regional";
    case StorageTier::kCold:
      return "cold";
  }
  return "regional";
}

/// One tier's transfer physics and price. A transfer of B bytes takes
/// latency_s + B / (bandwidth_gbps * 1e9 / 8) seconds before the store's
/// sampling noise, and writes are billed at usd_per_gb_month prorated by
/// residency (the plane charges a flat per-GB write cost instead — see
/// ckpt::CheckpointPlane — so the model stays analytic).
struct TierModel {
  double latency_s = 0.0;
  double bandwidth_gbps = 1.0;
  double usd_per_gb = 0.0;

  double transfer_seconds(double bytes) const {
    const double bytes_per_second = bandwidth_gbps * 1e9 / 8.0;
    return latency_s + (bytes_per_second > 0.0 ? bytes / bytes_per_second : 0.0);
  }

  friend bool operator==(const TierModel&, const TierModel&) = default;
};

/// The three-tier ladder. Defaults anchor the regional tier to the
/// paper's measured checkpoint path (~38 MB/s effective ~= 0.3 Gbps with
/// protocol overhead, 3.6 s session latency folded into base_seconds in
/// CheckpointTimeModel; here the latency is the per-request share) and
/// bracket it with a fast local cache and a slow cold tier.
struct TierSet {
  TierModel local{0.05, 8.0, 0.01};
  TierModel regional{0.8, 0.3, 0.02};
  TierModel cold{4.0, 0.1, 0.004};

  const TierModel& at(StorageTier tier) const {
    switch (tier) {
      case StorageTier::kLocal:
        return local;
      case StorageTier::kRegional:
        return regional;
      case StorageTier::kCold:
        return cold;
    }
    return regional;
  }
  TierModel& at(StorageTier tier) {
    return const_cast<TierModel&>(
        static_cast<const TierSet*>(this)->at(tier));
  }

  friend bool operator==(const TierSet&, const TierSet&) = default;
};

}  // namespace cmdare::cloud
