#include "fleet/config.hpp"

#include <cmath>

namespace cmdare::fleet {

const char* scheduler_policy_name(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kRoundRobin:
      return "round-robin";
    case SchedulerPolicy::kCostOptimal:
      return "cost-optimal";
  }
  return "cost-optimal";
}

long effective_steps(const FleetConfig& config, long drawn_steps) {
  const long steps = static_cast<long>(
      std::llround(static_cast<double>(drawn_steps) * config.demand));
  return steps < 1 ? 1 : steps;
}

std::vector<std::string> validate(const FleetConfig& config) {
  std::vector<std::string> errors;
  if (config.min_steps > config.max_steps) {
    errors.push_back("fleet.min_steps must be <= fleet.max_steps");
  }
  // Liveness: a pending tenant must fit even at the deepest supply dip,
  // or the fleet could wait forever on a pool that never has room.
  // Mirrors FleetMarket::capacity_at at the dip's bottom (clamped >= 1).
  int floor_capacity = static_cast<int>(
      std::floor(static_cast<double>(config.capacity_per_pool) *
                     (1.0 - config.capacity_dip) +
                 1e-9));
  if (floor_capacity < 1) floor_capacity = 1;
  if (config.workers_per_tenant > floor_capacity) {
    errors.push_back(
        "fleet: workers_per_tenant exceeds the dipped pool capacity "
        "(capacity_per_pool x (1 - capacity_dip)); tenants could never "
        "place");
  }
  return errors;
}

}  // namespace cmdare::fleet
