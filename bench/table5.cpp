// Table V: transient GPU server revocations by region over a twelve-day
// campaign — 396 servers total, half idle and half stressed, launched in
// daily batches at 9 AM local time and run to the 24-hour cap.
//
// Reads the kind=cloud scenario scenarios/table5_census.scn (compiled
// into the binary): the harness owns the simulator and the provider
// (with the campaign's UTC epoch) and this file only schedules the
// launch batches and tallies outcomes.
#include "bench_common.hpp"

#include <map>
#include <utility>

#include "scenario/catalog.hpp"
#include "scenario/harness.hpp"

using namespace cmdare;

namespace {

struct Outcome {
  int launched = 0;
  int revoked = 0;
  int revoked_idle = 0;
  int launched_idle = 0;
};

}  // namespace

void bench::table5() {
  scenario::SimHarness harness(scenario::checked_in_scenario("table5_census"));
  simcore::Simulator& sim = harness.simulator();
  cloud::CloudProvider& provider = harness.provider();

  std::map<std::pair<int, int>, Outcome> outcomes;  // (region, gpu)
  for (const auto& target : cloud::revocation_targets()) {
    Outcome& outcome =
        outcomes[{static_cast<int>(target.region),
                  static_cast<int>(target.gpu)}];
    outcome.launched = target.servers_launched;
    // Launch the campaign's servers spread across 12 non-consecutive days
    // (we use every other day), at 9 AM local time, alternating
    // idle/stressed.
    const int offset_to_9am_local =
        static_cast<int>((9.0 - provider.local_hour_now(target.region) +
                          24.0 * 3.0)) %
        24;
    for (int i = 0; i < target.servers_launched; ++i) {
      const int day = (i % 12) * 2;
      const double launch_at =
          day * 24.0 * 3600.0 + offset_to_9am_local * 3600.0;
      const bool stressed = i % 2 == 1;
      if (!stressed) ++outcome.launched_idle;
      sim.schedule_at(launch_at, [&, target, stressed] {
        cloud::InstanceRequest request;
        request.gpu = target.gpu;
        request.region = target.region;
        request.transient = true;
        request.stressed = stressed;
        cloud::InstanceCallbacks callbacks;
        callbacks.on_revoked = [&outcome, &provider,
                                stressed](cloud::InstanceId id) {
          if (provider.record(id).state == cloud::InstanceState::kRevoked) {
            ++outcome.revoked;
            if (!stressed) ++outcome.revoked_idle;
          }
        };
        provider.request_instance(request, std::move(callbacks));
      });
    }
  }
  harness.run();

  util::Table table({"Regions", "K80", "P100", "V100"});
  const char* row_names[] = {"us-east1",     "us-central1",  "us-west1",
                             "europe-west1", "europe-west4", "asia-east1"};
  int totals[3] = {0, 0, 0};
  int total_launched[3] = {0, 0, 0};
  for (int r = 0; r < 6; ++r) {
    std::vector<std::string> row = {row_names[r]};
    for (int g = 0; g < 3; ++g) {
      const auto it = outcomes.find({r, g});
      if (it == outcomes.end()) {
        row.push_back("N/A");
        continue;
      }
      const Outcome& o = it->second;
      totals[g] += o.revoked;
      total_launched[g] += o.launched;
      row.push_back(std::to_string(o.launched) + " (" +
                    util::format_double(100.0 * o.revoked / o.launched, 2) +
                    "%)");
    }
    table.add_row(row);
  }
  std::vector<std::string> total_row = {"total"};
  for (int g = 0; g < 3; ++g) {
    total_row.push_back(
        std::to_string(total_launched[g]) + " (" +
        util::format_double(100.0 * totals[g] / total_launched[g], 2) + "%)");
  }
  table.add_separator();
  table.add_row(total_row);
  table.render(std::cout);

  // Idle vs stressed: Section V-C finds workload does not matter. The
  // same pass finds the calmest and the most volatile measured cell.
  const auto revoked_share = [](const Outcome& o) {
    return static_cast<double>(o.revoked) / o.launched;
  };
  int idle_revoked = 0, total_revoked = 0, idle_launched = 0, launched = 0;
  auto calmest = outcomes.begin();
  auto most_volatile = outcomes.begin();
  for (auto it = outcomes.begin(); it != outcomes.end(); ++it) {
    const Outcome& o = it->second;
    idle_revoked += o.revoked_idle;
    total_revoked += o.revoked;
    idle_launched += o.launched_idle;
    launched += o.launched;
    if (revoked_share(o) < revoked_share(calmest->second)) calmest = it;
    if (revoked_share(o) > revoked_share(most_volatile->second)) {
      most_volatile = it;
    }
  }
  std::printf(
      "\nidle servers: %d/%d revoked (%.1f%%); stressed: %d/%d (%.1f%%) — "
      "workload does not affect revocation\n",
      idle_revoked, idle_launched, 100.0 * idle_revoked / idle_launched,
      total_revoked - idle_revoked, launched - idle_launched,
      100.0 * (total_revoked - idle_revoked) / (launched - idle_launched));
  std::printf("paper totals: K80 156 (46.15%%), P100 120 (54.17%%), V100 120 "
              "(57.5%%)\n");
  const auto describe = [&](const auto& cell) {
    const auto [region, gpu] = cell->first;
    return std::string(cloud::region_name(static_cast<cloud::Region>(region))) +
           " " + cloud::gpu_name(static_cast<cloud::GpuType>(gpu)) + " (" +
           util::format_double(100.0 * revoked_share(cell->second), 2) + "%)";
  };
  bench::print_note(
      "revocation rates vary strongly by region: here " + describe(calmest) +
      " is the calmest cell and " + describe(most_volatile) +
      " the most volatile; the paper's Table V has us-west1 K80s the "
      "calmest and europe-west1 K80s and us-west1 V100s the most volatile. "
      "More expensive GPUs are revoked more often.");
}
