// Figure 6: startup-time breakdown (provisioning / staging / running) for
// newly requested servers without a recent revocation — K80 and P100,
// us-east1 and us-west1, transient and on-demand.
#include "bench_common.hpp"

#include "cloud/provider.hpp"

using namespace cmdare;

void bench::fig6() {
  util::Table table({"server", "provisioning (s)", "staging (s)",
                     "running (s)", "total (s)"});

  for (cloud::GpuType gpu : {cloud::GpuType::kK80, cloud::GpuType::kP100}) {
    for (cloud::Region region :
         {cloud::Region::kUsEast1, cloud::Region::kUsWest1}) {
      for (bool transient : {true, false}) {
        // Drive full provider lifecycles so the breakdown reflects what a
        // customer polling the instance API would observe.
        simcore::Simulator sim;
        cloud::CloudProvider provider(
            sim, util::Rng(600 + static_cast<int>(gpu) * 10 +
                           static_cast<int>(region)));
        std::vector<cloud::InstanceId> ids;
        for (int i = 0; i < 60; ++i) {
          cloud::InstanceRequest request;
          request.gpu = gpu;
          request.region = region;
          request.transient = transient;
          const auto id = provider.request_instance(request);
          ids.push_back(id);
          // Stop instances right after start; we only need the startup.
          sim.run_until(sim.now());
        }
        sim.run_until(400.0);
        std::vector<double> prov, stag, run, total;
        for (auto id : ids) {
          const auto& s = provider.record(id).startup;
          prov.push_back(s.provisioning_s);
          stag.push_back(s.staging_s);
          run.push_back(s.running_s);
          total.push_back(s.total());
          provider.terminate(id);
        }
        table.add_row({std::string(cloud::gpu_name(gpu)) + " " +
                           cloud::region_name(region) +
                           (transient ? " transient" : " on-demand"),
                       util::format_mean_sd(stats::mean(prov),
                                            stats::stddev(prov), 1),
                       util::format_mean_sd(stats::mean(stag),
                                            stats::stddev(stag), 1),
                       util::format_mean_sd(stats::mean(run),
                                            stats::stddev(run), 1),
                       util::format_double(stats::mean(total), 1)});
      }
    }
  }
  table.render(std::cout);

  bench::print_note(
      "transient servers start in < 100 s; transient K80 is ~11 s slower "
      "than on-demand and transient P100 ~21 s slower (and ~8.7% slower "
      "than transient K80, mostly in the staging stage).");
}
