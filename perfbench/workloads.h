// The four rpcbench workloads. Each one runs in passes: a pass constructs the
// program's objects (the timed set-up), runs a fixed amount of work in steps
// (the timed phase), checks every output, and records the pass's exact
// fingerprint. The amount of work in a pass depends only on the seed and the
// scale, so every pass of a run — traced or not — must fingerprint alike.
#ifndef RPCSCOPE_PERFBENCH_WORKLOADS_H_
#define RPCSCOPE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "perfbench/harness.h"
#include "src/fleet/fleet_sampler.h"
#include "src/fleet/method_catalog.h"
#include "src/fleet/service_catalog.h"
#include "src/net/topology.h"
#include "src/rpc/cost_model.h"

namespace rpcbench {

// The fleet model a FleetSampler draws from: service and method catalogs,
// topology and cycle costs. Samplers keep pointers into it.
struct FleetModel {
  rpcscope::ServiceCatalog services;
  rpcscope::MethodCatalog methods;
  rpcscope::Topology topology;
  rpcscope::CycleCostModel costs;

  explicit FleetModel(const rpcscope::MethodCatalogOptions& options)
      : services(rpcscope::ServiceCatalog::BuildDefault()),
        methods(rpcscope::MethodCatalog::Generate(services, options)),
        topology(rpcscope::TopologyOptions{}) {}

  rpcscope::FleetSampler MakeSampler(uint64_t seed) const {
    rpcscope::FleetSamplerOptions options;
    options.seed = seed;
    return rpcscope::FleetSampler(&services, &methods, &topology, &costs, options);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Runs one pass. Layer metrics are recorded through bench.Layer when the
  // tracer is enabled; checks and the fingerprint are recorded always.
  virtual PassStats RunPass(Bench& bench) = 0;

  // Host threads the program may use (stamped into every record).
  virtual int workers() const { return 1; }
};

// Returns null for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const Args& args);

std::unique_ptr<Workload> MakeCatalogScan(const Args& args);
std::unique_ptr<Workload> MakeFleetDes(const Args& args);
std::unique_ptr<Workload> MakeFleetSharded(const Args& args);
std::unique_ptr<Workload> MakeRpcRealBytes(const Args& args);

}  // namespace rpcbench

#endif  // RPCSCOPE_PERFBENCH_WORKLOADS_H_
