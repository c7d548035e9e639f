#include "workload.h"

#include <string>

#include "rtree/rtree.h"

namespace spacetwist::perfbench {

namespace {

rtree::RTreeOptions ServingTreeOptions() {
  rtree::RTreeOptions options;  // 1 KB pages, 256-page buffer pool
  options.concurrent_reads = true;
  return options;
}

}  // namespace

Result<WorkloadSpec> FindWorkload(std::string_view name) {
  WorkloadSpec spec;
  if (name == "table1-open") {
    spec.name = "table1-open";
    spec.backend = Backend::kMemidx;
    spec.open_loop = true;
    spec.rate_qps = 2000.0;
    spec.num_users = 256;
  } else if (name == "exact-stream") {
    spec.name = "exact-stream";
    spec.backend = Backend::kPaged;
    spec.params.k = 4;
    spec.params.epsilon = 0.0;
    spec.params.anchor_distance = 500.0;
  } else if (name == "fleet-lossy") {
    spec.name = "fleet-lossy";
    spec.backend = Backend::kFleet;
    spec.lossy = true;
    spec.idle_ttl_ns = 100'000'000;
  } else {
    return Status::NotFound("unknown workload '" + std::string(name) +
                            "' (table1-open, exact-stream, fleet-lossy)");
  }
  return spec;
}

net::FaultConfig MixedTenPercent() {
  net::FaultRates rates;
  rates.drop = 0.10;
  rates.duplicate = 0.05;
  rates.reorder = 0.05;
  rates.corrupt = 0.05;
  rates.stall = 0.025;
  rates.disconnect = 0.0125;
  net::FaultConfig config;
  config.uplink = rates;
  config.downlink = rates;
  return config;
}

Result<std::unique_ptr<ServingStack>> ServingStack::Build(
    const WorkloadSpec& spec, const datasets::Dataset& dataset,
    telemetry::MetricRegistry* router_registry) {
  std::unique_ptr<ServingStack> stack(new ServingStack());
  if (spec.backend == Backend::kFleet) {
    shard::ShardRouterOptions options;
    options.num_shards = 4;
    options.serving = server::ServingIndex::kMemidx;
    options.rtree = ServingTreeOptions();
    options.registry = router_registry;
    SPACETWIST_ASSIGN_OR_RETURN(stack->router_,
                                shard::ShardRouter::Build(dataset, options));
  } else {
    SPACETWIST_ASSIGN_OR_RETURN(
        stack->server_,
        server::LbsServer::Build(dataset, ServingTreeOptions(),
                                 spec.backend == Backend::kMemidx
                                     ? server::ServingIndex::kMemidx
                                     : server::ServingIndex::kPaged));
  }
  return stack;
}

serving::InnBackend* ServingStack::backend() {
  if (router_ != nullptr) return router_.get();
  return server_.get();
}

storage::IoStats ServingStack::io_stats() {
  if (server_ != nullptr) return server_->io_stats();
  storage::IoStats total;
  for (size_t i = 0; i < router_->num_shards(); ++i) {
    const storage::IoStats shard = router_->shard_server(i)->io_stats();
    total.logical_reads += shard.logical_reads;
    total.physical_reads += shard.physical_reads;
    total.physical_writes += shard.physical_writes;
    total.pages_allocated += shard.pages_allocated;
  }
  return total;
}

Result<std::unique_ptr<server::LbsServer>> BuildReference(
    const datasets::Dataset& dataset) {
  rtree::RTreeOptions options;
  options.concurrent_reads = true;
  options.buffer_pool_pages = 1 << 16;
  return server::LbsServer::Build(dataset, options,
                                  server::ServingIndex::kPaged);
}

}  // namespace spacetwist::perfbench
