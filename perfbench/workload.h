#ifndef SPACETWIST_PERFBENCH_WORKLOAD_H_
#define SPACETWIST_PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/spacetwist_client.h"
#include "datasets/dataset.h"
#include "net/faulty_transport.h"
#include "server/lbs_server.h"
#include "serving/inn_backend.h"
#include "shard/router.h"
#include "storage/io_stats.h"
#include "telemetry/registry.h"

namespace spacetwist::perfbench {

/// Fixed shape of every workload: UI points from the repository's dataset
/// seed, one event-engine loop thread with two workers, and at most two
/// client connections (plus one dispatcher thread in the open loop), so a
/// run fits on four cores.
inline constexpr uint64_t kDatasetSeed = 20080407;
inline constexpr size_t kDatasetPoints = 500000;
inline constexpr size_t kWorkerThreads = 2;
inline constexpr size_t kConnections = 2;

enum class Backend { kMemidx, kPaged, kFleet };

struct WorkloadSpec {
  const char* name = "";
  Backend backend = Backend::kMemidx;
  core::QueryParams params;
  /// Open loop: Poisson arrivals at `rate_qps` from `num_users` Zipf(1.0)
  /// users. Closed loop otherwise: each connection runs one user's
  /// `queries_per_user` queries back to back, then takes the next user.
  bool open_loop = false;
  double rate_qps = 0.0;
  size_t num_users = 0;
  size_t queries_per_user = 8;
  /// Each user's link is a net::FaultyTransport with the mixed 10 %
  /// schedule (one transport per user, living for its queries).
  bool lossy = false;
  /// Idle TTL of the front engine, so sessions abandoned by a dying link
  /// are reclaimed. 0 disables eviction.
  uint64_t idle_ttl_ns = 0;
};

/// The workload named `name`, or kNotFound.
Result<WorkloadSpec> FindWorkload(std::string_view name);

/// The `mixed` schedule of bench_fault_resilience at rate 0.10, applied in
/// both directions, with the default link model (1 ms per round trip,
/// 50 ms deadline, 200 ms stall, one-op reconnect).
net::FaultConfig MixedTenPercent();

/// The serving index a workload runs against: one LbsServer (memidx or
/// paged) or a 4-shard Hilbert fleet with memidx shards.
class ServingStack {
 public:
  /// Builds the index from the in-memory dataset. The fleet's router
  /// instruments (shard.router.*) go to `router_registry`.
  static Result<std::unique_ptr<ServingStack>> Build(
      const WorkloadSpec& spec, const datasets::Dataset& dataset,
      telemetry::MetricRegistry* router_registry);

  serving::InnBackend* backend();
  /// Shard router, or null for a single server.
  shard::ShardRouter* router() { return router_.get(); }
  /// Buffer-pool counters summed over every server of the stack.
  storage::IoStats io_stats();

 private:
  ServingStack() = default;

  std::unique_ptr<server::LbsServer> server_;
  std::unique_ptr<shard::ShardRouter> router_;
};

/// The paged reference server the correctness gate compares against. Its
/// buffer pool holds the whole tree; only its answers matter.
Result<std::unique_ptr<server::LbsServer>> BuildReference(
    const datasets::Dataset& dataset);

}  // namespace spacetwist::perfbench

#endif  // SPACETWIST_PERFBENCH_WORKLOAD_H_
