#ifndef SPACETWIST_PERFBENCH_DRIVE_H_
#define SPACETWIST_PERFBENCH_DRIVE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/spacetwist_client.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "layers.h"
#include "service/wire_client.h"
#include "storage/io_stats.h"
#include "telemetry/metric.h"
#include "workload.h"

namespace spacetwist::perfbench {

/// What one query of a pass produced, at its position in the workload's
/// schedule (arrival index in the open loop; user * queries_per_user +
/// query in the closed loop).
struct QueryRecord {
  size_t pos = 0;
  size_t round = 0;  ///< which round of the pass ran it
  geom::Point q;
  geom::Point anchor;
  bool ok = false;
  StatusCode failure = StatusCode::kOk;  ///< why the client gave up
  /// Offsets from the start of the round: when the query was due (its
  /// scheduled arrival in the open loop, its start in the closed loop) and
  /// when it completed. latency_ns = end_ns - start_ns.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t latency_ns = 0;
  /// Open loop: scheduled arrival to the start of the client call.
  uint64_t wait_ns = 0;
  /// Time inside service::RemoteQuery.
  uint64_t remote_ns = 0;
  /// Modeled link time: the link model's virtual-time delta plus the
  /// retry layer's virtual backoff.
  uint64_t link_ns = 0;
  service::RetryStats retry;
  /// The answer. `retrieved` is kept only for the first positions of the
  /// schedule (the privacy sample); `stream_hash` covers all of it.
  core::QueryOutcome outcome;
  uint64_t stream_hash = 0;
};

struct PassOptions {
  double seconds = 10.0;
  uint64_t seed = 1;
  /// Positions below this keep their full outcome.
  size_t keep_outcomes = 0;
  /// Non-null makes this the traced pass: the serving stack is wrapped in
  /// the timing decorators and the totals are filled in.
  LayerTotals* totals = nullptr;
};

struct PassResult {
  std::vector<QueryRecord> records;  ///< ascending `pos`
  std::vector<double> round_wall_s;  ///< wall time of each round
  /// Open loop: release time minus scheduled time of every arrival.
  std::vector<uint64_t> lag_ns;
  /// Program instruments read over the pass.
  telemetry::HistogramSnapshot queue_delay;  ///< engine.queue_delay_ns
  uint64_t sessions_opened = 0;   ///< service.engine.sessions_opened
  uint64_t sessions_evicted = 0;  ///< service.engine.sessions_evicted
  storage::IoStats io;                       ///< buffer-pool delta
  uint64_t shard_pulls = 0;                  ///< shard.router.shard_pulls
  uint64_t merge_pops = 0;                   ///< shard.router.merge_pops
  /// ShardRouter::TakeFanout over the pass's queries: summed fan-out and
  /// the number of queries that had a record.
  uint64_t fanout_sum = 0;
  uint64_t fanout_count = 0;
  /// Traced pass: the first frames on the wire.
  std::vector<std::vector<uint8_t>> requests;
  std::vector<std::vector<uint8_t>> responses;
};

/// FNV-1a over everything a query returned: packets, neighbour ids and
/// distance bits, and every retrieved point's id and coordinate bits.
uint64_t OutcomeHash(const core::QueryOutcome& outcome);

/// Drives one pass of `spec` through the event-engine front:
/// service::RemoteQuery over engine::EventEngine::Port, from
/// kConnections client connections.
PassResult RunPass(const WorkloadSpec& spec, ServingStack* stack,
                   const geom::Rect& domain, const PassOptions& options);

}  // namespace spacetwist::perfbench

#endif  // SPACETWIST_PERFBENCH_DRIVE_H_
