#include "drive.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "engine/event_engine.h"
#include "engine/event_transport.h"
#include "eval/arrival.h"
#include "eval/load_generator.h"
#include "net/faulty_transport.h"
#include "service/service_engine.h"
#include "telemetry/clock.h"
#include "telemetry/registry.h"

namespace spacetwist::perfbench {

namespace {

/// Frames of the traced pass kept for the codec re-run.
constexpr size_t kFrameSample = 4096;

/// Target length of one round of a pass.
constexpr double kRoundSeconds = 2.5;

struct Seeds {
  uint64_t workload;  ///< query points, anchors and arrivals
  uint64_t fault;     ///< per-user link schedules fork this
  uint64_t retry;     ///< per-user retry jitter and nonces fork this
};

Seeds DeriveSeeds(uint64_t seed) {
  Rng rng(seed);
  Seeds seeds;
  seeds.workload = rng.Next();
  seeds.fault = rng.Next();
  seeds.retry = rng.Next();
  return seeds;
}

void Fnv(uint64_t value, uint64_t* hash) {
  for (int i = 0; i < 8; ++i) {
    *hash ^= (value >> (8 * i)) & 0xFF;
    *hash *= 0x100000001B3ULL;
  }
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Everything a pass shares between its client threads.
struct PassContext {
  const WorkloadSpec* spec = nullptr;
  const PassOptions* options = nullptr;
  Seeds seeds;
  telemetry::Clock* clock = nullptr;
  FrameSample* sample = nullptr;
  telemetry::MetricRegistry* registry = nullptr;
};

/// One query over `link`: the public client call, timed from the outside.
/// `faulty` is the link itself when it is lossy (its virtual clock is the
/// modeled link time), null on a clean link (1 ms per round trip, the
/// link model's fault-free cost).
QueryRecord RunQuery(const PassContext& ctx, net::FrameTransport* link,
                     const net::FaultyTransport* faulty, size_t pos,
                     const geom::Point& q, const geom::Point& anchor,
                     const service::RetryConfig& retry) {
  QueryRecord record;
  record.pos = pos;
  record.q = q;
  record.anchor = anchor;
  std::unique_ptr<TimedTransport> timed;
  net::FrameTransport* transport = link;
  if (ctx.options->totals != nullptr) {
    timed = std::make_unique<TimedTransport>(link, ctx.options->totals,
                                             ctx.clock, ctx.sample);
    transport = timed.get();
  }
  const uint64_t virtual_before = faulty != nullptr ? faulty->now_ns() : 0;
  const uint64_t start = ctx.clock->NowNs();
  Result<core::QueryOutcome> outcome = service::RemoteQuery(
      transport, q, anchor, ctx.spec->params, retry, &record.retry);
  const uint64_t end = ctx.clock->NowNs();
  record.start_ns = start;  // absolute here; the loop makes it an offset
  record.end_ns = end;
  record.remote_ns = end - start;
  record.latency_ns = end - start;
  const uint64_t modeled =
      faulty != nullptr ? faulty->now_ns() - virtual_before
                        : record.retry.attempts * net::FaultConfig().latency_ns;
  record.link_ns = modeled + record.retry.backoff_ns;
  if (!outcome.ok()) {
    record.failure = outcome.status().code();
  } else {
    record.ok = true;
    record.outcome = outcome.MoveValueOrDie();
    record.stream_hash = OutcomeHash(record.outcome);
    if (pos >= ctx.options->keep_outcomes) {
      record.outcome.retrieved.clear();
      record.outcome.retrieved.shrink_to_fit();
    }
  }
  return record;
}

/// Closed loop, one round: each connection takes the next user, runs its
/// queries back to back over the user's own link, and stops taking users
/// once the round's time is up. Users continue across rounds.
void RunClosedRound(const PassContext& ctx, const geom::Rect& domain,
                    const std::vector<net::FrameHandler*>& handlers,
                    double seconds, std::atomic<size_t>* next_user,
                    std::vector<QueryRecord>* records, double* wall_s) {
  eval::LoadOptions load;
  load.queries_per_client = ctx.spec->queries_per_user;
  load.params = ctx.spec->params;
  load.seed = ctx.seeds.workload;
  net::FaultConfig fault = MixedTenPercent();
  fault.registry = ctx.registry;

  std::vector<std::vector<QueryRecord>> per_connection(handlers.size());
  const uint64_t start = ctx.clock->NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < handlers.size(); ++c) {
    threads.emplace_back([&, c] {
      while (ctx.clock->NowNs() < deadline) {
        const size_t user = next_user->fetch_add(1);
        const eval::ClientWorkload workload =
            eval::MakeClientWorkload(domain, load, user);
        service::RetryConfig retry;
        retry.seed = eval::ClientSeed(ctx.seeds.retry, user);
        retry.registry = ctx.registry;
        std::unique_ptr<net::FaultyTransport> faulty;
        std::unique_ptr<net::DirectTransport> direct;
        net::FrameTransport* link = nullptr;
        if (ctx.spec->lossy) {
          faulty = std::make_unique<net::FaultyTransport>(
              handlers[c], fault, eval::ClientSeed(ctx.seeds.fault, user));
          link = faulty.get();
        } else {
          direct = std::make_unique<net::DirectTransport>(handlers[c]);
          link = direct.get();
        }
        for (size_t j = 0; j < workload.queries.size(); ++j) {
          const auto& [q, anchor] = workload.queries[j];
          per_connection[c].push_back(
              RunQuery(ctx, link, faulty.get(),
                       user * ctx.spec->queries_per_user + j, q, anchor,
                       retry));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_s = static_cast<double>(ctx.clock->NowNs() - start) / 1e9;
  for (std::vector<QueryRecord>& part : per_connection) {
    for (QueryRecord& r : part) {
      r.start_ns -= start;
      r.end_ns -= start;
      records->push_back(std::move(r));
    }
  }
}

/// Open loop, one round: a dispatcher releases arrivals [lo, hi) of the
/// schedule at their scheduled instants (relative to `origin_ns`, the
/// round's place in the schedule), sleeping rather than spinning in
/// between, and the client connections serve the released arrivals in
/// order. Latency is charged from the scheduled instant, so a backlog at
/// the connections shows up in it.
void RunOpenRound(const PassContext& ctx,
                  const eval::OpenLoopWorkload& workload, size_t lo, size_t hi,
                  uint64_t origin_ns,
                  const std::vector<net::FrameHandler*>& handlers,
                  std::vector<QueryRecord>* records,
                  std::vector<uint64_t>* lag_ns, double* wall_s) {
  std::mutex mu;
  std::condition_variable ready;
  std::deque<size_t> released;
  bool done = false;
  std::atomic<uint64_t> last_end{0};

  // A short head start so every thread is waiting before the first
  // arrival is due.
  const uint64_t start = ctx.clock->NowNs() + 2'000'000;
  auto due_at = [&](size_t i) {
    return start + (workload.arrivals[i].at_ns - origin_ns);
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < handlers.size(); ++c) {
    clients.emplace_back([&, c] {
      net::DirectTransport link(handlers[c]);
      while (true) {
        size_t i = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          ready.wait(lock, [&] { return done || !released.empty(); });
          if (released.empty()) return;
          i = released.front();
          released.pop_front();
        }
        const eval::Arrival& a = workload.arrivals[i];
        const uint64_t due = due_at(i);
        const uint64_t begin = ctx.clock->NowNs();
        service::RetryConfig retry;
        retry.seed = eval::ClientSeed(ctx.seeds.retry, i);
        retry.registry = ctx.registry;
        QueryRecord record =
            RunQuery(ctx, &link, nullptr, i, a.q, a.anchor, retry);
        const uint64_t end = ctx.clock->NowNs();
        record.wait_ns = begin - due;
        record.start_ns = due - start;
        record.end_ns = end - start;
        record.latency_ns = end - due;
        (*records)[i] = std::move(record);
        uint64_t seen = last_end.load();
        while (seen < end && !last_end.compare_exchange_weak(seen, end)) {
        }
      }
    });
  }

  std::thread dispatcher([&] {
    // Wake within a microsecond of each due time rather than the default
    // 50 us timer slack; the arrival gaps average 500 us.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    for (size_t i = lo; i < hi; ++i) {
      const uint64_t due = due_at(i);
      const uint64_t now = ctx.clock->NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      (*lag_ns)[i] = ctx.clock->NowNs() - due;
      {
        std::lock_guard<std::mutex> lock(mu);
        released.push_back(i);
      }
      ready.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    ready.notify_all();
  });
  dispatcher.join();
  for (std::thread& t : clients) t.join();
  *wall_s = static_cast<double>(std::max(last_end.load(), start) - start) / 1e9;
}

}  // namespace

uint64_t OutcomeHash(const core::QueryOutcome& outcome) {
  uint64_t hash = 0xCBF29CE484222325ULL;
  Fnv(outcome.packets, &hash);
  Fnv(outcome.stream_exhausted ? 1 : 0, &hash);
  for (const rtree::Neighbor& n : outcome.neighbors) {
    Fnv(n.point.id, &hash);
    Fnv(Bits(n.distance), &hash);
  }
  for (const rtree::DataPoint& p : outcome.retrieved) {
    Fnv(p.id, &hash);
    Fnv(Bits(p.point.x), &hash);
    Fnv(Bits(p.point.y), &hash);
  }
  return hash;
}

PassResult RunPass(const WorkloadSpec& spec, ServingStack* stack,
                   const geom::Rect& domain, const PassOptions& options) {
  telemetry::RealClock clock;
  telemetry::MetricRegistry registry;
  FrameSample sample(kFrameSample);
  PassContext ctx;
  ctx.spec = &spec;
  ctx.options = &options;
  ctx.seeds = DeriveSeeds(options.seed);
  ctx.clock = &clock;
  ctx.sample = options.totals != nullptr ? &sample : nullptr;
  ctx.registry = &registry;

  std::unique_ptr<TimedBackend> timed_backend;
  serving::InnBackend* backend = stack->backend();
  if (options.totals != nullptr) {
    timed_backend =
        std::make_unique<TimedBackend>(backend, options.totals, &clock);
    backend = timed_backend.get();
  }
  telemetry::MetricRegistry* router_registry =
      stack->router() != nullptr ? stack->router()->registry() : nullptr;
  auto router_counter = [&](const char* name) -> uint64_t {
    return router_registry == nullptr
               ? 0
               : router_registry->GetCounter(name)->value();
  };

  const storage::IoStats io_before = stack->io_stats();
  const uint64_t pulls_before = router_counter("shard.router.shard_pulls");
  const uint64_t pops_before = router_counter("shard.router.merge_pops");

  // The pass runs in rounds, each behind a fresh event engine with fresh
  // client threads, so one unlucky placement of threads on cores cannot
  // decide a whole pass; the summaries take medians over rounds.
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(std::llround(options.seconds / kRoundSeconds)));
  const double round_seconds = options.seconds / static_cast<double>(rounds);

  PassResult result;
  {
    service::ServiceOptions service_options;
    service_options.packet = spec.params.packet;
    service_options.idle_ttl_ns = spec.idle_ttl_ns;
    service_options.registry = &registry;
    service_options.granular.registry =
        router_registry != nullptr ? router_registry : &registry;
    service::ServiceEngine service(backend, service_options);

    eval::OpenLoopWorkload schedule;
    if (spec.open_loop) {
      eval::ArrivalOptions arrival;
      arrival.rate_qps = spec.rate_qps;
      arrival.num_users = spec.num_users;
      arrival.total_arrivals = std::max<size_t>(
          1,
          static_cast<size_t>(std::llround(spec.rate_qps * options.seconds)));
      arrival.zipf_s = 1.0;
      arrival.seed = ctx.seeds.workload;
      schedule = eval::BuildOpenLoopWorkload(domain, spec.params, arrival);
      result.records.assign(schedule.arrivals.size(), QueryRecord());
      result.lag_ns.assign(schedule.arrivals.size(), 0);
    }
    std::atomic<size_t> next_user{0};
    size_t lo = 0;
    for (size_t round = 0; round < rounds; ++round) {
      engine::EventEngineOptions engine_options;
      engine_options.worker_threads = kWorkerThreads;
      engine_options.registry = &registry;
      engine::InProcessEventTransport transport;
      engine::EventEngine events(&service, &transport, engine_options);

      std::vector<engine::EventEngine::Port> ports;
      std::vector<std::unique_ptr<TimedHandler>> timed_ports;
      std::vector<net::FrameHandler*> handlers;
      for (size_t c = 0; c < kConnections; ++c) {
        ports.push_back(events.NewPort());
      }
      for (engine::EventEngine::Port& port : ports) {
        if (options.totals != nullptr) {
          timed_ports.push_back(
              std::make_unique<TimedHandler>(&port, options.totals, &clock));
          handlers.push_back(timed_ports.back().get());
        } else {
          handlers.push_back(&port);
        }
      }

      double wall_s = 0.0;
      const size_t first = result.records.size();
      if (spec.open_loop) {
        const auto round_start = [&](size_t r) {
          return static_cast<uint64_t>(static_cast<double>(r) *
                                       round_seconds * 1e9);
        };
        const uint64_t origin = round_start(round);
        const uint64_t until = round_start(round + 1);
        size_t hi = lo;
        while (hi < schedule.arrivals.size() &&
               (round + 1 == rounds || schedule.arrivals[hi].at_ns < until)) {
          ++hi;
        }
        RunOpenRound(ctx, schedule, lo, hi, origin, handlers, &result.records,
                     &result.lag_ns, &wall_s);
        for (size_t i = lo; i < hi; ++i) result.records[i].round = round;
        lo = hi;
      } else {
        RunClosedRound(ctx, domain, handlers, round_seconds, &next_user,
                       &result.records, &wall_s);
        for (size_t i = first; i < result.records.size(); ++i) {
          result.records[i].round = round;
        }
      }
      result.round_wall_s.push_back(wall_s);
    }
  }
  // The engines are gone, so every session has retired and folded its
  // counters into the totals and the router's instruments, and every
  // query's fan-out record is in the router's log. Draining the log keeps
  // one pass's records out of the next.
  std::sort(result.records.begin(), result.records.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.pos < b.pos;
            });
  if (stack->router() != nullptr) {
    for (const QueryRecord& r : result.records) {
      const std::optional<shard::QueryFanout> fanout =
          stack->router()->TakeFanout(r.anchor);
      if (!fanout.has_value()) continue;
      result.fanout_sum += fanout->fanout;
      ++result.fanout_count;
    }
  }
  result.queue_delay =
      registry.GetHistogram("engine.queue_delay_ns")->Snapshot();
  result.sessions_opened =
      registry.GetCounter("service.engine.sessions_opened")->value();
  result.sessions_evicted =
      registry.GetCounter("service.engine.sessions_evicted")->value();
  result.io = stack->io_stats() - io_before;
  result.shard_pulls =
      router_counter("shard.router.shard_pulls") - pulls_before;
  result.merge_pops = router_counter("shard.router.merge_pops") - pops_before;
  if (options.totals != nullptr) {
    result.requests = sample.TakeRequests();
    result.responses = sample.TakeResponses();
  }
  return result;
}

}  // namespace spacetwist::perfbench
