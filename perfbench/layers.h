#ifndef SPACETWIST_PERFBENCH_LAYERS_H_
#define SPACETWIST_PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "net/wire.h"
#include "serving/inn_backend.h"
#include "telemetry/clock.h"

/// Timing decorators for the traced pass. Each one wraps a public layer
/// seam of the serving stack, forwards every call unchanged, and adds the
/// time spent below the seam to a shared LayerTotals. Nothing inside the
/// program is instrumented: the decorators sit between the layers, so the
/// traced pass runs the same code as the untraced one (the self-test pins
/// that their per-query digests are equal).
namespace spacetwist::perfbench {

/// Sums over one traced pass. All fields are relaxed atomics: the client
/// connections, the engine loop and the workers add to them concurrently.
struct LayerTotals {
  /// net::FrameTransport::RoundTrip — the client's view of the link.
  std::atomic<uint64_t> transport_ns{0};
  std::atomic<uint64_t> transport_frames{0};
  std::atomic<uint64_t> transport_bytes{0};
  /// EventEngine::Port::HandleFrame — one frame through the engine.
  std::atomic<uint64_t> port_ns{0};
  std::atomic<uint64_t> port_frames{0};
  /// serving::InnBackend::OpenInnSource and InnSource::NextBatch / Next.
  std::atomic<uint64_t> open_ns{0};
  std::atomic<uint64_t> opens{0};
  std::atomic<uint64_t> pull_ns{0};
  std::atomic<uint64_t> pulls{0};
  std::atomic<uint64_t> pulled_points{0};
  /// InnSource::node_reads() / heap_pops() of every retired source.
  std::atomic<uint64_t> node_reads{0};
  std::atomic<uint64_t> heap_pops{0};
};

/// The first frames of a traced pass, kept so the public codec can be
/// timed on real traffic after the pass.
class FrameSample {
 public:
  explicit FrameSample(size_t capacity) : capacity_(capacity) {}

  void Offer(const std::vector<uint8_t>& request,
             const Result<std::vector<uint8_t>>& reply);

  /// Moves the kept frames out.
  std::vector<std::vector<uint8_t>> TakeRequests();
  std::vector<std::vector<uint8_t>> TakeResponses();

 private:
  const size_t capacity_;
  std::atomic<bool> full_{false};
  std::mutex mu_;
  std::vector<std::vector<uint8_t>> requests_;
  std::vector<std::vector<uint8_t>> responses_;
};

/// Decorates the client's link (net::DirectTransport or
/// net::FaultyTransport).
class TimedTransport : public net::FrameTransport {
 public:
  /// Borrows every argument; `sample` may be null.
  TimedTransport(net::FrameTransport* inner, LayerTotals* totals,
                 telemetry::Clock* clock, FrameSample* sample)
      : inner_(inner), totals_(totals), clock_(clock), sample_(sample) {}

  Result<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& request_frame) override;

 private:
  net::FrameTransport* inner_;
  LayerTotals* totals_;
  telemetry::Clock* clock_;
  FrameSample* sample_;
};

/// Decorates one engine::EventEngine::Port (a net::FrameHandler).
class TimedHandler : public net::FrameHandler {
 public:
  TimedHandler(net::FrameHandler* inner, LayerTotals* totals,
               telemetry::Clock* clock)
      : inner_(inner), totals_(totals), clock_(clock) {}

  std::vector<uint8_t> HandleFrame(
      const std::vector<uint8_t>& request_frame) override;

 private:
  net::FrameHandler* inner_;
  LayerTotals* totals_;
  telemetry::Clock* clock_;
};

/// Decorates the serving index (an LbsServer or a shard::ShardRouter);
/// every stream it opens comes back wrapped so its pulls are timed too.
class TimedBackend : public serving::InnBackend {
 public:
  TimedBackend(serving::InnBackend* inner, LayerTotals* totals,
               telemetry::Clock* clock)
      : inner_(inner), totals_(totals), clock_(clock) {}

  std::unique_ptr<serving::InnSource> OpenInnSource(
      const geom::Point& anchor, double epsilon, size_t k,
      const serving::GranularOptions& options) override;

 private:
  serving::InnBackend* inner_;
  LayerTotals* totals_;
  telemetry::Clock* clock_;
};

}  // namespace spacetwist::perfbench

#endif  // SPACETWIST_PERFBENCH_LAYERS_H_
