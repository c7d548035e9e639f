#include "layers.h"

#include <utility>

namespace spacetwist::perfbench {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

/// A stream of the decorated backend: forwards everything and times the
/// pulls. Its work counters are folded into the totals when the serving
/// engine retires the session (close, eviction or engine shutdown).
class TimedSource : public serving::InnSource {
 public:
  TimedSource(std::unique_ptr<serving::InnSource> inner, LayerTotals* totals,
              telemetry::Clock* clock)
      : inner_(std::move(inner)), totals_(totals), clock_(clock) {}

  ~TimedSource() override {
    totals_->node_reads.fetch_add(inner_->node_reads(), kRelaxed);
    totals_->heap_pops.fetch_add(inner_->heap_pops(), kRelaxed);
  }

  TimedSource(const TimedSource&) = delete;
  TimedSource& operator=(const TimedSource&) = delete;

  Result<rtree::DataPoint> Next() override {
    const uint64_t start = clock_->NowNs();
    Result<rtree::DataPoint> point = inner_->Next();
    Account(start, point.ok() ? 1 : 0);
    return point;
  }

  Status NextBatch(size_t max_points,
                   std::vector<rtree::DataPoint>* out) override {
    const size_t before = out->size();
    const uint64_t start = clock_->NowNs();
    Status status = inner_->NextBatch(max_points, out);
    Account(start, out->size() - before);
    return status;
  }

  void set_trace(telemetry::Trace* trace) override { inner_->set_trace(trace); }
  uint64_t heap_pops() const override { return inner_->heap_pops(); }
  uint64_t node_reads() const override { return inner_->node_reads(); }

 private:
  void Account(uint64_t start_ns, size_t points) {
    totals_->pull_ns.fetch_add(clock_->NowNs() - start_ns, kRelaxed);
    totals_->pulls.fetch_add(1, kRelaxed);
    totals_->pulled_points.fetch_add(points, kRelaxed);
  }

  std::unique_ptr<serving::InnSource> inner_;
  LayerTotals* totals_;
  telemetry::Clock* clock_;
};

}  // namespace

void FrameSample::Offer(const std::vector<uint8_t>& request,
                        const Result<std::vector<uint8_t>>& reply) {
  if (full_.load(kRelaxed)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (requests_.size() >= capacity_) {
    full_.store(true, kRelaxed);
    return;
  }
  requests_.push_back(request);
  if (reply.ok()) responses_.push_back(*reply);
}

std::vector<std::vector<uint8_t>> FrameSample::TakeRequests() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(requests_);
}

std::vector<std::vector<uint8_t>> FrameSample::TakeResponses() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(responses_);
}

Result<std::vector<uint8_t>> TimedTransport::RoundTrip(
    const std::vector<uint8_t>& request_frame) {
  const uint64_t start = clock_->NowNs();
  Result<std::vector<uint8_t>> reply = inner_->RoundTrip(request_frame);
  totals_->transport_ns.fetch_add(clock_->NowNs() - start, kRelaxed);
  totals_->transport_frames.fetch_add(1, kRelaxed);
  totals_->transport_bytes.fetch_add(
      request_frame.size() + (reply.ok() ? reply->size() : 0), kRelaxed);
  if (sample_ != nullptr) sample_->Offer(request_frame, reply);
  return reply;
}

std::vector<uint8_t> TimedHandler::HandleFrame(
    const std::vector<uint8_t>& request_frame) {
  const uint64_t start = clock_->NowNs();
  std::vector<uint8_t> reply = inner_->HandleFrame(request_frame);
  totals_->port_ns.fetch_add(clock_->NowNs() - start, kRelaxed);
  totals_->port_frames.fetch_add(1, kRelaxed);
  return reply;
}

std::unique_ptr<serving::InnSource> TimedBackend::OpenInnSource(
    const geom::Point& anchor, double epsilon, size_t k,
    const serving::GranularOptions& options) {
  const uint64_t start = clock_->NowNs();
  std::unique_ptr<serving::InnSource> inner =
      inner_->OpenInnSource(anchor, epsilon, k, options);
  totals_->open_ns.fetch_add(clock_->NowNs() - start, kRelaxed);
  totals_->opens.fetch_add(1, kRelaxed);
  return std::make_unique<TimedSource>(std::move(inner), totals_, clock_);
}

}  // namespace spacetwist::perfbench
