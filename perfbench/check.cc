#include "check.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "common/strings.h"
#include "core/spacetwist_client.h"
#include "privacy/observation.h"
#include "privacy/region.h"

namespace spacetwist::perfbench {

namespace {

constexpr size_t kMaxErrors = 8;
constexpr size_t kThreads = 4;
/// Monte Carlo draws per query of the privacy sample.
constexpr size_t kPrivacyDraws = 1000;

bool SameDistance(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/// Per-record results, written by exactly one checker thread each and
/// folded in record order afterwards, so the means do not depend on the
/// thread schedule.
struct Slot {
  bool in_accuracy = false;
  double knn_dist = 0.0;
  double error = 0.0;
  bool in_privacy = false;
  double gamma = 0.0;
};

/// Checks one succeeded query; returns an empty string when it passes.
std::string CheckOne(const WorkloadSpec& spec, const QueryRecord& record,
                     core::SpaceTwistClient* client,
                     server::LbsServer* reference, const geom::Rect& domain,
                     uint64_t seed, Slot* slot) {
  const core::QueryOutcome& got = record.outcome;
  Result<core::QueryOutcome> want =
      client->Query(record.q, record.anchor, spec.params);
  if (!want.ok()) {
    return StrFormat("pos %zu: reference failed: %s", record.pos,
                     want.status().ToString().c_str());
  }
  if (got.packets != want->packets ||
      got.neighbors.size() != want->neighbors.size() ||
      record.stream_hash != OutcomeHash(*want)) {
    return StrFormat("pos %zu: outcome differs from the oracle", record.pos);
  }
  for (size_t i = 0; i < got.neighbors.size(); ++i) {
    if (got.neighbors[i].point.id != want->neighbors[i].point.id ||
        got.neighbors[i].distance != want->neighbors[i].distance) {
      return StrFormat("pos %zu: neighbour %zu differs from the oracle",
                       record.pos, i);
    }
  }

  Result<std::vector<rtree::Neighbor>> exact =
      reference->ExactKnn(record.q, spec.params.k);
  if (!exact.ok() || exact->size() != got.neighbors.size() ||
      exact->empty()) {
    return StrFormat("pos %zu: exact kNN unavailable", record.pos);
  }
  if (spec.params.epsilon == 0.0) {
    for (size_t i = 0; i < exact->size(); ++i) {
      if (!SameDistance(got.neighbors[i].distance, (*exact)[i].distance)) {
        return StrFormat("pos %zu: Lemma 1 violated at neighbour %zu",
                         record.pos, i);
      }
    }
  }
  const double error =
      got.neighbors.back().distance - exact->back().distance;
  if (error > spec.params.epsilon + 1e-9) {
    return StrFormat("pos %zu: Lemma 2 violated (error %.6f > eps %.1f)",
                     record.pos, error, spec.params.epsilon);
  }
  if (record.pos < kAccuracySample) {
    slot->in_accuracy = true;
    slot->knn_dist = got.neighbors.back().distance;
    slot->error = error;
  }

  if (record.pos < kPrivacySample) {
    if (got.retrieved.empty()) {
      return StrFormat("pos %zu: privacy sample lost its stream", record.pos);
    }
    const privacy::Observation obs = privacy::MakeObservation(got, domain);
    if (!privacy::InPrivacyRegion(obs, record.q)) {
      return StrFormat("pos %zu: q outside the inferred region Psi",
                       record.pos);
    }
    Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (record.pos + 1)));
    slot->in_privacy = true;
    slot->gamma =
        privacy::EstimatePrivacy(obs, record.q, kPrivacyDraws, &rng)
            .privacy_value;
  }
  return std::string();
}

}  // namespace

GateReport CheckPass(const WorkloadSpec& spec, const PassResult& pass,
                     server::LbsServer* reference, const geom::Rect& domain,
                     uint64_t seed) {
  GateReport report;
  std::vector<Slot> slots(pass.records.size());
  std::mutex mu;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::SpaceTwistClient client(reference);
      for (size_t i = t; i < pass.records.size(); i += kThreads) {
        const QueryRecord& record = pass.records[i];
        if (!record.ok) continue;
        std::string error = CheckOne(spec, record, &client, reference, domain,
                                     seed, &slots[i]);
        if (error.empty()) continue;
        std::lock_guard<std::mutex> lock(mu);
        if (report.errors.size() < kMaxErrors) {
          report.errors.push_back(std::move(error));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  double knn_dist = 0.0;
  double error = 0.0;
  double gamma = 0.0;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (pass.records[i].ok) ++report.checked;
    if (slots[i].in_accuracy) {
      knn_dist += slots[i].knn_dist;
      error += slots[i].error;
      ++report.accuracy_n;
    }
    if (slots[i].in_privacy) {
      gamma += slots[i].gamma;
      ++report.gamma_n;
    }
  }
  if (report.accuracy_n > 0) {
    report.knn_dist_m = knn_dist / static_cast<double>(report.accuracy_n);
    report.error_m = error / static_cast<double>(report.accuracy_n);
  }
  if (report.gamma_n > 0) {
    report.gamma_m = gamma / static_cast<double>(report.gamma_n);
  }
  return report;
}

}  // namespace spacetwist::perfbench
