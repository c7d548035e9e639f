#ifndef SPACETWIST_PERFBENCH_CHECK_H_
#define SPACETWIST_PERFBENCH_CHECK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "drive.h"
#include "geom/rect.h"
#include "server/lbs_server.h"
#include "workload.h"

namespace spacetwist::perfbench {

/// Accuracy figures cover the succeeded queries among the first
/// kAccuracySample positions of the schedule; the privacy estimate those
/// among the first kPrivacySample positions (which the pass keeps in full).
inline constexpr size_t kAccuracySample = 4096;
inline constexpr size_t kPrivacySample = 256;

/// Outcome of the correctness gate over one pass.
struct GateReport {
  size_t checked = 0;             ///< succeeded queries compared
  std::vector<std::string> errors;  ///< first failures, empty when correct
  double knn_dist_m = 0.0;        ///< mean distance to the k-th neighbour
  double error_m = 0.0;           ///< mean achieved error (Lemma 2)
  size_t accuracy_n = 0;
  double gamma_m = 0.0;           ///< mean privacy value Gamma
  size_t gamma_n = 0;

  bool correct() const { return errors.empty(); }
};

/// Compares every succeeded query of `pass` with core::SpaceTwistClient run
/// in process against `reference` (neighbour ids, distance bits, packets
/// and the whole retrieved stream), checks Lemma 1 (ε = 0: the exact kNN
/// distances) or Lemma 2 (achieved error ≤ ε) against
/// LbsServer::ExactKnn, and checks q ∈ Ψ for the privacy sample while
/// estimating Γ from Monte Carlo draws seeded by `seed`. Runs on four
/// threads, after the timed pass.
GateReport CheckPass(const WorkloadSpec& spec, const PassResult& pass,
                     server::LbsServer* reference, const geom::Rect& domain,
                     uint64_t seed);

}  // namespace spacetwist::perfbench

#endif  // SPACETWIST_PERFBENCH_CHECK_H_
