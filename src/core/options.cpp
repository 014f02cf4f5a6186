#include "core/options.hpp"

#include "pmpi/comm.hpp"
#include "support/error.hpp"

namespace parsvd {

std::vector<double> FaultReport::to_doubles() const {
  std::vector<double> flat;
  flat.reserve(7 + dead_ranks.size());
  flat.push_back(degraded ? 1.0 : 0.0);
  flat.push_back(static_cast<double>(dead_ranks.size()));
  for (int r : dead_ranks) flat.push_back(static_cast<double>(r));
  flat.push_back(static_cast<double>(surviving_rows));
  flat.push_back(static_cast<double>(lost_rows));
  flat.push_back(extent_known ? 1.0 : 0.0);
  flat.push_back(coverage);
  flat.push_back(accuracy_bound);
  return flat;
}

FaultReport FaultReport::from_doubles(const std::vector<double>& flat) {
  PARSVD_REQUIRE(flat.size() >= 7, "FaultReport: truncated encoding");
  FaultReport out;
  std::size_t i = 0;
  out.degraded = flat[i++] != 0.0;
  const auto ndead = static_cast<std::size_t>(flat[i++]);
  PARSVD_REQUIRE(flat.size() == 7 + ndead, "FaultReport: length mismatch");
  out.dead_ranks.reserve(ndead);
  for (std::size_t k = 0; k < ndead; ++k) {
    out.dead_ranks.push_back(static_cast<int>(flat[i++]));
  }
  out.surviving_rows = static_cast<Index>(flat[i++]);
  out.lost_rows = static_cast<Index>(flat[i++]);
  out.extent_known = flat[i++] != 0.0;
  out.coverage = flat[i++];
  out.accuracy_bound = flat[i++];
  return out;
}

void accept_or_throw(bool fault_tolerant, std::span<const int> missing,
                     const char* what) {
  if (!fault_tolerant) pmpi::require_no_missing(missing, what);
}

void StreamingOptions::validate() const {
  PARSVD_REQUIRE(num_modes > 0, "num_modes must be positive");
  PARSVD_REQUIRE(forget_factor > 0.0 && forget_factor <= 1.0,
                 "forget_factor must lie in (0, 1]");
  for (Index i = 0; i < row_weights.size(); ++i) {
    PARSVD_REQUIRE(row_weights[i] > 0.0, "row weights must be positive");
  }
  if (low_rank) {
    PARSVD_REQUIRE(randomized.rank > 0, "randomized rank must be positive");
    PARSVD_REQUIRE(randomized.oversampling >= 0, "oversampling must be >= 0");
    PARSVD_REQUIRE(randomized.power_iterations >= 0,
                   "power_iterations must be >= 0");
  }
}

void ApmosOptions::validate() const {
  PARSVD_REQUIRE(r1 > 0, "r1 must be positive");
  PARSVD_REQUIRE(r2 > 0, "r2 must be positive");
  if (low_rank) {
    PARSVD_REQUIRE(randomized.rank > 0, "randomized rank must be positive");
    PARSVD_REQUIRE(randomized.oversampling >= 0, "oversampling must be >= 0");
    PARSVD_REQUIRE(randomized.power_iterations >= 0,
                   "power_iterations must be >= 0");
  }
}

}  // namespace parsvd
