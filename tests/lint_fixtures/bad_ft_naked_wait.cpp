// Lint fixture — NOT compiled. The naked waits inside the death-aware
// collective engines must each produce a [ft-wait] finding: the peer
// may be dead, so every wait in gather_bytes / bcast_bytes / reduce
// must sit inside a try/catch (RankDeadError) block (death-bounded,
// dead-resolves into exclusion) or carry the root-must-survive marker.
// A survivor parked on a rank that died before posting hangs forever —
// exactly the orphaned-wait class schedule_check --faults proves the
// shipped protocols free of.
#include "pmpi/comm.hpp"
#include "pmpi/tags.hpp"

namespace parsvd::pmpi {

std::vector<std::optional<std::vector<std::byte>>> Communicator::gather_bytes(
    std::vector<std::byte> local, int root) {
  std::vector<std::optional<std::vector<std::byte>>> out(
      static_cast<std::size_t>(size()));
  out[static_cast<std::size_t>(root)] = std::move(local);
  for (int src = 1; src < size(); ++src) {
    // Naked wait on a possibly-dead contributor — the defect.
    out[static_cast<std::size_t>(src)] = wait_scoped(src, tags::kGather);
  }
  // Death-bounded sibling: this one is correct and must NOT be flagged.
  try {
    out[0] = wait_scoped(0, tags::kGather);
  } catch (const RankDeadError&) {
  }
  return out;
}

void Communicator::bcast_bytes(std::vector<std::byte>& payload, int root) {
  if (rank_ == root) return;
  // Naked receive of the payload from a non-root peer — the defect.
  payload = wait_scoped(size() - 1, tags::kBcast);
  // The root-must-survive receive, marked: must NOT be flagged.
  // parsvd-lint: allow-ft-wait
  payload = wait_scoped(root, tags::kBcast);
}

}  // namespace parsvd::pmpi
