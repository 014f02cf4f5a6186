// Pure schedule math for the binomial-tree broadcast.
//
// Each function here derives, from nothing but (rank, P), WHO a rank
// talks to and in WHAT order — no payloads, no threads, no Context. The
// production path (Communicator::bcast in comm.hpp) and the static
// verifier (src/verify) both consume these functions, so the schedule
// the model checker proves deadlock-free is, by construction, the
// schedule the solvers post. Changing the topology here changes both
// sides at once; a divergence is impossible rather than merely tested
// for.
//
// Every other collective (gather, gatherv, reduce, the reduce leg of
// allreduce) is a flat root loop with no schedule math to share; DESIGN
// §7 records the measurements that picked one topology per collective.
//
// "P" is a COMMUNICATOR size, not necessarily the Context's world size:
// group communicators (Communicator::split / subgroup) call in with
// their group size and dense group ranks, so the tree shape applies per
// group exactly as it does world-wide.
#pragma once

#include <algorithm>
#include <vector>

namespace parsvd::pmpi::topology {

/// Lowest set bit of a positive rank (0 for vrank 0, the tree root).
constexpr int lowbit(int v) { return v & -v; }

/// Parent of `vrank` in the binomial tree rooted at virtual rank 0:
/// the lowest set bit cleared. Meaningless (returns 0) for the root.
constexpr int binomial_parent(int vrank) { return vrank & (vrank - 1); }

/// Children of `vrank` in the binomial tree over `p` ranks: vrank + m
/// for every power-of-two m below vrank's lowest set bit (below p for
/// the root), clipped to p — in DESCENDING mask order, the broadcast's
/// send order (big subtrees get the payload first so their forwarding
/// overlaps the small sends).
inline std::vector<int> binomial_children(int vrank, int p) {
  const int limit = vrank == 0 ? p : lowbit(vrank);
  std::vector<int> children;
  for (int mask = 1; mask < limit && vrank + mask < p; mask <<= 1) {
    children.push_back(vrank + mask);
  }
  std::reverse(children.begin(), children.end());
  return children;
}

}  // namespace parsvd::pmpi::topology
