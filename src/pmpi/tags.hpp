// Tag-namespace registry: every wire tag used inside the library lives
// here, in named reserved ranges, so no two protocols can collide by
// picking the same ad-hoc constant.
//
// Layout of the tag space:
//   * negative tags — internal collective protocols. The public
//     point-to-point API rejects negative user tags, so collective
//     traffic can never be intercepted by (or mistaken for) user
//     messages on the same channel.
//   * [164, 1024) — reserved solver protocol ranges, one kRangeWidth-wide
//     band per protocol, so `base + index` arithmetic stays inside a
//     protocol's reservation by construction. [100, 164) and the retired
//     APMOS band [228, 292) stay vacant so the bands keep their wire
//     values.
//   * [1024, ...) — application space: user code that needs stable tags
//     alongside the solvers should start at kUserBase.
//   * (-inf, -kGroupScopedBase] — group-scoped bands. Every communicator
//     group minted by Context::group_for owns one kGroupSpan-wide band
//     deep in negative space; group_scope(id, tag) maps a group's whole
//     local tag space (collectives, solver bands, user tags below
//     kGroupUserLimit) into its band. The bands are pairwise disjoint
//     and sit below every world collective tag, and world user tags are
//     non-negative, so a group's wire traffic can never collide with the
//     world communicator's or with a sibling group's.
//
// Debug builds additionally enforce the channel discipline at runtime:
// Context::register_irecv throws if two outstanding non-blocking
// receives ever share a (dest, src, tag) channel.
#pragma once

namespace parsvd::pmpi::tags {

// ----------------------------------------------------- collective tags
// Values are wire-stable: the retired -6..-10 stay vacant so kBarrier
// and every group band offset keep their values.
inline constexpr int kBcast = -2;     // flat fan-out broadcast
inline constexpr int kGather = -3;    // flat gather (root loop)
inline constexpr int kScatter = -4;   // scatter_rows
inline constexpr int kReduce = -5;    // flat reduce (root loop)
inline constexpr int kBarrier = -11;  // message-based subgroup barrier

// ------------------------------------------------ solver protocol bands
/// Width of one reserved band.
inline constexpr int kRangeWidth = 64;

inline constexpr int kTsqrDownBase = 164;

/// First tag applications should use for their own traffic.
inline constexpr int kUserBase = 1024;

/// TSQR Q row-slices flowing from rank 0 back to the ranks (the direct
/// TSQR uses index 0 of the band).
constexpr int tsqr_down(int index) { return kTsqrDownBase + index; }

static_assert(kTsqrDownBase + kRangeWidth <= kUserBase,
              "solver tag bands overflow into application space");

// ------------------------------------------------- group tag namespace
// Every communicator group's wire tags are its local tags relocated into
// a private band: group_scope(id, t) = -(kGroupScopedBase
//                                        + (id-1)*kGroupSpan
//                                        + (t + kGroupTagBias)).
// The bias shifts the (negative) collective tags to non-negative band
// offsets, so one band holds a group's complete local tag space:
// collectives, the solver protocol bands, and user tags below
// kGroupUserLimit. All scoped tags are <= -kGroupScopedBase, far below
// kBarrier (the deepest world collective), and world user tags are
// non-negative — so no scoped tag can collide with world traffic, and
// distinct group ids land in disjoint bands by construction.
//
// Production code NEVER calls group_scope directly: Communicator scopes
// every post/wait of a group communicator internally, and the
// `group-tag` lint rule bans hand-rolled scoping arithmetic outside
// src/pmpi and the src/verify model (which must mirror the wire tags).

/// Width of one group's scoped band. Must cover the bias, the solver
/// bands and a useful slice of user tag space.
inline constexpr int kGroupSpan = 4096;
/// Shift that maps the deepest internal collective tag to band offset 0.
inline constexpr int kGroupTagBias = 16;
/// |tag| at which the first group band (id 1) starts.
inline constexpr int kGroupScopedBase = 1 << 20;
/// Group communicators reject user tags at or above this (the scoped
/// band cannot hold them); world communicators have no upper limit.
inline constexpr int kGroupUserLimit = kGroupSpan - kGroupTagBias;
/// Group ids a Context can mint before scoped tags leave int range.
inline constexpr int kMaxGroups =
    (2147483647 - kGroupScopedBase) / kGroupSpan - 1;

/// True for wire tags inside some group's scoped band.
constexpr bool is_group_scoped(int tag) { return tag <= -kGroupScopedBase; }

/// Relocate a group-local tag into group `group_id`'s private band.
/// Requires group_id in [1, kMaxGroups] and tag in
/// [-kGroupTagBias, kGroupUserLimit).
constexpr int group_scope(int group_id, int tag) {
  return -(kGroupScopedBase + (group_id - 1) * kGroupSpan +
           (tag + kGroupTagBias));
}

/// Inverse of group_scope: the group id owning a scoped wire tag.
constexpr int scoped_group(int tag) {
  return (-tag - kGroupScopedBase) / kGroupSpan + 1;
}

/// Inverse of group_scope: the group-local tag behind a scoped wire tag.
constexpr int unscoped(int tag) {
  return (-tag - kGroupScopedBase) % kGroupSpan - kGroupTagBias;
}

static_assert(kBarrier > -kGroupTagBias,
              "collective tags must fit above the group band bias");
static_assert(kTsqrDownBase + kRangeWidth <= kGroupUserLimit,
              "solver tag bands must fit inside one group band");
static_assert(kUserBase < kGroupUserLimit,
              "group communicators must accept tags at kUserBase");
static_assert(!is_group_scoped(kBarrier) && !is_group_scoped(kUserBase),
              "world tags must never read as group-scoped");
static_assert(is_group_scoped(group_scope(1, kBcast)) &&
                  is_group_scoped(group_scope(kMaxGroups, kGroupUserLimit - 1)),
              "every band slot must read as group-scoped");
static_assert(scoped_group(group_scope(7, kBarrier)) == 7 &&
                  unscoped(group_scope(7, kBarrier)) == kBarrier,
              "group_scope must round-trip collective tags");
static_assert(scoped_group(group_scope(3, tsqr_down(5))) == 3 &&
                  unscoped(group_scope(3, tsqr_down(5))) == tsqr_down(5),
              "group_scope must round-trip solver band tags");
static_assert(group_scope(1, kGroupUserLimit - 1) >
                  group_scope(2, -kGroupTagBias),
              "sibling group bands must be disjoint");

}  // namespace parsvd::pmpi::tags
