#include "verify/selftest.hpp"

#include <utility>

#include "pmpi/tags.hpp"

namespace parsvd::verify {

namespace {

namespace tags = pmpi::tags;

/// A flat broadcast whose rank-2 receive was dropped: root's second
/// send is never consumed.
SeededDefect dropped_recv() {
  Schedule s = make_schedule("bad:dropped-recv (flat bcast p=4)", 4);
  for (int dst = 1; dst < 4; ++dst) {
    s.ranks[0].send(dst, tags::kBcast, 64, "bcast copy");
  }
  s.ranks[1].recv(0, tags::kBcast, 64, "bcast");
  // rank 2: receive dropped — the seeded defect.
  s.ranks[3].recv(0, tags::kBcast, 64, "bcast");
  return {std::move(s), Violation::Kind::UnmatchedSend};
}

/// A point-to-point exchange on a raw tag no tags.hpp band reserves.
SeededDefect rogue_tag() {
  Schedule s = make_schedule("bad:rogue-tag (raw tag 7)", 2);
  s.ranks[0].send(1, 7, 8, "ad-hoc tag");
  s.ranks[1].recv(0, 7, 8, "ad-hoc tag");
  return {std::move(s), Violation::Kind::UnregisteredTag};
}

/// Both ranks receive before they send: match-complete, yet no
/// execution can take a single step.
SeededDefect cyclic_wait() {
  Schedule s = make_schedule("bad:cyclic-wait (recv-before-send pair)", 2);
  s.ranks[0].recv(1, tags::kUserBase, 8, "head-of-line receive");
  s.ranks[0].send(1, tags::kUserBase, 8, "reply");
  s.ranks[1].recv(0, tags::kUserBase, 8, "head-of-line receive");
  s.ranks[1].send(0, tags::kUserBase, 8, "reply");
  return {std::move(s), Violation::Kind::Deadlock};
}

/// Two outstanding irecvs on one (dst, src, tag) channel — the
/// discipline Context::register_irecv enforces at runtime in debug
/// builds, caught here statically.
SeededDefect channel_overlap() {
  Schedule s = make_schedule("bad:channel-overlap (double irecv)", 2);
  s.ranks[0].send(1, tags::kUserBase, 8, "first");
  s.ranks[0].send(1, tags::kUserBase, 8, "second");
  const int a = s.ranks[1].irecv(0, tags::kUserBase, 8, "first post");
  const int b = s.ranks[1].irecv(0, tags::kUserBase, 8, "overlapping post");
  s.ranks[1].wait(a);
  s.ranks[1].wait(b);
  return {std::move(s), Violation::Kind::ChannelOverlap};
}

/// Sender and receiver disagree on the payload size.
SeededDefect byte_mismatch() {
  Schedule s = make_schedule("bad:byte-mismatch (16 B vs 8 B)", 2);
  s.ranks[0].send(1, tags::kBcast, 16, "sender's framing");
  s.ranks[1].recv(0, tags::kBcast, 8, "receiver's framing");
  return {std::move(s), Violation::Kind::ByteMismatch};
}

/// Two concurrent jobs on one context — a world bcast and a subgroup
/// bcast whose emitter forgot tags::group_scope. Both streams then
/// share the channel (0 -> 1, kBcast); the jobs have no cross-ordering,
/// so rank 1 legally services its group job first and the FIFO
/// interleave breaks byte-exactness. With the scope applied the streams
/// live on disjoint channels and either order is fine — this is the tag
/// hygiene the group namespace exists for.
SeededDefect unscoped_group_tag() {
  Schedule s = make_schedule(
      "bad:unscoped-group-tag (subgroup bcast missing tags::group_scope)", 4);
  for (int dst = 1; dst < 4; ++dst) {
    s.ranks[0].send(dst, tags::kBcast, 64, "world bcast");
  }
  s.ranks[0].send(1, tags::kBcast, 16, "group{0,1} bcast — UNSCOPED");
  s.ranks[1].recv(0, tags::kBcast, 16, "group{0,1} bcast — UNSCOPED");
  s.ranks[1].recv(0, tags::kBcast, 64, "world bcast");
  s.ranks[2].recv(0, tags::kBcast, 64, "world bcast");
  s.ranks[3].recv(0, tags::kBcast, 64, "world bcast");
  return {std::move(s), Violation::Kind::ByteMismatch};
}

/// rogue_tag, group edition: a scoped wire tag inside a valid group
/// band whose base tag no tags.hpp band reserves — scoping does not
/// launder an ad-hoc constant into the registry.
SeededDefect scoped_rogue_tag() {
  Schedule s = make_schedule("bad:scoped-rogue-tag (raw tag 7 in group 2)", 2);
  const int tag = tags::group_scope(2, 7);
  s.ranks[0].send(1, tag, 8, "ad-hoc tag, group-scoped");
  s.ranks[1].recv(0, tag, 8, "ad-hoc tag, group-scoped");
  return {std::move(s), Violation::Kind::UnregisteredTag};
}

// ----------------------------------------------- seeded FAULT defects
// Each schedule is healthy under check_schedule; the defect only
// surfaces once the paired kill truncates the victim. They mirror the
// recovery-path bug classes DESIGN §13 enumerates.

/// The root waits for a possibly-dead child with a NAKED receive — the
/// un-watchdogged wait the `ft-wait` lint rule bans. With rank 1 dead
/// before its post, recovery never runs: OrphanedWait.
SeededFaultDefect ft_naked_wait() {
  Schedule s = make_schedule("bad:ft-naked-wait (un-watchdogged gather root)", 3);
  s.ranks[1].send(0, tags::kGather, 64, "contribution");
  s.ranks[2].send(0, tags::kGather, 64, "contribution");
  s.ranks[0].recv(1, tags::kGather, 64,
                  "NAKED wait on a possibly-dead child — the defect");
  s.ranks[0].recv_bounded(2, tags::kGather, 64, "bounded wait");
  return {std::move(s), {/*victim=*/1, /*kill_step=*/0},
          Violation::Kind::OrphanedWait};
}

/// Recovery asks the surviving rank to retransmit the dead rank's slot
/// but reframes it with an 8-byte repair header — on the SAME channel
/// the survivor's own contribution used. The FIFO pairing of the live
/// channel breaks: ByteMismatch.
SeededFaultDefect ft_retransmit_reframed() {
  Schedule s =
      make_schedule("bad:ft-retransmit-reframed (recovery reframes a live "
                    "channel)", 3);
  s.ranks[1].send(0, tags::kGather, 64, "contribution");
  s.ranks[2].send(0, tags::kGather, 64, "contribution");
  s.ranks[2].send(0, tags::kGather, 72,
                  "retransmit of rank 1's slot, +8 B repair header — the "
                  "defect");
  s.ranks[0].recv_bounded(1, tags::kGather, 64, "bounded wait");
  s.ranks[0].recv_bounded(2, tags::kGather, 64, "bounded wait");
  s.ranks[0].recv(2, tags::kGather, 64,
                  "recovery consume — expects original framing");
  return {std::move(s), {/*victim=*/1, /*kill_step=*/0},
          Violation::Kind::ByteMismatch};
}

/// After observing the death, root's recovery release loop strides by
/// two and never releases rank 3 — a LIVE survivor stuck on a live but
/// finished peer: Deadlock (not OrphanedWait; the victim is not what
/// rank 3 waits on).
SeededFaultDefect ft_skipped_release() {
  Schedule s = make_schedule(
      "bad:ft-skipped-release (recovery forgets a live survivor)", 4);
  for (int src = 1; src < 4; ++src) {
    s.ranks[src].send(0, tags::kGather, 32, "contribution");
  }
  for (int src = 1; src < 4; ++src) {
    s.ranks[0].recv_bounded(src, tags::kGather, 32, "bounded wait");
  }
  s.ranks[0].send(2, tags::kBcast, 16, "release (loop strides by 2)");
  s.ranks[2].recv(0, tags::kBcast, 16, "release");
  s.ranks[3].recv(0, tags::kBcast, 16, "release — never sent: the defect");
  return {std::move(s), {/*victim=*/1, /*kill_step=*/0},
          Violation::Kind::Deadlock};
}

/// The victim's contribution DID execute before the kill, but root's
/// recovery drops the slot entirely (it skips every rank it later
/// learns is dead, consumed or not): the delivered bytes rot in root's
/// mailbox — UnmatchedSend.
SeededFaultDefect ft_dropped_contribution() {
  Schedule s = make_schedule(
      "bad:ft-dropped-contribution (root forgets the victim's delivered "
      "slot)", 3);
  s.ranks[1].send(0, tags::kGather, 64,
                  "contribution — executes before the kill");
  s.ranks[2].send(0, tags::kGather, 64, "contribution");
  s.ranks[0].recv_bounded(2, tags::kGather, 64,
                          "bounded wait (rank 1's slot skipped — the defect)");
  return {std::move(s), {/*victim=*/1, /*kill_step=*/1},
          Violation::Kind::UnmatchedSend};
}

}  // namespace

std::vector<SeededDefect> seeded_defects() {
  std::vector<SeededDefect> out;
  out.push_back(dropped_recv());
  out.push_back(rogue_tag());
  out.push_back(cyclic_wait());
  out.push_back(channel_overlap());
  out.push_back(byte_mismatch());
  out.push_back(unscoped_group_tag());
  out.push_back(scoped_rogue_tag());
  return out;
}

std::vector<SeededFaultDefect> seeded_fault_defects() {
  std::vector<SeededFaultDefect> out;
  out.push_back(ft_naked_wait());
  out.push_back(ft_retransmit_reframed());
  out.push_back(ft_skipped_release());
  out.push_back(ft_dropped_contribution());
  return out;
}

}  // namespace parsvd::verify
