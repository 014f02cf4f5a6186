#include "verify/checker.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "pmpi/tags.hpp"
#include "support/error.hpp"

namespace parsvd::verify {

namespace {

namespace tags = pmpi::tags;

/// Directed channel identity: messages from `src` to `dst` under `tag`
/// form one FIFO stream in the pmpi mailbox model.
using ChannelKey = std::tuple<int, int, int>;  // (src, dst, tag)

std::string channel_str(const ChannelKey& c) {
  return "channel (src " + std::to_string(std::get<0>(c)) + " -> dst " +
         std::to_string(std::get<1>(c)) + ", tag " +
         std::to_string(std::get<2>(c)) + ")";
}

std::string bytes_str(std::uint64_t bytes) {
  return bytes == kAnyBytes ? "? B" : std::to_string(bytes) + " B";
}

/// A few lines of one rank's script around `pc`, with a marker on the
/// event under diagnosis (or "<end of script>" when pc is past it).
void trace_rank(const CommScript& script, std::size_t pc,
                std::vector<std::string>* out) {
  const auto& events = script.events();
  out->push_back("rank " + std::to_string(script.rank()) + " (event " +
                 std::to_string(pc) + " of " + std::to_string(events.size()) +
                 "):");
  const std::size_t begin = pc >= 2 ? pc - 2 : 0;
  const std::size_t end = std::min(events.size(), pc + 3);
  for (std::size_t i = begin; i < end; ++i) {
    out->push_back(std::string(i == pc ? "  > [" : "    [") +
                   std::to_string(i) + "] " + to_string(events[i]));
  }
  if (pc >= events.size()) out->push_back("  > <end of script>");
}

// ------------------------------------------------------------ tag check

void check_tags(const Schedule& s, std::vector<Violation>* out) {
  for (const CommScript& script : s.ranks) {
    for (std::size_t i = 0; i < script.events().size(); ++i) {
      const CommEvent& e = script.events()[i];
      if (e.kind == CommEvent::Kind::Wait || e.kind == CommEvent::Kind::WaitAll)
        continue;
      if (tag_registered(e.tag)) continue;
      Violation v;
      v.kind = Violation::Kind::UnregisteredTag;
      v.message = "tag " + std::to_string(e.tag) +
                  " is outside every pmpi/tags.hpp reservation";
      trace_rank(script, i, &v.trace);
      out->push_back(std::move(v));
    }
  }
}

// ------------------------------------------------- match-completeness

struct SeqEntry {
  std::uint64_t bytes;
  int rank;        ///< owning rank (for the trace)
  std::size_t pc;  ///< event index in that rank's script
};

void check_matching(const Schedule& s, std::vector<Violation>* out) {
  std::map<ChannelKey, std::vector<SeqEntry>> sends;
  std::map<ChannelKey, std::vector<SeqEntry>> recvs;
  for (const CommScript& script : s.ranks) {
    for (std::size_t i = 0; i < script.events().size(); ++i) {
      const CommEvent& e = script.events()[i];
      switch (e.kind) {
        case CommEvent::Kind::Send:
          PARSVD_REQUIRE(e.peer >= 0 && e.peer < s.size(),
                         "checker: send peer out of range");
          sends[{script.rank(), e.peer, e.tag}].push_back(
              {e.bytes, script.rank(), i});
          break;
        case CommEvent::Kind::Recv:
        case CommEvent::Kind::IrecvPost:
          // Per-channel consumption is FIFO no matter how waits
          // interleave, so program order of the receive INTENTS is the
          // consumption order on each channel.
          PARSVD_REQUIRE(e.peer >= 0 && e.peer < s.size(),
                         "checker: recv peer out of range");
          recvs[{e.peer, script.rank(), e.tag}].push_back(
              {e.bytes, script.rank(), i});
          break;
        case CommEvent::Kind::Wait:
        case CommEvent::Kind::WaitAll:
          break;
      }
    }
  }

  std::set<ChannelKey> channels;
  for (const auto& [key, seq] : sends) channels.insert(key);
  for (const auto& [key, seq] : recvs) channels.insert(key);

  const auto entry_trace = [&](const SeqEntry& entry,
                               std::vector<std::string>* trace) {
    trace_rank(s.ranks[static_cast<std::size_t>(entry.rank)], entry.pc, trace);
  };

  for (const ChannelKey& key : channels) {
    const std::vector<SeqEntry>& sent = sends[key];
    const std::vector<SeqEntry>& received = recvs[key];
    const std::size_t common = std::min(sent.size(), received.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (sent[i].bytes == received[i].bytes ||
          sent[i].bytes == kAnyBytes || received[i].bytes == kAnyBytes) {
        continue;
      }
      Violation v;
      v.kind = Violation::Kind::ByteMismatch;
      v.message = "message " + std::to_string(i) + " on " + channel_str(key) +
                  ": sender posts " + bytes_str(sent[i].bytes) +
                  ", receiver expects " + bytes_str(received[i].bytes);
      entry_trace(sent[i], &v.trace);
      entry_trace(received[i], &v.trace);
      out->push_back(std::move(v));
    }
    for (std::size_t i = common; i < sent.size(); ++i) {
      Violation v;
      v.kind = Violation::Kind::UnmatchedSend;
      v.message = "send " + std::to_string(i) + " on " + channel_str(key) +
                  " (" + bytes_str(sent[i].bytes) +
                  ") has no matching receive";
      entry_trace(sent[i], &v.trace);
      out->push_back(std::move(v));
    }
    for (std::size_t i = common; i < received.size(); ++i) {
      Violation v;
      v.kind = Violation::Kind::UnmatchedRecv;
      v.message = "receive " + std::to_string(i) + " on " + channel_str(key) +
                  " (" + bytes_str(received[i].bytes) +
                  ") has no matching send";
      entry_trace(received[i], &v.trace);
      out->push_back(std::move(v));
    }
  }
}

// --------------------------------------------------- channel discipline

/// `limit` caps how much of each rank's script executes (the fault
/// checker truncates the victim there); kNoLimit = the whole script.
inline constexpr std::size_t kNoLimit = ~std::size_t{0};

std::size_t rank_limit(const Schedule& s, int rank, int victim,
                       std::size_t kill_step) {
  const std::size_t n =
      s.ranks[static_cast<std::size_t>(rank)].events().size();
  return rank == victim ? std::min(kill_step, n) : n;
}

void check_discipline(const Schedule& s, std::vector<Violation>* out,
                      int victim = -1, std::size_t kill_step = kNoLimit) {
  for (const CommScript& script : s.ranks) {
    const std::size_t limit = rank_limit(s, script.rank(), victim, kill_step);
    // (src, tag) -> pc of the open irecv; and req -> its channel.
    std::map<std::pair<int, int>, std::size_t> open;
    std::map<int, std::pair<int, int>> req_channel;
    const auto close_req = [&](int req, std::size_t pc) {
      const auto it = req_channel.find(req);
      if (it == req_channel.end()) {
        Violation v;
        v.kind = Violation::Kind::BadWait;
        v.message = "wait on request " + std::to_string(req) +
                    " which is not outstanding (already completed, or "
                    "never posted)";
        trace_rank(script, pc, &v.trace);
        out->push_back(std::move(v));
        return;
      }
      open.erase(it->second);
      req_channel.erase(it);
    };
    for (std::size_t i = 0; i < limit; ++i) {
      const CommEvent& e = script.events()[i];
      switch (e.kind) {
        case CommEvent::Kind::Send:
          break;
        case CommEvent::Kind::Recv:
        case CommEvent::Kind::IrecvPost: {
          const auto it = open.find({e.peer, e.tag});
          if (it != open.end()) {
            Violation v;
            v.kind = Violation::Kind::ChannelOverlap;
            v.message =
                std::string(e.kind == CommEvent::Kind::Recv
                                ? "blocking receive overlaps an outstanding "
                                  "non-blocking receive"
                                : "two outstanding non-blocking receives "
                                  "share a channel") +
                " on " +
                channel_str({e.peer, script.rank(), e.tag});
            trace_rank(script, it->second, &v.trace);
            trace_rank(script, i, &v.trace);
            out->push_back(std::move(v));
          } else if (e.kind == CommEvent::Kind::IrecvPost) {
            open[{e.peer, e.tag}] = i;
            req_channel[e.req] = {e.peer, e.tag};
          }
          break;
        }
        case CommEvent::Kind::Wait:
          close_req(e.req, i);
          break;
        case CommEvent::Kind::WaitAll:
          for (const int req : e.reqs) close_req(req, i);
          break;
      }
    }
  }
}

// ---------------------------------------------------- greedy simulation

/// One rank's simulation cursor.
struct RankState {
  std::size_t pc = 0;
  /// Open irecv request -> channel it will consume from.
  std::map<int, ChannelKey> open_reqs;
};

void check_progress(const Schedule& s, std::vector<Violation>* out) {
  const int p = s.size();
  std::vector<RankState> st(static_cast<std::size_t>(p));
  // In-flight message byte counts per channel, FIFO order.
  std::map<ChannelKey, std::vector<std::uint64_t>> queues;
  std::map<ChannelKey, std::size_t> heads;  // consumed prefix per queue

  const auto available = [&](const ChannelKey& key) {
    const auto it = queues.find(key);
    return it != queues.end() && heads[key] < it->second.size();
  };
  const auto consume = [&](const ChannelKey& key) { ++heads[key]; };

  // Try to execute rank r's next event; true when it made progress.
  const auto step = [&](int r) {
    RankState& rank = st[static_cast<std::size_t>(r)];
    const CommScript& script = s.ranks[static_cast<std::size_t>(r)];
    if (rank.pc >= script.events().size()) return false;
    const CommEvent& e = script.events()[rank.pc];
    switch (e.kind) {
      case CommEvent::Kind::Send:
        queues[{r, e.peer, e.tag}].push_back(e.bytes);
        break;
      case CommEvent::Kind::Recv: {
        const ChannelKey key{e.peer, r, e.tag};
        if (!available(key)) return false;
        consume(key);
        break;
      }
      case CommEvent::Kind::IrecvPost:
        // Registration only; the message is consumed at the wait. A
        // malformed double-post was already reported by the discipline
        // pass — the simulation keeps the latest and carries on.
        rank.open_reqs[e.req] = {e.peer, r, e.tag};
        break;
      case CommEvent::Kind::Wait: {
        const auto it = rank.open_reqs.find(e.req);
        if (it == rank.open_reqs.end()) break;  // reported as BadWait
        if (!available(it->second)) return false;
        consume(it->second);
        rank.open_reqs.erase(it);
        break;
      }
      case CommEvent::Kind::WaitAll: {
        // wait_any consumes completions as they arrive, but consuming a
        // buffered message has no effect on any other rank's
        // enabledness, so "block until every channel has one" reaches
        // the same states beyond this event.
        for (const int req : e.reqs) {
          const auto it = rank.open_reqs.find(req);
          if (it != rank.open_reqs.end() && !available(it->second))
            return false;
        }
        for (const int req : e.reqs) {
          const auto it = rank.open_reqs.find(req);
          if (it == rank.open_reqs.end()) continue;
          consume(it->second);
          rank.open_reqs.erase(it);
        }
        break;
      }
    }
    ++rank.pc;
    return true;
  };

  for (;;) {
    bool progressed = false;
    for (int r = 0; r < p; ++r) {
      while (step(r)) progressed = true;
    }
    if (!progressed) break;
  }

  // Fully drained: every rank ran its script to the end.
  std::vector<int> stuck;
  for (int r = 0; r < p; ++r) {
    if (st[static_cast<std::size_t>(r)].pc <
        s.ranks[static_cast<std::size_t>(r)].events().size()) {
      stuck.push_back(r);
    }
  }
  if (stuck.empty()) return;

  // Stalled. Build the wait-for graph: each stuck rank points at the
  // source ranks of the empty channels its blocking event needs.
  const auto blockers = [&](int r) {
    std::vector<ChannelKey> needs;
    const RankState& rank = st[static_cast<std::size_t>(r)];
    const CommEvent& e =
        s.ranks[static_cast<std::size_t>(r)].events()[rank.pc];
    switch (e.kind) {
      case CommEvent::Kind::Recv:
        needs.push_back({e.peer, r, e.tag});
        break;
      case CommEvent::Kind::Wait: {
        const auto it = rank.open_reqs.find(e.req);
        if (it != rank.open_reqs.end()) needs.push_back(it->second);
        break;
      }
      case CommEvent::Kind::WaitAll:
        for (const int req : e.reqs) {
          const auto it = rank.open_reqs.find(req);
          if (it != rank.open_reqs.end() && !available(it->second))
            needs.push_back(it->second);
        }
        break;
      default:
        break;
    }
    return needs;
  };

  Violation v;
  v.kind = Violation::Kind::Deadlock;
  std::vector<int> cycle_hint;
  for (const int r : stuck) {
    for (const ChannelKey& key : blockers(r)) {
      const int src = std::get<0>(key);
      const bool src_finished =
          std::find(stuck.begin(), stuck.end(), src) == stuck.end();
      v.trace.push_back("rank " + std::to_string(r) + " blocked on " +
                        channel_str(key) +
                        (src_finished ? " — source rank has FINISHED its "
                                        "script (dropped send)"
                                      : " — source rank is itself blocked"));
      if (!src_finished) cycle_hint.push_back(src);
    }
    trace_rank(s.ranks[static_cast<std::size_t>(r)],
               st[static_cast<std::size_t>(r)].pc, &v.trace);
  }
  v.message =
      std::to_string(stuck.size()) + " of " + std::to_string(p) +
      " ranks cannot run to completion" +
      (cycle_hint.empty() ? " (stalled on messages never sent)"
                          : " (cyclic wait-for)");
  out->push_back(std::move(v));
}

// ------------------------------------------- failure-space: matching

/// Match-completeness under a single-rank kill. The victim contributes
/// only its pre-kill events; channels touching it get the degraded
/// contract (prefix-exact, dead-resolvable tails), survivor<->survivor
/// channels keep the byte-exact one.
void check_fault_matching(const Schedule& s, const FaultScenario& f,
                          std::vector<Violation>* out) {
  struct RecvEntry {
    std::uint64_t bytes;
    int rank;
    std::size_t pc;
    bool bounded;
  };
  std::map<ChannelKey, std::vector<SeqEntry>> sends;
  std::map<ChannelKey, std::vector<RecvEntry>> recvs;
  for (const CommScript& script : s.ranks) {
    const std::size_t limit =
        rank_limit(s, script.rank(), f.victim, f.kill_step);
    for (std::size_t i = 0; i < limit; ++i) {
      const CommEvent& e = script.events()[i];
      switch (e.kind) {
        case CommEvent::Kind::Send:
          PARSVD_REQUIRE(e.peer >= 0 && e.peer < s.size(),
                         "fault checker: send peer out of range");
          sends[{script.rank(), e.peer, e.tag}].push_back(
              {e.bytes, script.rank(), i});
          break;
        case CommEvent::Kind::Recv:
        case CommEvent::Kind::IrecvPost:
          PARSVD_REQUIRE(e.peer >= 0 && e.peer < s.size(),
                         "fault checker: recv peer out of range");
          recvs[{e.peer, script.rank(), e.tag}].push_back(
              {e.bytes, script.rank(), i,
               e.kind == CommEvent::Kind::Recv && e.bounded});
          break;
        case CommEvent::Kind::Wait:
        case CommEvent::Kind::WaitAll:
          break;
      }
    }
  }

  std::set<ChannelKey> channels;
  for (const auto& [key, seq] : sends) channels.insert(key);
  for (const auto& [key, seq] : recvs) channels.insert(key);

  for (const ChannelKey& key : channels) {
    const int src = std::get<0>(key);
    const int dst = std::get<1>(key);
    const std::vector<SeqEntry>& sent = sends[key];
    const std::vector<RecvEntry>& received = recvs[key];
    const std::size_t common = std::min(sent.size(), received.size());
    // The executed prefix was consumed for real in every admissible
    // execution — byte-exact regardless of who dies later.
    for (std::size_t i = 0; i < common; ++i) {
      if (sent[i].bytes == received[i].bytes ||
          sent[i].bytes == kAnyBytes || received[i].bytes == kAnyBytes) {
        continue;
      }
      Violation v;
      v.kind = Violation::Kind::ByteMismatch;
      v.message = "message " + std::to_string(i) + " on " + channel_str(key) +
                  ": sender posts " + bytes_str(sent[i].bytes) +
                  ", receiver expects " + bytes_str(received[i].bytes);
      trace_rank(s.ranks[static_cast<std::size_t>(sent[i].rank)], sent[i].pc,
                 &v.trace);
      trace_rank(s.ranks[static_cast<std::size_t>(received[i].rank)],
                 received[i].pc, &v.trace);
      out->push_back(std::move(v));
    }
    for (std::size_t i = common; i < sent.size(); ++i) {
      if (dst == f.victim) continue;  // lands in the dead mailbox — dropped
      Violation v;
      v.kind = Violation::Kind::UnmatchedSend;
      v.message = "send " + std::to_string(i) + " on " + channel_str(key) +
                  " (" + bytes_str(sent[i].bytes) + ") " +
                  (src == f.victim
                       ? "was posted by the victim pre-kill but no survivor "
                         "ever consumes it"
                       : "has no matching receive among the survivors");
      trace_rank(s.ranks[static_cast<std::size_t>(sent[i].rank)], sent[i].pc,
                 &v.trace);
      out->push_back(std::move(v));
    }
    for (std::size_t i = common; i < received.size(); ++i) {
      if (src == f.victim && received[i].bounded) continue;  // dead-resolves
      Violation v;
      if (src == f.victim) {
        v.kind = Violation::Kind::OrphanedWait;
        v.message = "receive " + std::to_string(i) + " on " +
                    channel_str(key) + " is a naked wait on rank " +
                    std::to_string(f.victim) + ", which dies at step " +
                    std::to_string(f.kill_step) +
                    " without posting it — the wait can never complete";
      } else {
        v.kind = Violation::Kind::UnmatchedRecv;
        v.message =
            "receive " + std::to_string(i) + " on " + channel_str(key) + " (" +
            bytes_str(received[i].bytes) + ") has no matching send" +
            (dst == f.victim ? " — the victim cannot reach its kill point"
                             : " among the survivors");
      }
      trace_rank(s.ranks[static_cast<std::size_t>(received[i].rank)],
                 received[i].pc, &v.trace);
      if (src == f.victim) {
        trace_rank(s.ranks[static_cast<std::size_t>(f.victim)], f.kill_step,
                   &v.trace);
      }
      out->push_back(std::move(v));
    }
  }
}

// ------------------------------------------- failure-space: progress

/// Greedy simulation of the post-kill execution: the victim runs its
/// pre-kill prefix then halts; a bounded receive on the halted victim's
/// channel resolves without consuming once nothing further can arrive.
/// Confluence still holds — dead-resolution only fires when the channel
/// is provably dry forever, so it never races a real delivery.
void check_fault_progress(const Schedule& s, const FaultScenario& f,
                          std::vector<Violation>* out) {
  const int p = s.size();
  std::vector<std::size_t> limits(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    limits[static_cast<std::size_t>(r)] = rank_limit(s, r, f.victim,
                                                     f.kill_step);
  }
  std::vector<RankState> st(static_cast<std::size_t>(p));
  std::map<ChannelKey, std::vector<std::uint64_t>> queues;
  std::map<ChannelKey, std::size_t> heads;

  const auto available = [&](const ChannelKey& key) {
    const auto it = queues.find(key);
    return it != queues.end() && heads[key] < it->second.size();
  };
  const auto consume = [&](const ChannelKey& key) { ++heads[key]; };
  const auto victim_halted = [&] {
    return st[static_cast<std::size_t>(f.victim)].pc >=
           limits[static_cast<std::size_t>(f.victim)];
  };

  const auto step = [&](int r) {
    RankState& rank = st[static_cast<std::size_t>(r)];
    const CommScript& script = s.ranks[static_cast<std::size_t>(r)];
    if (rank.pc >= limits[static_cast<std::size_t>(r)]) return false;
    const CommEvent& e = script.events()[rank.pc];
    switch (e.kind) {
      case CommEvent::Kind::Send:
        queues[{r, e.peer, e.tag}].push_back(e.bytes);
        break;
      case CommEvent::Kind::Recv: {
        const ChannelKey key{e.peer, r, e.tag};
        if (!available(key)) {
          // Dead-resolution: once the victim has halted, every message
          // it will ever post is already queued; an empty channel from
          // it stays empty, so a bounded wait completes without a
          // message (the RankDeadError -> exclusion path).
          if (!(e.bounded && e.peer == f.victim && r != f.victim &&
                victim_halted())) {
            return false;
          }
          break;
        }
        consume(key);
        break;
      }
      case CommEvent::Kind::IrecvPost:
        rank.open_reqs[e.req] = {e.peer, r, e.tag};
        break;
      case CommEvent::Kind::Wait: {
        const auto it = rank.open_reqs.find(e.req);
        if (it == rank.open_reqs.end()) break;  // reported as BadWait
        if (!available(it->second)) return false;
        consume(it->second);
        rank.open_reqs.erase(it);
        break;
      }
      case CommEvent::Kind::WaitAll: {
        for (const int req : e.reqs) {
          const auto it = rank.open_reqs.find(req);
          if (it != rank.open_reqs.end() && !available(it->second))
            return false;
        }
        for (const int req : e.reqs) {
          const auto it = rank.open_reqs.find(req);
          if (it == rank.open_reqs.end()) continue;
          consume(it->second);
          rank.open_reqs.erase(it);
        }
        break;
      }
    }
    ++rank.pc;
    return true;
  };

  for (;;) {
    bool progressed = false;
    for (int r = 0; r < p; ++r) {
      while (step(r)) progressed = true;
    }
    if (!progressed) break;
  }

  std::vector<int> stuck;
  for (int r = 0; r < p; ++r) {
    if (st[static_cast<std::size_t>(r)].pc < limits[static_cast<std::size_t>(r)])
      stuck.push_back(r);
  }
  if (stuck.empty()) return;

  const auto blockers = [&](int r) {
    std::vector<ChannelKey> needs;
    const RankState& rank = st[static_cast<std::size_t>(r)];
    const CommEvent& e =
        s.ranks[static_cast<std::size_t>(r)].events()[rank.pc];
    switch (e.kind) {
      case CommEvent::Kind::Recv:
        needs.push_back({e.peer, r, e.tag});
        break;
      case CommEvent::Kind::Wait: {
        const auto it = rank.open_reqs.find(e.req);
        if (it != rank.open_reqs.end()) needs.push_back(it->second);
        break;
      }
      case CommEvent::Kind::WaitAll:
        for (const int req : e.reqs) {
          const auto it = rank.open_reqs.find(req);
          if (it != rank.open_reqs.end() && !available(it->second))
            needs.push_back(it->second);
        }
        break;
      default:
        break;
    }
    return needs;
  };

  // Split the stuck ranks: a rank blocked SOLELY on the halted victim's
  // dry channels holds an orphaned naked wait (the dedicated defect
  // class); anything else is an ordinary deadlock among survivors.
  std::vector<int> orphaned;
  std::vector<int> deadlocked;
  for (const int r : stuck) {
    const std::vector<ChannelKey> needs = blockers(r);
    const bool all_victim =
        r != f.victim && !needs.empty() && victim_halted() &&
        std::all_of(needs.begin(), needs.end(), [&](const ChannelKey& key) {
          return std::get<0>(key) == f.victim;
        });
    (all_victim ? orphaned : deadlocked).push_back(r);
  }

  for (const int r : orphaned) {
    Violation v;
    v.kind = Violation::Kind::OrphanedWait;
    v.message = "rank " + std::to_string(r) +
                " blocks forever on rank " + std::to_string(f.victim) +
                ", which died at step " + std::to_string(f.kill_step) +
                " — the wait is not death-bounded, so recovery never runs";
    trace_rank(s.ranks[static_cast<std::size_t>(r)],
               st[static_cast<std::size_t>(r)].pc, &v.trace);
    trace_rank(s.ranks[static_cast<std::size_t>(f.victim)], f.kill_step,
               &v.trace);
    out->push_back(std::move(v));
  }
  if (deadlocked.empty()) return;

  Violation v;
  v.kind = Violation::Kind::Deadlock;
  bool victim_stuck = false;
  for (const int r : deadlocked) {
    if (r == f.victim) victim_stuck = true;
    for (const ChannelKey& key : blockers(r)) {
      const int src = std::get<0>(key);
      const bool src_finished =
          std::find(stuck.begin(), stuck.end(), src) == stuck.end();
      v.trace.push_back("rank " + std::to_string(r) + " blocked on " +
                        channel_str(key) +
                        (src_finished ? " — source rank has FINISHED its "
                                        "script (dropped send)"
                                      : " — source rank is itself blocked"));
    }
    trace_rank(s.ranks[static_cast<std::size_t>(r)],
               st[static_cast<std::size_t>(r)].pc, &v.trace);
  }
  v.message = std::to_string(deadlocked.size()) + " of " + std::to_string(p) +
              " ranks cannot run to completion under the kill" +
              (victim_stuck ? " (the victim cannot even reach its kill point)"
                            : "");
  out->push_back(std::move(v));
}

}  // namespace

bool tag_registered(int tag) {
  if (tags::is_group_scoped(tag)) {
    // A scoped wire tag is registered iff it decodes to a valid group id
    // and a base tag that is registered in the group-LOCAL tag space:
    // the world rules below, plus kBarrier (the message-based group
    // barrier, which never appears unscoped — the world barrier is the
    // context's central rendezvous, not wire traffic), minus user tags
    // at or above kGroupUserLimit (they don't fit in one band).
    const int gid = tags::scoped_group(tag);
    if (gid < 1 || gid > tags::kMaxGroups) return false;
    const int base = tags::unscoped(tag);
    if (base >= tags::kGroupUserLimit) return false;
    return base == tags::kBarrier || tag_registered(base);
  }
  if (tag >= tags::kReduce && tag <= tags::kBcast) return true;
  if (tag >= tags::kTsqrDownBase &&
      tag < tags::kTsqrDownBase + tags::kRangeWidth)
    return true;
  return tag >= tags::kUserBase;
}

const char* to_string(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::UnregisteredTag:
      return "unregistered-tag";
    case Violation::Kind::UnmatchedSend:
      return "unmatched-send";
    case Violation::Kind::UnmatchedRecv:
      return "unmatched-recv";
    case Violation::Kind::ByteMismatch:
      return "byte-mismatch";
    case Violation::Kind::ChannelOverlap:
      return "channel-overlap";
    case Violation::Kind::BadWait:
      return "bad-wait";
    case Violation::Kind::Deadlock:
      return "deadlock";
    case Violation::Kind::OrphanedWait:
      return "orphaned-wait";
  }
  return "?";
}

std::string CheckReport::to_string() const {
  if (ok()) {
    return "PASS " + schedule + " (" + std::to_string(events_checked) +
           " events)";
  }
  std::string out = "FAIL " + schedule + " — " +
                    std::to_string(violations.size()) + " violation(s)\n";
  for (const Violation& v : violations) {
    out += "  [" + std::string(verify::to_string(v.kind)) + "] " + v.message +
           "\n";
    for (const std::string& line : v.trace) {
      out += "    " + line + "\n";
    }
  }
  return out;
}

CheckReport check_schedule(const Schedule& s) {
  CheckReport report;
  report.schedule = s.name;
  report.events_checked = s.total_events();
  check_tags(s, &report.violations);
  check_matching(s, &report.violations);
  check_discipline(s, &report.violations);
  check_progress(s, &report.violations);
  return report;
}

CheckReport check_fault_schedule(const Schedule& s, const FaultScenario& f) {
  PARSVD_REQUIRE(f.victim >= 0 && f.victim < s.size(),
                 "fault checker: victim out of range");
  CheckReport report;
  report.schedule = s.name + f.suffix();
  // Effective events: survivors' full scripts + the victim's pre-kill
  // prefix (what the degraded execution actually runs).
  report.events_checked = 0;
  for (const CommScript& script : s.ranks) {
    report.events_checked += rank_limit(s, script.rank(), f.victim,
                                        f.kill_step);
  }
  check_tags(s, &report.violations);
  check_fault_matching(s, f, &report.violations);
  check_discipline(s, &report.violations, f.victim, f.kill_step);
  check_fault_progress(s, f, &report.violations);
  return report;
}

}  // namespace parsvd::verify
