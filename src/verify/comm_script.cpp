#include "verify/comm_script.hpp"

#include "support/error.hpp"

namespace parsvd::verify {

const char* to_string(CommEvent::Kind kind) {
  switch (kind) {
    case CommEvent::Kind::Send:
      return "Send";
    case CommEvent::Kind::Recv:
      return "Recv";
    case CommEvent::Kind::IrecvPost:
      return "IrecvPost";
    case CommEvent::Kind::Wait:
      return "Wait";
    case CommEvent::Kind::WaitAll:
      return "WaitAll";
  }
  return "?";
}

std::string to_string(const CommEvent& e) {
  std::string out(to_string(e.kind));
  out += '(';
  switch (e.kind) {
    case CommEvent::Kind::Send:
      out += "dest=" + std::to_string(e.peer);
      break;
    case CommEvent::Kind::Recv:
    case CommEvent::Kind::IrecvPost:
      out += "src=" + std::to_string(e.peer);
      break;
    case CommEvent::Kind::Wait:
      out += "req=" + std::to_string(e.req);
      break;
    case CommEvent::Kind::WaitAll: {
      out += "reqs={";
      for (std::size_t i = 0; i < e.reqs.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(e.reqs[i]);
      }
      out += '}';
      break;
    }
  }
  if (e.kind == CommEvent::Kind::Send || e.kind == CommEvent::Kind::Recv ||
      e.kind == CommEvent::Kind::IrecvPost) {
    out += ", tag=" + std::to_string(e.tag);
    out += e.bytes == kAnyBytes ? ", ? B" : ", " + std::to_string(e.bytes) + " B";
  }
  if (e.bounded) out += ", bounded";
  if (e.op >= 0) out += ", op " + std::to_string(e.op);
  out += ')';
  if (!e.note.empty()) {
    out += "  // ";
    out += e.note;
  }
  return out;
}

void CommScript::send(int dest, int tag, std::uint64_t bytes,
                      std::string note) {
  CommEvent e;
  e.kind = CommEvent::Kind::Send;
  e.peer = dest;
  e.tag = tag;
  e.bytes = bytes;
  e.note = std::move(note);
  events_.push_back(std::move(e));
}

void CommScript::recv(int src, int tag, std::uint64_t bytes, std::string note) {
  CommEvent e;
  e.kind = CommEvent::Kind::Recv;
  e.peer = src;
  e.tag = tag;
  e.bytes = bytes;
  e.note = std::move(note);
  events_.push_back(std::move(e));
}

void CommScript::recv_bounded(int src, int tag, std::uint64_t bytes,
                              std::string note) {
  CommEvent e;
  e.kind = CommEvent::Kind::Recv;
  e.peer = src;
  e.tag = tag;
  e.bytes = bytes;
  e.bounded = true;
  e.note = std::move(note);
  events_.push_back(std::move(e));
}

int CommScript::irecv(int src, int tag, std::uint64_t bytes, std::string note) {
  CommEvent e;
  e.kind = CommEvent::Kind::IrecvPost;
  e.peer = src;
  e.tag = tag;
  e.bytes = bytes;
  e.req = next_req_++;
  e.note = std::move(note);
  events_.push_back(std::move(e));
  return events_.back().req;
}

void CommScript::wait(int req, std::string note) {
  PARSVD_REQUIRE(req >= 0 && req < next_req_, "wait on unknown request id");
  CommEvent e;
  e.kind = CommEvent::Kind::Wait;
  e.req = req;
  e.note = std::move(note);
  events_.push_back(std::move(e));
}

void CommScript::wait_all(std::vector<int> reqs, std::string note) {
  for (const int req : reqs) {
    PARSVD_REQUIRE(req >= 0 && req < next_req_, "wait_all on unknown request id");
  }
  CommEvent e;
  e.kind = CommEvent::Kind::WaitAll;
  e.reqs = std::move(reqs);
  e.note = std::move(note);
  events_.push_back(std::move(e));
}

std::string FaultScenario::suffix() const {
  return " + kill(victim=" + std::to_string(victim) +
         ", step=" + std::to_string(kill_step) + ")";
}

Schedule make_schedule(std::string name, int p) {
  PARSVD_REQUIRE(p >= 1, "schedule needs at least one rank");
  Schedule s;
  s.name = std::move(name);
  s.ranks.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) s.ranks.emplace_back(r);
  return s;
}

}  // namespace parsvd::verify
