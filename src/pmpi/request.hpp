// Request: the handle returned by the non-blocking point-to-point API
// (Communicator::isend / irecv).
//
// Lifecycle:
//   * isend posts the message immediately (buffered send, like
//     MPI_Ibsend with an unbounded buffer): the returned request is
//     already complete. Delay faults, payload caps and kill faults
//     fire at post time, exactly as for a blocking send.
//   * irecv registers interest in a (src, tag) channel and advances the
//     owner's fault-plan operation counter ONCE, at post time — so a
//     fault schedule aimed at op N stays deterministic no matter how
//     often the request is polled afterwards.
//   * test() is a non-blocking probe: it consumes the message if one is
//     deliverable (in the same per-channel order as a blocking receive,
//     so a delayed head holds back its successors) and surfaces
//     dead-source and aborted-job conditions as the same typed errors.
//   * wait() blocks with the channel-order and watchdog-timeout
//     semantics of Communicator::recv.
//   * a pending receive that is destroyed (or cancel()ed) is abandoned:
//     a message that later arrives simply stays queued for a future
//     receive on the same channel.
//
// Completion ordering across several requests comes from the free
// functions wait_any / wait_all below.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "linalg/matrix.hpp"
#include "support/error.hpp"

namespace parsvd::pmpi {

class Context;
class Communicator;

class Request {
 public:
  /// Empty (invalid) request; assign from isend/irecv to arm it.
  Request() = default;
  Request(Request&& other) noexcept;
  Request& operator=(Request&& other) noexcept;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;
  ~Request();

  bool valid() const { return ctx_ != nullptr; }
  bool done() const { return done_; }
  /// Peer rank: the source of a receive, the destination of a send.
  int peer() const { return peer_; }
  int tag() const { return tag_; }

  /// Non-blocking completion probe. Returns true once complete; throws
  /// RankDeadError / JobAbortedError when the message can no longer
  /// arrive. Never advances the fault-plan op counter (that happened at
  /// post time).
  bool test();

  /// Block until complete, with the blocking receive's timeout and
  /// dead-source semantics.
  void wait();

  /// Abandon a pending receive. The request becomes invalid; a matching
  /// message that arrives later stays in the mailbox for a future
  /// receive on the same channel.
  void cancel();

  /// Move the completed receive's payload out (each form may be called
  /// once; requires done()).
  std::vector<std::byte> take_bytes();
  Matrix take_matrix();
  template <typename T>
  std::vector<T> take() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> payload = take_bytes();
    PARSVD_REQUIRE(payload.size() % sizeof(T) == 0,
                   "received payload not a whole number of elements");
    std::vector<T> out(payload.size() / sizeof(T));
    std::memcpy(out.data(), payload.data(), payload.size());
    return out;
  }

 private:
  friend class Communicator;
  friend std::size_t wait_any(std::span<Request> requests);
  friend void wait_all(std::span<Request> requests);

  enum class Kind { Send, Recv };

  Request(std::shared_ptr<Context> ctx, Kind kind, int owner, int peer,
          int tag, bool done);

  /// Drop the debug-mode channel registration (idempotent).
  void unregister();

  std::shared_ptr<Context> ctx_;
  Kind kind_ = Kind::Send;
  int owner_ = -1;
  int peer_ = -1;
  int tag_ = 0;
  bool done_ = false;
  bool taken_ = false;
  bool registered_ = false;
  std::vector<std::byte> payload_;
};

/// Block until one request in `requests` completes and return its index.
/// Already-complete, not-yet-taken receives are reported first (in index
/// order); buffered sends and consumed receives are skipped, and invalid
/// (moved-from / cancelled) slots are ignored. All pending receives must
/// belong to the same rank of the same context. Typical use is a
/// completion loop: wait_any, take the payload, repeat.
std::size_t wait_any(std::span<Request> requests);

/// Block until every valid request in `requests` is complete.
void wait_all(std::span<Request> requests);

}  // namespace parsvd::pmpi
