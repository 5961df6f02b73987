// Dispatch lanes: a first-in-first-out turn on each worker's transport.
//
// A worker has one transport connection, and a session's requests must
// reach its worker in order, while N workers simulate in parallel. A
// WorkerLane gives every worker a line that callers join: the router
// hands out a Ticket under its fleet mutex, in the same critical section
// that checks the worker's placement gate, and the thread holding the
// ticket waits for its turn, runs WorkerTransport::Call itself and then
// passes the turn to the next ticket in line — waking that holder alone.
// There is no lane thread: every caller of the router is already a
// thread that blocks for its reply. Concurrency therefore lives
// *between* lanes while ordering holds *within* one: tickets are served
// in join order, so a session's requests run in the order their
// dispatching threads passed the fleet mutex.
//
// The quiesce barrier: fleet operations that move sessions (drain,
// rebalance, removeWorker) must never observe a request in flight on the
// worker they are reorganizing. Quiesce() blocks until no ticket waits
// and none holds the turn. The caller closes the router's placement gate
// for this worker *before* quiescing and keeps it closed across the
// session moves that follow: every Join happens under the router's fleet
// mutex after a gate check, so once the gate is closed no new ticket can
// join, and the lane stays idle until the gate reopens — the fleet
// operation may use the worker's transport directly meanwhile. Quiesce
// is a wait, not a mode switch; there is nothing to resume.
//
// Stop() ends the lane for good (removeWorker): tickets still waiting,
// and every later Join, are answered with an error, never dropped.
// Callers that need pending work to complete quiesce first.
//
// Lifetime: a ticket holds a shared_ptr to its lane, so a lane outlives
// the final release of every ticket even after the router drops it.
// The lane's mutex is a leaf: nothing is called while it is held, so a
// holder may take it with the router's fleet mutex held (Join) or not.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "common/sync.h"
#include "json/json.h"
#include "obs/registry.h"
#include "shard/transport.h"

namespace rvss::shard {

class WorkerLane : public std::enable_shared_from_this<WorkerLane> {
 public:
  class Ticket;

  /// The lane shares ownership of the transport; nothing else may use it
  /// while the lane is live except a fleet operation holding the quiesce
  /// barrier (see above). maxQueueDepth bounds the number of *waiting*
  /// tickets (the one holding the turn excluded): beyond it, Join
  /// load-sheds. 0 = unbounded. Lanes must be owned by a shared_ptr.
  explicit WorkerLane(std::shared_ptr<WorkerTransport> transport,
                      std::size_t maxQueueDepth = 0);

  WorkerLane(const WorkerLane&) = delete;
  WorkerLane& operator=(const WorkerLane&) = delete;

  /// Takes a place at the end of the line; never waits for the turn. On
  /// a stopped lane — or when the line is at its depth cap — the ticket
  /// is refused: its Call answers at once with a retryable kUnavailable
  /// Error (the latter is a load shed: try again later).
  Ticket Join() EXCLUDES(mutex_);

  /// Blocks until no ticket waits and none holds the turn. Only
  /// meaningful while the caller prevents new joins (by closing the
  /// router's placement gate for this worker); see the file comment.
  void Quiesce() EXCLUDES(mutex_);

  /// Refuses every waiting and every later ticket. The holder of the
  /// turn, if any, finishes its call. Idempotent.
  void Stop() EXCLUDES(mutex_);

  /// Live lane load, surfaced per worker by the router's workerStats.
  /// Always-on (independent of obs::SetEnabled): these are functional
  /// fleet stats, and the cost is a handful of relaxed atomics per call.
  struct Stats {
    std::uint64_t queueDepth = 0;   ///< tickets waiting for their turn
    bool inFlight = false;          ///< a call is in the transport now
    double lastDispatchMs = 0.0;    ///< wall time of the last call
  };
  Stats stats() const;

 private:
  /// A ticket waiting in line. Lives on the heap so a ticket can move
  /// while the line points at it; both fields are guarded by mutex_.
  struct Waiter {
    CondVar turn;         ///< signalled once, when the turn arrives
    bool served = false;  ///< the turn has been passed to this ticket
  };

  /// Waits for `ticket`'s turn and runs `request`; the ticket then
  /// gives its place up.
  Result<json::Json> Serve(const Ticket& ticket, const json::Json& request)
      EXCLUDES(mutex_);
  /// Gives up `waiter`'s place: leaves the line if its turn has not come,
  /// else passes the turn on. nullptr means the turn was free at Join.
  void Leave(Waiter* waiter) EXCLUDES(mutex_);

  const std::shared_ptr<WorkerTransport> transport_;
  const std::size_t maxQueueDepth_;
  Mutex mutex_;
  CondVar idle_;  ///< signals Quiesce() waiters
  std::deque<Waiter*> line_ GUARDED_BY(mutex_);
  /// A ticket holds the turn. Tickets wait only behind a holder, so
  /// !busy_ implies an empty line.
  bool busy_ GUARDED_BY(mutex_) = false;
  bool stopped_ GUARDED_BY(mutex_) = false;

  // Lane load, readable without the lane mutex.
  std::atomic<std::uint64_t> queueDepth_{0};
  std::atomic<bool> inFlight_{false};
  std::atomic<std::uint64_t> lastDispatchNs_{0};
};

/// One place in a lane's line, from Join until its Call (or destruction,
/// which gives the place up unused). Move-only.
class WorkerLane::Ticket {
 public:
  Ticket() = default;
  Ticket(Ticket&& other) noexcept { *this = std::move(other); }
  Ticket& operator=(Ticket&& other) noexcept;
  ~Ticket();

  /// True from Join until Call: the ticket holds a place or a refusal.
  bool valid() const { return lane_ != nullptr || !refusal_.ok(); }

  /// Waits for this ticket's turn, runs `request` over the lane's
  /// transport on the calling thread, then passes the turn on. Returns
  /// exactly what the transport's Call returned: a response document, or
  /// an Error for a transport-level failure (a worker's own
  /// {status: "error"} answer is a successful call) — or the refusal.
  /// Requires valid(); consumes the ticket.
  Result<json::Json> Call(const json::Json& request);

 private:
  friend class WorkerLane;

  std::shared_ptr<WorkerLane> lane_;  ///< null when refused or used
  std::unique_ptr<Waiter> waiter_;    ///< null when the turn was free
  std::uint64_t joinedNs_ = 0;
  Status refusal_;
};

}  // namespace rvss::shard
