// Dispatch lanes: a first-in-first-out turn on each worker's transport.
//
// A worker has one transport connection, and a session's requests must
// reach its worker in order, while N workers simulate in parallel. A
// WorkerLane gives every worker a line that callers join: the router
// hands out a Ticket under its fleet mutex, in the same critical section
// that checks the worker's placement gate, and the thread holding the
// ticket waits for its turn and runs WorkerTransport::Call itself. The
// ticket keeps the turn until it is destroyed (or move-assigned over),
// which passes the turn to the next ticket in line — waking that holder
// alone. There is no lane thread: every caller of the router is already
// a thread that blocks for its reply. Concurrency therefore lives
// *between* lanes while ordering holds *within* one: tickets are served
// in join order, so a session's requests run in the order their
// dispatching threads passed the fleet mutex.
//
// Owning a worker: a client request drops its ticket as soon as it has
// read its reply and recorded any placement change. A fleet operation
// that moves sessions (drain, rebalance, removeWorker) takes the worker
// over the same way: it closes the router's placement gate and joins the
// lane in one fleet-mutex section, waits for its turn, and makes every
// call to the worker through that one ticket. Everything that joined
// ahead of it has then finished, and nothing joins behind the closed
// gate, until the operation drops the ticket and reopens the gate.
//
// Deadlock freedom rests on four rules (router.h states them too):
//   * a thread that holds a turn may take the router's fleet mutex;
//   * the fleet mutex is never held while waiting for a turn;
//   * only a fleet operation, serialized on the router's fleet-op mutex,
//     waits for a second turn while it holds one (the destination import
//     and the peer probes);
//   * a fleet operation never joins the lane it owns.
//
// Stop() ends the lane for good (removeWorker): tickets still waiting,
// every later Join and every later call of the holder are answered with
// an error, never dropped.
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
  /// while the lane is live. maxQueueDepth bounds the number of *waiting*
  /// tickets (the one holding the turn excluded): beyond it, Join
  /// load-sheds. 0 = unbounded. Lanes must be owned by a shared_ptr.
  explicit WorkerLane(std::shared_ptr<WorkerTransport> transport,
                      std::size_t maxQueueDepth = 0);

  WorkerLane(const WorkerLane&) = delete;
  WorkerLane& operator=(const WorkerLane&) = delete;

  /// Takes a place at the end of the line; never waits for the turn. On
  /// a stopped lane — or when the line is at its depth cap — the ticket
  /// is refused: its Wait and Call answer at once with a retryable
  /// kUnavailable Error (the latter is a load shed: try again later).
  /// `pastCap` joins a full line anyway: a fleet operation's probes do,
  /// so a busy worker is not taken for a dead one. They are serialized
  /// on the router's fleet-op mutex, so at most one waits past the cap.
  Ticket Join(bool pastCap = false) EXCLUDES(mutex_);

  /// Refuses every waiting and every later ticket, and every later call
  /// of the holder of the turn; a call already in the transport
  /// finishes. Idempotent.
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

  /// Blocks until `waiter` holds the turn (nullptr: it did from Join).
  Status AwaitTurn(Waiter* waiter) EXCLUDES(mutex_);
  /// Gives up `waiter`'s place: leaves the line if its turn has not come,
  /// else passes the turn on. nullptr means the turn was free at Join.
  void Leave(Waiter* waiter) EXCLUDES(mutex_);

  const std::shared_ptr<WorkerTransport> transport_;
  const std::size_t maxQueueDepth_;
  Mutex mutex_;
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

/// One place in a lane's line, from Join until destruction (or until it
/// is move-assigned over), which gives the place up: a waiting ticket
/// leaves the line, the holder passes the turn on. Move-only.
class WorkerLane::Ticket {
 public:
  Ticket() = default;
  Ticket(Ticket&& other) noexcept { *this = std::move(other); }
  Ticket& operator=(Ticket&& other) noexcept;
  ~Ticket();

  /// True for a ticket from Join: it holds a place or a refusal.
  bool valid() const { return lane_ != nullptr || !refusal_.ok(); }

  /// Blocks until this ticket holds the turn; at once if it already
  /// does. Returns the refusal, or a stopped lane's error. Requires
  /// valid().
  Status Wait();

  /// Waits for the turn, then runs `request` over the lane's transport
  /// on the calling thread, keeping the turn. Returns exactly what the
  /// transport's Call returned: a response document, or an Error for a
  /// transport-level failure (a worker's own {status: "error"} answer is
  /// a successful call) — or Wait's error. Requires valid().
  Result<json::Json> Call(const json::Json& request);

 private:
  friend class WorkerLane;

  std::shared_ptr<WorkerLane> lane_;  ///< null when refused
  std::unique_ptr<Waiter> waiter_;    ///< null when the turn was free
  /// Join time, until the first Wait that found the turn records the
  /// queue wait; 0 after.
  std::uint64_t joinedNs_ = 0;
  Status refusal_;
};

}  // namespace rvss::shard
