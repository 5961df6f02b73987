// The shard router: one session namespace over many workers — in this
// process or behind sockets — the policy loop over PR 2's migration
// primitive and PR 4's worker transports.
//
// The router speaks the exact same JSON command API as a single SimServer
// (clients cannot tell the difference): it assigns globally unique session
// ids, places each new session on a worker via a consistent-hash ring,
// rewrites sessionId fields on the way in and out, and forwards everything
// else verbatim. It routes each command by its class in the command table
// (server/commands.h): fleet views are answered for the whole fleet, and
// the fleet operations are served here alone (docs/api.md lists both).
//
// Workers are reached through WorkerTransport (shard/transport.h): the
// in-process default behaves exactly like PR 3; SocketTransport talks to
// real worker processes. Transport failures are fail-closed: a request
// that got no response is reported as an error on that request — the
// router never guesses, never retries a maybe-executed command, and
// never silently drops a session.
//
// Concurrency model (see shard/lane.h and docs/sharding.md):
//
//   * Every worker has a dispatch lane — a first-in-first-out turn on its
//     one transport connection. Handle()/HandleRaw() are thread-safe and
//     start no thread: a session-bound command takes a ticket on the
//     owning worker's lane under the fleet mutex, and the calling thread
//     waits for its turn and runs the round trip itself. Calls run
//     concurrently *across* lanes, strictly in join order *within* one.
//     Per-session ordering follows from session→worker affinity; N
//     workers simulate in parallel.
//   * Router state (placements_, ring_, workers_, drained_, gated_) is
//     protected by one fleet mutex, held only for routing decisions and
//     bookkeeping — never while a worker round trip is in flight.
//   * A ticket keeps its lane's turn until it is destroyed. createSession
//     / importSession record their placement, and deleteSession erases
//     its own, under the fleet mutex *before* their ticket goes; every
//     request drops its ticket as soon as that bookkeeping is done.
//     Admissions therefore overlap with traffic and with each other, and
//     the placement map never lags a request that already left a lane.
//   * Fleet operations (drain/rebalance/add/remove/stats/list/metrics)
//     serialize on a separate fleet-op mutex — never held by any routing
//     path, so a slow drain stalls only other fleet operations. An
//     operation that moves a worker's sessions *takes the worker over*
//     the way a request does: in one fleet-mutex section it closes the
//     worker's placement gate (gated_) and joins its lane, then waits
//     for its turn. Everything that joined ahead of it has then finished
//     and recorded its change, so the placement map it reads is exact,
//     and because every ticket is taken under the fleet mutex after a
//     gate check, nothing joins behind it. It makes every call to the
//     worker through that ticket, then drops it and reopens the gate.
//     Commands for the gated worker's sessions block on the gate and
//     re-resolve their placement when it opens (their sessions may have
//     moved); everything aimed at other workers flows freely. An export
//     therefore always observes a session between requests, never
//     inside one, with the stall confined to the worker being
//     reorganized. At the lane's depth cap the takeover is refused like
//     any other ticket: the operation answers the retryable error and
//     moves nothing.
//   * Lock order: fleet-op mutex before fleet mutex before a lane's own
//     (leaf) mutex. Deadlock freedom between lane turns and the locks:
//       - a thread that holds a turn may take the fleet mutex;
//       - the fleet mutex is never held while waiting for a turn (nor
//         while acquiring the fleet-op mutex or calling a transport);
//       - only a fleet operation, serialized on fleetOpMutex_, waits for
//         a second turn while it holds one (the destination import and
//         the peer probes);
//       - a fleet operation never joins the lane it owns: ProbeLoads(skip).
//   * Fan-outs (listSessions, workerStats, metrics, traceDump and the
//     drain/rebalance load probes) take every ticket in one fleet-mutex
//     section, then run each on a short-lived thread, so dead workers'
//     connect timeouts overlap; the threads end before the operation
//     returns.
//
// drainWorker exports every session on the (owned) worker and imports
// each onto the least-loaded *reachable* non-drained peer, then deletes
// the source copy — the delete happens only after the destination import
// succeeded, so a failure at any point leaves the session live on its
// source worker; an unreachable destination aborts the move with the
// source intact, and a dead source worker makes every one of its
// sessions a reported failure (lost-with-error), never a silent drop.
//
// removeWorker completes elastic scale-in: mark drained, take over, run
// the drain loop, and only if every session moved off (or `force`
// accepts the loss, each lost session listed in `lost[]`) remove the
// worker's arc from the ring, shut the transport down and stop the lane
// (pending requests are answered with errors, never dropped). The
// Options::onWorkerShutdown hook then lets the process owner reap the
// worker promptly (see shard/worker.h) instead of leaving a zombie.
// addWorker is the matching scale-out: the ring grows by one arc —
// consistent hashing moves only the keys that hash into it — and new
// placements start landing there.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"
#include "json/json.h"
#include "server/api.h"
#include "shard/lane.h"
#include "shard/placement.h"
#include "shard/transport.h"

namespace rvss::shard {

class ShardRouter {
 public:
  /// Builds the transport for one worker slot. Used for every initial
  /// slot and for `addWorker` requests without an address.
  using TransportFactory =
      std::function<Result<std::shared_ptr<WorkerTransport>>(
          std::size_t worker, const server::SimServer::Limits& limits)>;

  /// rebalance moves sessions while max-load / mean-load > this.
  static constexpr double kRebalanceSkewThreshold = 1.5;

  struct Options {
    std::size_t workerCount = 4;
    /// Limits applied to every worker (a transport factory may build its
    /// own per slot instead).
    server::SimServer::Limits workerLimits;
    /// Per-worker lane queue depth cap: tickets beyond it are answered
    /// immediately with a retryable kUnavailable load-shed error instead
    /// of waiting without bound (see shard/lane.h).
    /// 0 = unbounded, the pre-gateway behavior. The cap applies to
    /// everything taking turns on the lane — including fleet-operation
    /// takeovers and probes, so a saturated fleet sheds drains too
    /// rather than deadlocking them.
    std::size_t maxLaneQueueDepth = 0;
    /// Transport constructor; default builds InProcessTransport. A
    /// factory that spawns worker processes turns the router into a real
    /// multi-process fleet (see cli --spawn-workers). A slot whose
    /// factory fails is born removed and reported in workerStats.
    TransportFactory transportFactory;
    /// Ship base-referenced delta session blobs (snapshot format v3) on
    /// drain/rebalance. Every peer decodes them: the hello handshake pins
    /// the snapshot format. Any delta import failure retries once with a
    /// full image — this flag is a wire-size optimization, never a
    /// correctness risk; disabling it restores the PR 8 full-image wire.
    bool deltaBlobs = true;
    /// Called (with the transport's address) after removeWorker shut a
    /// socket worker down, so the process owner can reap it promptly —
    /// see shard::MakeFleetReaper. Invoked under the fleet mutex.
    std::function<void(const std::string& address)> onWorkerShutdown;
  };

  explicit ShardRouter(const Options& options);

  /// Structured entry point, same contract as SimServer::Handle.
  /// Thread-safe; see the concurrency model above.
  json::Json Handle(const json::Json& request);

  /// Byte-level entry point, same contract as SimServer::HandleRaw.
  /// Thread-safe.
  std::string HandleRaw(std::string_view requestBytes, bool compress = false,
                        server::RequestTiming* timing = nullptr);

  /// Fleet slots ever created (including removed ones; their entries stay
  /// so worker indices are stable).
  std::size_t workerCount() const EXCLUDES(fleetMutex_);
  std::size_t sessionCount() const EXCLUDES(fleetMutex_);

  /// The in-process SimServer behind worker `index`, or nullptr when the
  /// slot is removed or lives behind a socket. For tests and embedders;
  /// the router does not defend against sessions created or deleted
  /// behind its back — drain treats a vanished session as a failed
  /// export and reports it. Calling into the returned server while other
  /// threads route requests to it is a data race; single-threaded tests
  /// only.
  server::SimServer* workerServer(std::size_t index) EXCLUDES(fleetMutex_);

 private:
  /// Where one global session lives.
  struct Placement {
    std::size_t worker = 0;
    std::int64_t localId = 0;
  };

  /// Per-worker load snapshot used by placement and stats.
  struct WorkerLoad {
    std::uint64_t sessions = 0;
    std::uint64_t approxBytes = 0;
  };

  /// One probe pass over the fleet: byte loads plus reachability, so
  /// drain/rebalance never pick a dead destination.
  struct FleetLoads {
    std::vector<std::uint64_t> bytes;  ///< 0 for removed/unreachable
    std::vector<bool> reachable;      ///< false for removed/unreachable
  };

  // Unless a comment says otherwise the private methods below take their
  // own (brief) fleet mutex sections and must be called *without*
  // fleetMutex_ held.

  /// One request through worker's lane: join under a brief fleet mutex
  /// section, wait for the turn unlocked. Transport failures become
  /// error JSON.
  json::Json CallViaLane(std::size_t worker, const json::Json& request)
      EXCLUDES(fleetMutex_);
  /// Runs `request` on every valid ticket, each on its own short-lived
  /// thread, so the round trips overlap. One future per ticket (invalid
  /// where the ticket is); a future joins its thread when read or
  /// destroyed.
  static std::vector<std::future<Result<json::Json>>> CallEach(
      std::vector<WorkerLane::Ticket> tickets, const json::Json& request);
  /// Takes worker `index` over for a fleet operation: closes its
  /// placement gate and joins its lane in one fleet-mutex section, then
  /// waits for the turn (the `quiesce` span). The caller makes every
  /// call to the worker through the returned ticket, then drops it and
  /// calls OpenGate. A refused ticket (depth cap) reopens the gate and
  /// returns the lane's error. Gates are only ever closed by fleet
  /// operations, hence REQUIRES(fleetOpMutex_).
  Result<WorkerLane::Ticket> TakeOver(std::size_t index)
      REQUIRES(fleetOpMutex_) EXCLUDES(fleetMutex_);
  void OpenGate(std::size_t index)
      REQUIRES(fleetOpMutex_) EXCLUDES(fleetMutex_);

  json::Json RouteSessionCommand(server::Command command,
                                 const json::Json& request)
      EXCLUDES(fleetMutex_);
  json::Json StatelessCommand(const json::Json& request)
      EXCLUDES(fleetMutex_);
  /// The fleet views and fleet operations, one handler per command.
  json::Json FleetCommand(server::Command command, const json::Json& request)
      EXCLUDES(fleetOpMutex_, fleetMutex_);
  /// The fleet metrics view: this process's obs registry (router, lanes,
  /// transports and any in-process workers) merged with every socket
  /// worker's `metrics` response — sum counters, merge histogram buckets,
  /// max gauges — plus a per-worker breakdown.
  json::Json Metrics(const json::Json& request)
      EXCLUDES(fleetOpMutex_, fleetMutex_);
  /// The router's span ring plus each socket worker's, for post-hoc "why
  /// was that drain slow" forensics.
  json::Json TraceDump() EXCLUDES(fleetOpMutex_, fleetMutex_);
  /// The per-worker half of a fleet view: sends `command` to every live
  /// socket worker and returns one entry per slot — {worker, transport}
  /// plus the answer's `field`, or unreachable and error; in-process
  /// workers are marked sharedProcess (their numbers are this process's)
  /// and removed slots removed.
  json::Json FanOutToProcesses(server::Command command,
                               std::string_view field)
      REQUIRES(fleetOpMutex_) EXCLUDES(fleetMutex_);
  /// createSession / importSession: place on the ring and forward.
  json::Json AdmitSession(const json::Json& request) EXCLUDES(fleetMutex_);
  json::Json ListSessions() EXCLUDES(fleetOpMutex_, fleetMutex_);
  json::Json WorkerStats() EXCLUDES(fleetOpMutex_, fleetMutex_);
  json::Json DrainWorker(const json::Json& request)
      EXCLUDES(fleetOpMutex_, fleetMutex_);
  json::Json OpenWorker(const json::Json& request)
      EXCLUDES(fleetOpMutex_, fleetMutex_);
  json::Json AddWorker(const json::Json& request)
      EXCLUDES(fleetOpMutex_, fleetMutex_);
  json::Json RemoveWorker(const json::Json& request)
      EXCLUDES(fleetOpMutex_, fleetMutex_);
  json::Json Rebalance() EXCLUDES(fleetOpMutex_, fleetMutex_);

  /// The drain loop shared by drainWorker and removeWorker: moves every
  /// session off `index`, which `owner` has taken over, filling the
  /// response fields. Returns the ids of sessions that could not be
  /// moved. `sourceReachable` (optional) reports whether the drained
  /// worker itself answered — false means a dead process, so callers
  /// skip graceful-shutdown round trips that could only time out.
  std::vector<std::int64_t> DrainSessions(WorkerLane::Ticket& owner,
                                          std::size_t index,
                                          json::Json& response,
                                          bool* sourceReachable = nullptr)
      EXCLUDES(fleetMutex_);

  /// Moves one session from `source`, read from the placement map while
  /// `owner` holds the source worker's turn, to `destination` (export ->
  /// import -> delete source). The source-side calls go through `owner`;
  /// the import rides the destination's lane. On failure the session
  /// remains on its source worker.
  Status MoveSession(WorkerLane::Ticket& owner, std::int64_t globalId,
                     const Placement& source, std::size_t destination,
                     std::uint64_t* movedBytes) EXCLUDES(fleetMutex_);

  /// localId -> session node of a worker's listSessions response; the
  /// pointers borrow from the response, which must outlive the index.
  static std::map<std::int64_t, const json::Json*> IndexSessions(
      const json::Json& listResponse);

  /// Parses one worker's listSessions response into a load summary —
  /// the single place that knows the response shape (ProbeLoads and
  /// WorkerStats both feed through it).
  static Result<WorkerLoad> ParseLoad(Result<json::Json> response);
  /// A ticket on every live lane except `skip`, one per slot (invalid
  /// where none was taken), for a fan-out to run with CallEach once the
  /// caller has released fleetMutex_.
  std::vector<WorkerLane::Ticket> JoinLiveLanes(
      std::size_t skip = static_cast<std::size_t>(-1)) REQUIRES(fleetMutex_);
  /// `skip` (if valid) is reported unreachable without being probed —
  /// drain uses it for the source worker it owns: joining the lane whose
  /// turn it holds would wait for itself. Locks itself.
  FleetLoads ProbeLoads(std::size_t skip = static_cast<std::size_t>(-1))
      EXCLUDES(fleetMutex_);
  /// Workers admitting new sessions (live and not drained).
  std::vector<bool> Eligible() const REQUIRES(fleetMutex_);
  bool IsLive(std::size_t worker) const REQUIRES(fleetMutex_) {
    return worker < workers_.size() && workers_[worker] != nullptr;
  }
  /// Placement for a new session id; error when every worker is drained.
  Result<std::size_t> PlaceNew(std::int64_t globalId) REQUIRES(fleetMutex_);
  /// Builds the transport for slot `worker` from the factory/default.
  /// (No lock needed; touches only options_.)
  Result<std::shared_ptr<WorkerTransport>> MakeTransport(
      std::size_t worker, const server::SimServer::Limits& limits);

  Options options_;
  /// Guards every mutable member below. No worker round trip runs or is
  /// awaited, and no lane turn is waited for, while it is held; a thread
  /// holding a turn may take it (see "Deadlock freedom" above).
  /// (Declared before fleetOpMutex_ only so ACQUIRED_BEFORE can name it;
  /// the lock *order* is fleetOpMutex_ first.)
  mutable Mutex fleetMutex_;
  /// Serializes fleet operations (drain/rebalance/add/remove/open and
  /// the stats/list/metrics/trace snapshots) against each other without
  /// blocking routing. Lock order: always before fleetMutex_ (the
  /// ACQUIRED_BEFORE below), and every mutation of the fleet topology
  /// (workers_/lanes_/ring_ growth or removal) happens with *both* held.
  /// Its holder is the only thread that may wait for a second lane turn
  /// while it holds one.
  Mutex fleetOpMutex_ ACQUIRED_BEFORE(fleetMutex_);
  HashRing ring_ GUARDED_BY(fleetMutex_);
  std::vector<std::shared_ptr<WorkerTransport>> workers_
      GUARDED_BY(fleetMutex_);
  /// Dispatch lane per slot, parallel to workers_ (nullptr when removed).
  /// Each ticket shares ownership of its lane, so a caller waiting for
  /// its turn after releasing the fleet mutex keeps the lane alive even
  /// once RemoveWorker has dropped it.
  std::vector<std::shared_ptr<WorkerLane>> lanes_ GUARDED_BY(fleetMutex_);
  std::vector<bool> drained_ GUARDED_BY(fleetMutex_);
  /// Per-worker placement gate: true while a fleet operation owns the
  /// worker (its ticket in the lane, sessions in motion). Requests aimed
  /// at a gated worker wait on gateOpen_ and re-resolve their placement.
  std::vector<bool> gated_ GUARDED_BY(fleetMutex_);
  CondVar gateOpen_;
  /// Construction errors of slots whose factory failed, by worker index.
  std::map<std::size_t, std::string> slotErrors_ GUARDED_BY(fleetMutex_);
  std::map<std::int64_t, Placement> placements_ GUARDED_BY(fleetMutex_);
  std::int64_t nextGlobalId_ GUARDED_BY(fleetMutex_) = 1;
};

}  // namespace rvss::shard
