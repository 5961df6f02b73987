#include "shard/lane.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rvss::shard {
namespace {

// Both lane-refusal errors are kUnavailable, not kInvalidArgument: the
// request itself was fine — the fleet's capacity or topology failed it,
// and a retry (later, or after re-routing) may well succeed.
Error StoppedError() {
  return Error{ErrorKind::kUnavailable,
               "worker was removed while the request was pending"};
}

Error ShedError(std::size_t depth) {
  return Error{ErrorKind::kUnavailable,
               "worker lane queue is full (" + std::to_string(depth) +
                   " requests queued); load shed, retry later"};
}

}  // namespace

WorkerLane::WorkerLane(std::shared_ptr<WorkerTransport> transport,
                       std::size_t maxQueueDepth)
    : transport_(std::move(transport)), maxQueueDepth_(maxQueueDepth) {}

WorkerLane::Ticket WorkerLane::Join() {
  Ticket ticket;
  ticket.joinedNs_ = obs::MonotonicNowNs();
  MutexLock lock(mutex_);
  if (stopped_) {
    ticket.refusal_ = StoppedError();
    return ticket;
  }
  if (busy_) {
    if (maxQueueDepth_ != 0 && line_.size() >= maxQueueDepth_) {
      obs::Registry::Instance().GetCounter("shard.lane.shed").Increment();
      ticket.refusal_ = ShedError(line_.size());
      return ticket;
    }
    ticket.waiter_ = std::make_unique<Waiter>();
    line_.push_back(ticket.waiter_.get());
    queueDepth_.store(line_.size(), std::memory_order_relaxed);
  } else {
    busy_ = true;
  }
  ticket.lane_ = shared_from_this();
  return ticket;
}

void WorkerLane::Stop() {
  MutexLock lock(mutex_);
  stopped_ = true;
  for (Waiter* waiter : line_) waiter->turn.NotifyOne();
}

WorkerLane::Stats WorkerLane::stats() const {
  Stats stats;
  stats.queueDepth = queueDepth_.load(std::memory_order_relaxed);
  stats.inFlight = inFlight_.load(std::memory_order_relaxed);
  stats.lastDispatchMs =
      static_cast<double>(lastDispatchNs_.load(std::memory_order_relaxed)) /
      1e6;
  return stats;
}

void WorkerLane::Leave(Waiter* waiter) {
  MutexLock lock(mutex_);
  if (waiter != nullptr && !waiter->served) {
    line_.erase(std::find(line_.begin(), line_.end(), waiter));
  } else if (line_.empty()) {
    busy_ = false;
  } else {
    // Notify under the mutex: the next holder may destroy its Waiter as
    // soon as it sees `served`, which it cannot read before we unlock.
    line_.front()->served = true;
    line_.front()->turn.NotifyOne();
    line_.pop_front();
  }
  queueDepth_.store(line_.size(), std::memory_order_relaxed);
}

Status WorkerLane::AwaitTurn(Waiter* waiter) {
  MutexLock lock(mutex_);
  while (waiter != nullptr && !waiter->served && !stopped_) {
    waiter->turn.Wait(mutex_);
  }
  if (stopped_) return StoppedError();
  return Status::Ok();
}

WorkerLane::Ticket& WorkerLane::Ticket::operator=(Ticket&& other) noexcept {
  if (this == &other) return *this;
  if (lane_ != nullptr) lane_->Leave(waiter_.get());
  lane_ = std::move(other.lane_);
  waiter_ = std::move(other.waiter_);
  joinedNs_ = std::exchange(other.joinedNs_, 0);
  refusal_ = std::exchange(other.refusal_, Status::Ok());
  return *this;
}

WorkerLane::Ticket::~Ticket() {
  if (lane_ != nullptr) lane_->Leave(waiter_.get());
}

Status WorkerLane::Ticket::Wait() {
  assert(valid());
  if (lane_ == nullptr) return refusal_;
  RVSS_RETURN_IF_ERROR(lane_->AwaitTurn(waiter_.get()));
  if (joinedNs_ != 0) {
    // One registration per metric name for the whole process; every lane
    // shares it, so the histogram aggregates across the fleet's lanes.
    static obs::Histogram& queueWaitUs =
        obs::Registry::Instance().GetHistogram("shard.lane.queueWaitUs");
    queueWaitUs.Record((obs::MonotonicNowNs() - joinedNs_) / 1000);
    joinedNs_ = 0;
  }
  return Status::Ok();
}

Result<json::Json> WorkerLane::Ticket::Call(const json::Json& request) {
  static obs::Histogram& dispatchUs =
      obs::Registry::Instance().GetHistogram("shard.lane.dispatchUs");
  static obs::Counter& requests =
      obs::Registry::Instance().GetCounter("shard.lane.requests");
  RVSS_RETURN_IF_ERROR(Wait());
  WorkerLane& lane = *lane_;
  const std::uint64_t startNs = obs::MonotonicNowNs();
  lane.inFlight_.store(true, std::memory_order_relaxed);
  Result<json::Json> response = lane.transport_->Call(request);
  const std::uint64_t elapsedNs = obs::MonotonicNowNs() - startNs;
  lane.inFlight_.store(false, std::memory_order_relaxed);
  dispatchUs.Record(elapsedNs / 1000);
  requests.Increment();
  lane.lastDispatchNs_.store(elapsedNs, std::memory_order_relaxed);
  return response;
}

}  // namespace rvss::shard
