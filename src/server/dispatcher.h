// The query server's actor-style mailbox: every state mutation of the
// server (submission admission, completion settlement, poll ticks, stop)
// flows through one MPSC queue drained by a run-to-completion pump.
//
// Determinism contract (the pinned bills and dispatch times of the
// dispatcher tests rest on it): Enqueue pushes the message and pumps
// IMMEDIATELY on the calling (simulation) thread — messages are handled
// at the same virtual time they were produced, in production order. A
// message enqueued from inside a handler (a finish callback that Submits
// again, a completion arriving while a poll drains) is NOT handled
// recursively: the active pump's loop picks it up after the current
// message settles.
#pragma once

#include <cstdint>
#include <utility>

#include "common/event_log.h"
#include "common/mpsc_queue.h"
#include "turbo/query_task.h"

namespace pixels {

/// One unit of dispatcher work.
struct ServerMessage {
  enum class Kind : uint8_t { kSubmit, kCompletion, kPoll };
  Kind kind = Kind::kSubmit;
  /// The submission this message concerns (kSubmit / kCompletion).
  int64_t server_id = 0;
  /// Engine-side record snapshot carried by kCompletion.
  QueryRecord completion;
};

/// Observability counters for the dispatcher (single-writer: the pump
/// thread; read via QueryServer::dispatcher_stats()).
struct DispatcherStats {
  uint64_t messages = 0;
  uint64_t submits = 0;
  uint64_t completions = 0;
  uint64_t polls = 0;
  /// Pump activations (an activation drains until empty).
  uint64_t pumps = 0;
  /// Largest number of messages one activation drained.
  uint64_t max_batch = 0;
  /// Messages enqueued from inside a handler and absorbed by the active
  /// pump instead of starting a nested one (re-entrancy made safe).
  uint64_t reentrant_enqueues = 0;
};

/// MPSC mailbox + non-reentrant pump. Push is thread-safe; Pump must only
/// run on the consumer (simulation) thread.
class ServerMailbox {
 public:
  void Push(ServerMessage msg) { queue_.Push(std::move(msg)); }

  /// Optional audit log: multi-message pump activations emit a
  /// `dispatcher.batch` event (nullptr = off).
  void set_event_log(EventLog* log) { event_log_ = log; }

  /// Drains the mailbox through `handler(ServerMessage&&)`. If a pump is
  /// already active on this thread (the caller sits inside a handler),
  /// returns immediately — the active pump's loop will reach the new
  /// message; handlers never nest.
  template <typename Handler>
  void Pump(Handler&& handler) {
    if (pumping_) {
      stats_.reentrant_enqueues++;
      return;
    }
    pumping_ = true;
    stats_.pumps++;
    uint64_t batch = 0;
    ServerMessage msg;
    while (queue_.Pop(&msg)) {
      batch++;
      stats_.messages++;
      switch (msg.kind) {
        case ServerMessage::Kind::kSubmit: stats_.submits++; break;
        case ServerMessage::Kind::kCompletion: stats_.completions++; break;
        case ServerMessage::Kind::kPoll: stats_.polls++; break;
      }
      handler(std::move(msg));
    }
    if (batch > stats_.max_batch) stats_.max_batch = batch;
    if (event_log_ != nullptr && batch >= 2) {
      // Single-message activations are the common case and would swamp the
      // bounded log; only genuine batches (a drain absorbing re-entrant
      // messages) are audit-worthy.
      Json f = Json::Object();
      f.Set("messages", Json(static_cast<int64_t>(batch)));
      event_log_->Emit("dispatcher.batch", std::move(f));
    }
    pumping_ = false;
  }

  bool pumping() const { return pumping_; }
  size_t Backlog() const { return queue_.ApproxSize(); }
  const DispatcherStats& stats() const { return stats_; }

 private:
  MpscQueue<ServerMessage> queue_;
  /// Consumer-thread-only re-entrancy guard.
  bool pumping_ = false;
  DispatcherStats stats_;
  EventLog* event_log_ = nullptr;
};

}  // namespace pixels
