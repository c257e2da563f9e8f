#pragma once
/// \file mailbox.hpp
/// \brief Thread-safe message queue — the transport of the in-process
/// DIET-like middleware.
///
/// The real deployment the paper targets uses the DIET grid middleware over
/// CORBA; the reproduction replaces the wire with bounded-blocking mailboxes
/// between threads (one thread per server daemon). Close semantics mirror a
/// connection teardown: receivers drain remaining messages, then observe
/// end-of-stream.
///
/// Shutdown-safety notes (audited under ThreadSanitizer, see
/// tests/middleware/test_mailbox_shutdown.cpp):
///  * every condition_variable notification happens while `mutex_` is held.
///    Notifying after unlock is the usual micro-optimization, but it races
///    with destruction: a receiver woken by the predicate can observe
///    close(), drain, and destroy the mailbox while the sender is still
///    inside notify_one() on the freed condvar. Holding the lock across the
///    notify pins the mailbox alive until the notification is delivered.
///  * lost wakeups are impossible by construction: waiters re-check their
///    predicate under the same mutex that guards every state change, so a
///    notify that fires before the wait starts is observed via the
///    predicate, not the notification.
///
/// Optionally instrumented via a QueueProbe (queue depth on send, receiver
/// wait time): probes must be attached before concurrent use and stay alive
/// for the mailbox's lifetime.

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"

namespace oagrid::middleware {

/// Observability hooks for one mailbox (all optional). The histograms and
/// counters typically live in obs::metrics() and may be shared by several
/// mailboxes (e.g. one fleet-wide wait-time distribution).
struct QueueProbe {
  obs::Histogram* depth_on_send = nullptr;  ///< queue length after push
  obs::Histogram* wait_us = nullptr;        ///< receiver block time (wall us)
  obs::Counter* sends = nullptr;            ///< accepted messages
  obs::Counter* dropped_sends = nullptr;    ///< sends after close()
};

// GCC flags moving a variant of non-trivially-movable alternatives (such as
// ExecuteRequest) through the queue as maybe-uninitialized: a false positive.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

template <typename T>
class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Attaches observability hooks. Not thread-safe w.r.t. concurrent
  /// send/receive: attach before the mailbox goes live.
  void instrument(const QueueProbe& probe) { probe_ = probe; }

  /// Enqueues a message. Returns false (drops) if the mailbox is closed.
  bool send(T message) {
    const std::scoped_lock lock(mutex_);
    if (closed_) {
      if (probe_.dropped_sends != nullptr) probe_.dropped_sends->add();
      return false;
    }
    queue_.push_back(std::move(message));
    if (probe_.sends != nullptr) probe_.sends->add();
    if (probe_.depth_on_send != nullptr)
      probe_.depth_on_send->record(static_cast<double>(queue_.size()));
    ready_.notify_one();  // under the lock: see shutdown-safety notes above
    return true;
  }

  /// Blocks for the next message; std::nullopt once closed and drained.
  std::optional<T> receive() {
    const double entered_us = probe_wait_start();
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [this] { return !queue_.empty() || closed_; });
    probe_wait_end(entered_us);
    if (queue_.empty()) return std::nullopt;
    T message = std::move(queue_.front());
    queue_.pop_front();
    return message;
  }

  /// Blocks up to `timeout`; std::nullopt on timeout or close-and-drained.
  /// The two cases are distinguishable via closed().
  std::optional<T> receive_for(std::chrono::milliseconds timeout) {
    const double entered_us = probe_wait_start();
    std::unique_lock lock(mutex_);
    const bool ready = ready_.wait_for(
        lock, timeout, [this] { return !queue_.empty() || closed_; });
    probe_wait_end(entered_us);
    if (!ready) return std::nullopt;
    if (queue_.empty()) return std::nullopt;
    T message = std::move(queue_.front());
    queue_.pop_front();
    return message;
  }

  /// Non-blocking poll.
  std::optional<T> try_receive() {
    const std::scoped_lock lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    T message = std::move(queue_.front());
    queue_.pop_front();
    return message;
  }

  /// Ends the stream; pending messages stay receivable.
  void close() {
    const std::scoped_lock lock(mutex_);
    closed_ = true;
    ready_.notify_all();  // under the lock: see shutdown-safety notes above
  }

  [[nodiscard]] bool closed() const {
    const std::scoped_lock lock(mutex_);
    return closed_;
  }

 private:
  [[nodiscard]] double probe_wait_start() const {
    return probe_.wait_us != nullptr ? obs::WallClock::instance().now_us()
                                     : 0.0;
  }
  void probe_wait_end(double entered_us) const {
    if (probe_.wait_us != nullptr)
      probe_.wait_us->record(obs::WallClock::instance().now_us() - entered_us);
  }

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> queue_;
  bool closed_ = false;
  QueueProbe probe_;
};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace oagrid::middleware
