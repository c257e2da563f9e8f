/// \file test_mailbox_shutdown.cpp
/// \brief Shutdown-race regression tests for Mailbox and ServerDaemon.
///
/// These tests hammer the teardown orderings that historically race in
/// condvar-based queues (and that the notify-under-lock discipline in
/// mailbox.hpp exists to prevent):
///  * close() while senders are mid-send: every accepted message must be
///    drainable, every rejected send must be counted, nothing lost;
///  * close()-then-destroy while a sender is still inside send(): with
///    notify-after-unlock this is a use-after-free on the condvar, which
///    ThreadSanitizer flags (the CI TSan job runs this binary);
///  * concurrent ServerDaemon::stop() from several threads joining once;
///  * stop() (and an agent tree's shutdown()) answering every request queued
///    before it: closing the inbox is the only stop signal, and the daemon
///    drains what was accepted before it ends.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "middleware/local_agent.hpp"
#include "middleware/mailbox.hpp"
#include "middleware/server_daemon.hpp"
#include "obs/metrics.hpp"
#include "platform/profiles.hpp"

namespace oagrid::middleware {
namespace {

TEST(MailboxShutdown, CloseMidStreamLosesNoAcceptedMessage) {
  constexpr int kSenders = 4;
  constexpr int kPerSender = 2000;

  Mailbox<int> mailbox;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};

  std::vector<std::thread> senders;
  senders.reserve(kSenders);
  for (int s = 0; s < kSenders; ++s)
    senders.emplace_back([&mailbox, &accepted, &rejected, s] {
      for (int i = 0; i < kPerSender; ++i) {
        if (mailbox.send(s * kPerSender + i))
          accepted.fetch_add(1, std::memory_order_relaxed);
        else
          rejected.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // Drain concurrently and close somewhere mid-stream.
  std::uint64_t received = 0;
  std::thread receiver([&mailbox, &received] {
    while (mailbox.receive().has_value()) ++received;
  });
  while (accepted.load(std::memory_order_relaxed) < kPerSender)
    std::this_thread::yield();
  mailbox.close();
  for (auto& t : senders) t.join();
  receiver.join();

  EXPECT_EQ(received, accepted.load());
  EXPECT_EQ(accepted.load() + rejected.load(),
            static_cast<std::uint64_t>(kSenders) * kPerSender);
  // close() happened mid-stream, so at least one send was dropped... unless
  // the senders outran the closer; either way the counts must reconcile.
  EXPECT_FALSE(mailbox.try_receive().has_value());
}

TEST(MailboxShutdown, CloseWakesBlockedReceiversWithEndOfStream) {
  Mailbox<int> mailbox;
  std::vector<std::thread> receivers;
  std::atomic<int> end_of_stream{0};
  receivers.reserve(3);
  for (int r = 0; r < 3; ++r)
    receivers.emplace_back([&mailbox, &end_of_stream] {
      if (!mailbox.receive().has_value())
        end_of_stream.fetch_add(1, std::memory_order_relaxed);
    });
  mailbox.close();
  for (auto& t : receivers) t.join();
  EXPECT_EQ(end_of_stream.load(), 3);
}

TEST(MailboxShutdown, PendingMessagesStayReceivableAfterClose) {
  Mailbox<int> mailbox;
  ASSERT_TRUE(mailbox.send(1));
  ASSERT_TRUE(mailbox.send(2));
  mailbox.close();
  EXPECT_FALSE(mailbox.send(3));
  EXPECT_EQ(mailbox.receive(), std::optional<int>(1));
  EXPECT_EQ(mailbox.receive(), std::optional<int>(2));
  EXPECT_EQ(mailbox.receive(), std::nullopt);
}

// The use-after-free shape: the receiver observes close(), drains, and the
// mailbox is destroyed while senders may still be inside send(). The sender
// threads are joined before destruction here (C++ requires it), but under
// the old notify-after-unlock scheme the *notification itself* could still
// be in flight on a destroyed condvar between the receiver's last wakeup
// and the sender's return. Iterating the full construct/close/destroy cycle
// many times gives TSan the interleavings it needs.
TEST(MailboxShutdown, CloseThenDestroyHammer) {
  for (int iteration = 0; iteration < 200; ++iteration) {
    auto mailbox = std::make_unique<Mailbox<int>>();
    std::atomic<std::uint64_t> accepted{0};

    std::thread sender([&mailbox_ref = *mailbox, &accepted] {
      for (int i = 0; i < 64; ++i)
        if (mailbox_ref.send(i)) accepted.fetch_add(1);
    });
    std::thread closer([&mailbox_ref = *mailbox] { mailbox_ref.close(); });

    std::uint64_t received = 0;
    while (mailbox->receive().has_value()) ++received;

    sender.join();
    closer.join();
    EXPECT_EQ(received, accepted.load());
    mailbox.reset();  // destroy immediately after the last notification
  }
}

TEST(MailboxShutdown, InstrumentedMailboxCountsSendsAndDrops) {
  obs::Histogram depth;
  obs::Histogram wait;
  obs::Counter sends;
  obs::Counter drops;
  Mailbox<int> mailbox;
  QueueProbe probe;
  probe.depth_on_send = &depth;
  probe.wait_us = &wait;
  probe.sends = &sends;
  probe.dropped_sends = &drops;
  mailbox.instrument(probe);

  ASSERT_TRUE(mailbox.send(1));
  ASSERT_TRUE(mailbox.send(2));
  EXPECT_EQ(mailbox.receive(), std::optional<int>(1));
  mailbox.close();
  EXPECT_FALSE(mailbox.send(3));

  EXPECT_EQ(sends.value(), 2u);
  EXPECT_EQ(drops.value(), 1u);
  const auto depth_snap = depth.snapshot();
  EXPECT_EQ(depth_snap.count, 2u);
  EXPECT_DOUBLE_EQ(depth_snap.max, 2.0);  // second send saw depth 2
  EXPECT_EQ(wait.snapshot().count, 1u);
}

TEST(ServerDaemonShutdown, ConcurrentStopJoinsExactlyOnce) {
  for (int iteration = 0; iteration < 20; ++iteration) {
    ServerDaemon daemon(0, platform::make_builtin_cluster(0, 8));
    std::vector<std::thread> stoppers;
    stoppers.reserve(4);
    for (int s = 0; s < 4; ++s)
      stoppers.emplace_back([&daemon] { daemon.stop(); });
    for (auto& t : stoppers) t.join();
    // Destructor must also tolerate the already-stopped state.
  }
}

TEST(ServerDaemonShutdown, StopThenDestroyWithPendingSenders) {
  for (int iteration = 0; iteration < 20; ++iteration) {
    auto daemon = std::make_unique<ServerDaemon>(
        0, platform::make_builtin_cluster(0, 8));
    std::thread late_sender([&daemon_ref = *daemon] {
      // Shutdown may already have closed the inbox: sends become drops,
      // but must never crash or deadlock.
      PerfRequest request;
      request.scenarios = 1;
      request.months = 1;
      for (int i = 0; i < 32; ++i)
        (void)daemon_ref.inbox().send(SedRequest{request});
    });
    daemon->stop();
    late_sender.join();
    daemon.reset();
  }
}

/// A 1x1 performance request answered at `reply`.
PerfRequest tiny_perf_request(int id, const ReplyChannel& reply) {
  PerfRequest request;
  request.request_id = id;
  request.scenarios = 1;
  request.months = 1;
  request.reply = reply;
  return request;
}

TEST(ServerDaemonShutdown, StopAnswersEveryQueuedRequest) {
  ServerDaemon daemon(0, platform::make_builtin_cluster(0, 8));
  const auto reply = std::make_shared<Mailbox<SedResponse>>();
  for (int id = 1; id <= 8; ++id)
    ASSERT_TRUE(daemon.inbox().send(SedRequest{tiny_perf_request(id, reply)}));
  daemon.stop();
  for (int id = 1; id <= 8; ++id) {
    const std::optional<SedResponse> response = reply->try_receive();
    ASSERT_TRUE(response.has_value()) << "request " << id << " unanswered";
    EXPECT_EQ(std::get<PerfResponse>(*response).request_id, id);
  }
  EXPECT_FALSE(reply->try_receive().has_value());
}

TEST(ServerDaemonShutdown, TreeShutdownAnswersEveryQueuedBroadcast) {
  HierarchicalAgent tree(platform::make_builtin_grid(20), 2);
  const auto reply = std::make_shared<Mailbox<SedResponse>>();
  const int daemons = tree.broadcast_perf_request(tiny_perf_request(1, reply));
  tree.shutdown();
  const auto fleet = static_cast<std::size_t>(daemons);
  std::vector<bool> answered(fleet, false);
  for (int d = 0; d < daemons; ++d) {
    const std::optional<SedResponse> response = reply->try_receive();
    ASSERT_TRUE(response.has_value()) << d << " of " << daemons << " answered";
    const auto& perf = std::get<PerfResponse>(*response);
    EXPECT_EQ(perf.performance.size(), 1u) << "cluster " << perf.cluster;
    answered[static_cast<std::size_t>(perf.cluster)] = true;
  }
  EXPECT_EQ(answered, std::vector<bool>(fleet, true));
  EXPECT_FALSE(reply->try_receive().has_value());
}

}  // namespace
}  // namespace oagrid::middleware
