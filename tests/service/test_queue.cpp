#include "service/queue.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace oagrid::service {
namespace {

TEST(QueuePolicy, ParsesAndPrints) {
  EXPECT_EQ(queue_policy_from("fifo"), QueuePolicy::kFifo);
  EXPECT_EQ(queue_policy_from("fair"), QueuePolicy::kWeightedFairShare);
  EXPECT_EQ(queue_policy_from("srmf"), QueuePolicy::kShortestRemaining);
  EXPECT_STREQ(to_string(QueuePolicy::kFifo), "fifo");
  EXPECT_STREQ(to_string(QueuePolicy::kWeightedFairShare), "fair");
  EXPECT_STREQ(to_string(QueuePolicy::kShortestRemaining), "srmf");
  EXPECT_THROW((void)queue_policy_from("lifo"), std::invalid_argument);
}

TEST(CampaignQueue, BoundedCapacityRejects) {
  CampaignQueue queue(QueuePolicy::kFifo, 2);
  EXPECT_TRUE(queue.try_enqueue(1));
  EXPECT_TRUE(queue.try_enqueue(2));
  EXPECT_FALSE(queue.try_enqueue(3));  // admission control back-pressure
  EXPECT_EQ(queue.depth(), 2u);
  queue.remove(1);
  EXPECT_TRUE(queue.try_enqueue(3));
}

TEST(CampaignQueue, RemoveUnknownThrows) {
  CampaignQueue queue(QueuePolicy::kFifo, 4);
  ASSERT_TRUE(queue.try_enqueue(1));
  EXPECT_THROW(queue.remove(2), std::invalid_argument);
}

TEST(CampaignQueue, FifoIgnoresPriorities) {
  CampaignQueue queue(QueuePolicy::kFifo, 8);
  for (CampaignId id : {5u, 3u, 9u, 1u}) ASSERT_TRUE(queue.try_enqueue(id));
  const auto order = queue.admission_order(
      [](CampaignId id) { return -static_cast<double>(id); });
  EXPECT_EQ(order, (std::vector<CampaignId>{5, 3, 9, 1}));
}

TEST(CampaignQueue, PolicySortsAscendingWithStableTies) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 8);
  for (CampaignId id : {1u, 2u, 3u, 4u}) ASSERT_TRUE(queue.try_enqueue(id));
  const std::map<CampaignId, double> priority{
      {1, 2.0}, {2, 0.5}, {3, 2.0}, {4, 0.5}};
  const auto order =
      queue.admission_order([&](CampaignId id) { return priority.at(id); });
  // 2 and 4 share the lowest priority: submission order breaks the tie.
  EXPECT_EQ(order, (std::vector<CampaignId>{2, 4, 1, 3}));
}

TEST(CampaignQueue, FrontTracksTheMaintainedIndex) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 8);
  ASSERT_TRUE(queue.try_enqueue(1, 2.0));
  ASSERT_TRUE(queue.try_enqueue(2, 0.5));
  ASSERT_TRUE(queue.try_enqueue(3, 1.0));
  EXPECT_EQ(queue.front(), 2u);
  queue.remove(2);
  EXPECT_EQ(queue.front(), 3u);
  queue.remove(3);
  EXPECT_EQ(queue.front(), 1u);
  queue.remove(1);
  EXPECT_TRUE(queue.empty());
  EXPECT_THROW((void)queue.front(), std::invalid_argument);
}

TEST(CampaignQueue, UpdatePriorityRekeysInPlace) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 8);
  ASSERT_TRUE(queue.try_enqueue(1, 1.0));
  ASSERT_TRUE(queue.try_enqueue(2, 2.0));
  EXPECT_EQ(queue.front(), 1u);
  queue.update_priority(1, 3.0);
  EXPECT_EQ(queue.front(), 2u);
  queue.update_priority(2, 3.0);  // now tied: submission order decides
  EXPECT_EQ(queue.front(), 1u);
  EXPECT_THROW(queue.update_priority(7, 0.0), std::invalid_argument);
}

TEST(CampaignQueue, FrontAgreesWithAdmissionOrderUnderChurn) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 32);
  std::map<CampaignId, double> priority;
  const auto lookup = [&](CampaignId id) { return priority.at(id); };
  // Deterministic churn: enqueue, re-key and remove in a scripted pattern,
  // checking the O(log n) head against the full stable sort every step.
  for (CampaignId id = 1; id <= 20; ++id) {
    priority[id] = static_cast<double>((id * 7) % 5);
    ASSERT_TRUE(queue.try_enqueue(id, priority[id]));
    EXPECT_EQ(queue.front(), queue.admission_order(lookup).front());
  }
  for (CampaignId id = 1; id <= 20; ++id) {
    if (id % 3 == 0) {
      priority[id] = static_cast<double>((id * 11) % 7);
      queue.update_priority(id, priority[id]);
    }
    if (id % 4 == 0) {
      queue.remove(id);
      priority.erase(id);
    }
    EXPECT_EQ(queue.front(), queue.admission_order(lookup).front());
  }
}

TEST(CampaignQueue, FifoFrontIsSubmissionOrderWhateverThePriorities) {
  CampaignQueue queue(QueuePolicy::kFifo, 8);
  ASSERT_TRUE(queue.try_enqueue(5, 9.0));
  ASSERT_TRUE(queue.try_enqueue(3, 0.0));
  queue.update_priority(5, -1.0);  // no-op under fifo
  EXPECT_EQ(queue.front(), 5u);
}

TEST(CampaignQueue, FullReportsCapacity) {
  CampaignQueue queue(QueuePolicy::kFifo, 2);
  EXPECT_FALSE(queue.full());
  ASSERT_TRUE(queue.try_enqueue(1));
  ASSERT_TRUE(queue.try_enqueue(2));
  EXPECT_TRUE(queue.full());
  queue.remove(1);
  EXPECT_FALSE(queue.full());
}

TEST(CampaignQueue, QueuedKeepsSubmissionOrderAcrossRemovals) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 8);
  for (CampaignId id : {5u, 3u, 9u, 1u, 7u})
    ASSERT_TRUE(queue.try_enqueue(id, static_cast<double>(id)));
  queue.remove(9);
  queue.remove(5);
  EXPECT_EQ(queue.queued(), (std::vector<CampaignId>{3, 1, 7}));
  ASSERT_TRUE(queue.try_enqueue(5, 0.0));
  EXPECT_EQ(queue.queued(), (std::vector<CampaignId>{3, 1, 7, 5}));
}

TEST(CampaignQueue, ClassMembersKeepSubmissionOrderAcrossRekeys) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 8);
  // Class 1 = {1, 3, 4}, class 2 = {2}.
  ASSERT_TRUE(queue.try_enqueue(1, 1.0, 1));
  ASSERT_TRUE(queue.try_enqueue(2, 2.0, 2));
  ASSERT_TRUE(queue.try_enqueue(3, 1.0, 1));
  ASSERT_TRUE(queue.try_enqueue(4, 1.0, 1));
  EXPECT_EQ(queue.front(), 1u);
  queue.update_priority(1, 5.0);  // the whole class moves behind class 2
  EXPECT_EQ(queue.front(), 2u);
  queue.remove(2);
  queue.update_priority(1, 0.5);
  for (CampaignId expected : {1u, 3u, 4u}) {
    EXPECT_EQ(queue.front(), expected);
    queue.remove(expected);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(CampaignQueue, JoiningAClassRequiresItsPriority) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 8);
  ASSERT_TRUE(queue.try_enqueue(1, 1.0, 1));
  EXPECT_THROW((void)queue.try_enqueue(2, 2.0, 1), std::invalid_argument);
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(CampaignQueue, RemovingTheClassHeadRekeysByTheNextMember) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 8);
  ASSERT_TRUE(queue.try_enqueue(1, 1.0, 1));  // class 1 opens at seq 0
  ASSERT_TRUE(queue.try_enqueue(2, 1.0, 2));  // class 2, seq 1, same priority
  ASSERT_TRUE(queue.try_enqueue(3, 1.0, 1));  // joins class 1 at seq 2
  EXPECT_EQ(queue.front(), 1u);
  // Class 1's oldest member is now seq 2, behind class 2's seq 1.
  queue.remove(1);
  EXPECT_EQ(queue.front(), 2u);
  queue.remove(2);
  EXPECT_EQ(queue.front(), 3u);
}

TEST(CampaignQueue, AnEmptiedClassLeavesTheIndex) {
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 8);
  ASSERT_TRUE(queue.try_enqueue(1, 1.0, 1));
  ASSERT_TRUE(queue.try_enqueue(2, 1.0, 1));
  ASSERT_TRUE(queue.try_enqueue(3, 2.0));  // its own class, keyed 3
  EXPECT_TRUE(queue.has_class(1));
  queue.remove(2);  // a non-head member: class 1 keeps its key
  EXPECT_TRUE(queue.has_class(1));
  queue.remove(1);
  EXPECT_FALSE(queue.has_class(1));
  EXPECT_THROW(queue.update_priority(1, 0.0), std::invalid_argument);
  EXPECT_EQ(queue.front(), 3u);
  // The key is free again: a later campaign may reopen it.
  ASSERT_TRUE(queue.try_enqueue(4, 0.5, 1));
  EXPECT_EQ(queue.front(), 4u);
}

/// Drives the queue the way the fair-share service does — one class per
/// (owner, weight), re-keyed when the owner's consumption moves — through
/// random enqueue, remove and consumption steps, checking the class-keyed
/// head against the full stable sort after every step. Weights come from
/// `weight()`, so a small set gives large classes and a continuous range
/// gives singleton classes.
void check_fair_share_churn(std::uint64_t seed,
                            const std::function<double(Rng&)>& weight) {
  constexpr std::size_t kOwners = 5;
  Rng rng(seed);
  CampaignQueue queue(QueuePolicy::kWeightedFairShare, 64);
  std::vector<double> consumed(kOwners, 0.0);  // all-tie start
  std::map<CampaignId, std::pair<std::size_t, double>> spec;  // owner, weight
  std::vector<std::map<double, CampaignId>> classes(kOwners);
  const auto random_owner = [&rng] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<long long>(kOwners) - 1));
  };
  const auto priority = [&](CampaignId id) {
    const auto& [owner, w] = spec.at(id);
    return consumed[owner] / w;
  };
  CampaignId next_id = 1;
  for (int step = 0; step < 2000; ++step) {
    const long long action = rng.uniform_int(0, 9);
    if (action < 4 && !queue.full()) {
      const CampaignId id = next_id++;
      const std::size_t owner = random_owner();
      const double w = weight(rng);
      spec[id] = {owner, w};
      const CampaignId cls = classes[owner].try_emplace(w, id).first->second;
      ASSERT_TRUE(queue.try_enqueue(id, priority(id), cls));
    } else if (action < 7 && !queue.empty()) {
      // Admit the head, or now and then cancel a random member.
      CampaignId id = queue.front();
      if (action == 6) {
        const std::vector<CampaignId> queued = queue.queued();
        id = queued[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<long long>(queued.size()) - 1))];
      }
      queue.remove(id);
      const auto& [owner, w] = spec.at(id);
      std::map<double, CampaignId>& owned = classes[owner];
      if (!queue.has_class(owned.at(w))) owned.erase(w);
      spec.erase(id);
    } else {
      const std::size_t owner = random_owner();
      consumed[owner] += rng.uniform(0.0, 100.0);
      for (const auto& [w, cls] : classes[owner])
        queue.update_priority(cls, consumed[owner] / w);
    }
    if (queue.empty()) continue;
    ASSERT_EQ(queue.front(), queue.admission_order(priority).front())
        << "seed " << seed << " step " << step;
  }
}

TEST(CampaignQueue, ClassKeyedFrontMatchesFullSortWithRepeatingWeights) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    check_fair_share_churn(seed, [](Rng& rng) {
      return static_cast<double>(rng.uniform_int(1, 3));
    });
}

TEST(CampaignQueue, ClassKeyedFrontMatchesFullSortWithDistinctWeights) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    check_fair_share_churn(seed,
                           [](Rng& rng) { return rng.uniform(0.5, 3.0); });
}

}  // namespace
}  // namespace oagrid::service
