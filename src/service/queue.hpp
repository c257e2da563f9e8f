#pragma once
/// \file queue.hpp
/// \brief Multi-tenant admission queue with a pluggable ordering policy.
///
/// The queue holds submitted-but-not-yet-admitted campaigns. Admission
/// control is two-staged: a bounded queue rejects submissions outright when
/// the service is saturated (back-pressure to the tenant), and the ordering
/// policy decides *which* queued campaign is admitted when grid capacity
/// frees up:
///  * kFifo — submission order (the single-tenant baseline);
///  * kWeightedFairShare — the owner with the least weight-normalized
///    consumed processor-seconds goes first (classic fair-share decay-free
///    accounting; Beránek et al. evaluate schedulers under exactly this
///    kind of long-lived multi-workflow service);
///  * kShortestRemaining — smallest estimated remaining makespan first
///    (latency/throughput trade-off of Benoit et al.; the estimate comes
///    from the sched performance vectors).
///
/// The queue itself is deliberately persistence-free: its contents and
/// order are fully re-derivable from the journal (submitted minus
/// admitted/rejected, in submission order), which recovery exploits.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "service/campaign.hpp"

namespace oagrid::service {

enum class QueuePolicy : std::uint8_t {
  kFifo = 0,
  kWeightedFairShare = 1,
  kShortestRemaining = 2,
};

[[nodiscard]] const char* to_string(QueuePolicy policy) noexcept;
/// Parses "fifo" | "fair" | "srmf"; throws std::invalid_argument otherwise.
[[nodiscard]] QueuePolicy queue_policy_from(const std::string& name);

/// The admission index holds one entry per *priority class*: a set of
/// queued campaigns whose priorities are equal at all times, so within a
/// class the order is plain submission order. Classes are keyed
/// (priority, seq of the oldest member); the head of the first class is
/// exactly the (priority, submission seq) minimum over all queued
/// campaigns. Re-keying a class is one O(log n) index update however many
/// members it has — the service puts each fair-share (owner, weight) pair
/// in one class, so a change of an owner's consumption re-keys one entry
/// per distinct weight instead of one per queued campaign. kFifo puts
/// everything in one class and ignores priorities; a campaign enqueued
/// without a class forms its own (srmf estimates never change while
/// queued). Enqueue, remove, re-key and head lookup are all O(log n).
class CampaignQueue {
 public:
  /// Names a priority class: by convention the id of the campaign that
  /// opened it, so class keys never collide with a campaign's own class.
  using ClassKey = CampaignId;

  explicit CampaignQueue(QueuePolicy policy, std::size_t capacity);

  [[nodiscard]] QueuePolicy policy() const noexcept { return policy_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t depth() const noexcept { return slots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }
  [[nodiscard]] bool full() const noexcept {
    return slots_.size() >= capacity_;
  }

  /// Admission-control stage 1: false when the queue is full (the campaign
  /// is rejected and never enters). The campaign joins class `cls` (its own
  /// class, keyed by its id, when absent); `priority` keys a new class and
  /// must equal the priority of an existing one. Both are ignored under
  /// kFifo.
  [[nodiscard]] bool try_enqueue(CampaignId id, double priority = 0.0,
                                 std::optional<ClassKey> cls = std::nullopt);

  /// Removes an admitted (or cancelled) campaign. A class left empty leaves
  /// the index; one that lost its oldest member is re-keyed by the next.
  void remove(CampaignId id);

  /// Re-keys a class after its priority input changed (e.g. its owner's
  /// consumed share moved). O(log n); a no-op if unchanged or under kFifo.
  void update_priority(ClassKey cls, double priority);

  /// Whether class `cls` still has queued members.
  [[nodiscard]] bool has_class(ClassKey cls) const {
    return classes_.count(cls) > 0;
  }

  /// Head of the admission order: lowest (priority, submission seq).
  /// Requires a non-empty queue.
  [[nodiscard]] CampaignId front() const;

  /// Queued ids in submission order (stable across recovery).
  [[nodiscard]] std::vector<CampaignId> queued() const;

  /// Admission order under the policy: queued ids sorted by ascending
  /// `priority` (ties broken by submission order). The service supplies the
  /// priority function (owner fair-share usage or remaining-makespan
  /// estimate); kFifo ignores it. A full sort — introspection and tests;
  /// the service itself reads front() off the maintained index.
  [[nodiscard]] std::vector<CampaignId> admission_order(
      const std::function<double(CampaignId)>& priority) const;

 private:
  struct PriorityClass {
    double priority = 0.0;
    std::map<std::uint64_t, CampaignId> members;  ///< seq -> id
  };
  struct Slot {
    std::uint64_t seq = 0;
    ClassKey cls = 0;
  };
  using IndexKey = std::tuple<double, std::uint64_t, ClassKey>;
  using ClassMap = std::map<ClassKey, PriorityClass>;

  [[nodiscard]] static IndexKey index_key(ClassMap::const_iterator it) {
    return {it->second.priority, it->second.members.begin()->first,
            it->first};
  }

  QueuePolicy policy_;
  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::map<CampaignId, Slot> slots_;  ///< every queued campaign
  ClassMap classes_;
  std::set<IndexKey> index_;  ///< one entry per class, (priority, head seq)
};

}  // namespace oagrid::service
