#include "service/queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace oagrid::service {

const char* to_string(QueuePolicy policy) noexcept {
  switch (policy) {
    case QueuePolicy::kFifo: return "fifo";
    case QueuePolicy::kWeightedFairShare: return "fair";
    case QueuePolicy::kShortestRemaining: return "srmf";
  }
  return "?";
}

QueuePolicy queue_policy_from(const std::string& name) {
  if (name == "fifo") return QueuePolicy::kFifo;
  if (name == "fair") return QueuePolicy::kWeightedFairShare;
  if (name == "srmf") return QueuePolicy::kShortestRemaining;
  throw std::invalid_argument("unknown queue policy '" + name +
                              "' (fifo | fair | srmf)");
}

CampaignQueue::CampaignQueue(QueuePolicy policy, std::size_t capacity)
    : policy_(policy), capacity_(capacity) {
  OAGRID_REQUIRE(capacity >= 1, "queue capacity must be at least 1");
}

bool CampaignQueue::try_enqueue(CampaignId id, double priority,
                                std::optional<ClassKey> cls) {
  if (slots_.size() >= capacity_) return false;
  OAGRID_REQUIRE(slots_.find(id) == slots_.end(), "campaign already queued");
  if (policy_ == QueuePolicy::kFifo) {
    priority = 0.0;
    cls = 0;
  }
  const Slot slot{next_seq_++, cls.value_or(id)};
  const auto [it, opened] = classes_.try_emplace(slot.cls);
  OAGRID_REQUIRE(opened || it->second.priority == priority,
                 "a campaign must join its class at the class priority");
  it->second.members.emplace(slot.seq, id);
  // Seqs only grow, so a newcomer never becomes the head of an existing
  // class: only a new class touches the index.
  if (opened) {
    it->second.priority = priority;
    index_.insert(index_key(it));
  }
  slots_.emplace(id, slot);
  return true;
}

void CampaignQueue::remove(CampaignId id) {
  const auto slot = slots_.find(id);
  OAGRID_REQUIRE(slot != slots_.end(), "campaign not queued");
  const auto cls = classes_.find(slot->second.cls);
  std::map<std::uint64_t, CampaignId>& members = cls->second.members;
  const bool head = members.begin()->first == slot->second.seq;
  if (head) index_.erase(index_key(cls));
  members.erase(slot->second.seq);
  if (members.empty()) {
    classes_.erase(cls);
  } else if (head) {
    index_.insert(index_key(cls));
  }
  slots_.erase(slot);
}

void CampaignQueue::update_priority(ClassKey cls, double priority) {
  if (policy_ == QueuePolicy::kFifo) return;
  const auto it = classes_.find(cls);
  OAGRID_REQUIRE(it != classes_.end(), "priority class not queued");
  if (it->second.priority == priority) return;
  index_.erase(index_key(it));
  it->second.priority = priority;
  index_.insert(index_key(it));
}

CampaignId CampaignQueue::front() const {
  OAGRID_REQUIRE(!index_.empty(), "front() on an empty queue");
  const ClassKey cls = std::get<2>(*index_.begin());
  return classes_.at(cls).members.begin()->second;
}

std::vector<CampaignId> CampaignQueue::queued() const {
  // Seqs are unique and grow with submission, so sorting by them restores
  // submission order (only snapshots and introspection ask for it).
  std::vector<std::pair<std::uint64_t, CampaignId>> by_seq;
  by_seq.reserve(slots_.size());
  for (const auto& [id, slot] : slots_) by_seq.emplace_back(slot.seq, id);
  std::sort(by_seq.begin(), by_seq.end());
  std::vector<CampaignId> ids;
  ids.reserve(by_seq.size());
  for (const auto& [seq, id] : by_seq) ids.push_back(id);
  return ids;
}

std::vector<CampaignId> CampaignQueue::admission_order(
    const std::function<double(CampaignId)>& priority) const {
  std::vector<CampaignId> order = queued();
  if (policy_ == QueuePolicy::kFifo) return order;
  // Stable sort: equal priorities keep submission order, so the ordering is
  // deterministic and replayable.
  std::stable_sort(order.begin(), order.end(),
                   [&](CampaignId a, CampaignId b) {
                     return priority(a) < priority(b);
                   });
  return order;
}

}  // namespace oagrid::service
