#include "middleware/client.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "middleware/mailbox.hpp"
#include "obs/obs.hpp"

namespace oagrid::middleware {

namespace {

/// Attaches the client-side reply mailbox to the fleet-wide metrics (the
/// "downstream" direction of the Figure 9 protocol). No-op when
/// observability is off.
void instrument_reply(Mailbox<SedResponse>& reply) {
  if (!obs::enabled()) return;
  QueueProbe probe;
  probe.depth_on_send = &obs::metrics().histogram("middleware.reply.depth");
  probe.wait_us = &obs::metrics().histogram("middleware.reply.wait_us");
  probe.sends = &obs::metrics().counter("middleware.reply.sends");
  reply.instrument(probe);
}

/// ScopedTimer target for one protocol step, or nullptr when off.
obs::Histogram* step_histogram(const char* step) {
  if (!obs::enabled()) return nullptr;
  return &obs::metrics().histogram(std::string("middleware.") + step + "_us");
}

/// Receives one `Reply` to `request_id` from each of `expected` daemons
/// (steps 3 and 6). Without a timeout it blocks and throws on a closed
/// channel or an unexpected reply; with one it skips stale replies and
/// returns whatever arrived before the step deadline.
template <typename Reply>
std::vector<Reply> gather(Mailbox<SedResponse>& mailbox, int request_id,
                          int expected,
                          std::optional<std::chrono::milliseconds> timeout,
                          int step) {
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  const auto deadline =
      steady_clock::now() + timeout.value_or(milliseconds::zero());
  std::vector<Reply> replies;
  while (static_cast<int>(replies.size()) < expected) {
    std::optional<SedResponse> response;
    if (timeout) {
      const auto budget = std::chrono::duration_cast<milliseconds>(
          deadline - steady_clock::now());
      if (budget.count() <= 0) break;
      response = mailbox.receive_for(budget);
      if (!response) break;
    } else {
      response = mailbox.receive();
      if (!response)
        throw std::runtime_error("oagrid: SeD channel closed during step " +
                                 std::to_string(step));
    }
    auto* reply = std::get_if<Reply>(&*response);
    if (reply == nullptr || reply->request_id != request_id) {
      if (timeout) continue;  // a late answer to an earlier step
      throw std::runtime_error("oagrid: unexpected response during step " +
                               std::to_string(step));
    }
    replies.push_back(std::move(*reply));
  }
  return replies;
}

}  // namespace

CampaignResult Client::submit(const appmodel::Ensemble& ensemble,
                              sched::Heuristic heuristic,
                              const StagingOptions& staging,
                              const sim::GridFaultOptions& faults) {
  return run(ensemble, heuristic, staging, faults, std::nullopt).campaign;
}

Client::FaultTolerantResult Client::submit_with_deadline(
    const appmodel::Ensemble& ensemble, sched::Heuristic heuristic,
    std::chrono::milliseconds step_timeout, const StagingOptions& staging,
    const sim::GridFaultOptions& faults) {
  OAGRID_REQUIRE(step_timeout.count() > 0, "timeout must be positive");
  return run(ensemble, heuristic, staging, faults, step_timeout);
}

Client::FaultTolerantResult Client::run(
    const appmodel::Ensemble& ensemble, sched::Heuristic heuristic,
    const StagingOptions& staging, const sim::GridFaultOptions& faults,
    std::optional<std::chrono::milliseconds> timeout) {
  ensemble.validate();
  OAGRID_REQUIRE(agent_.daemon_count() >= 1, "no server daemon deployed");
  OAGRID_REQUIRE(staging.transfer_deadline > 0.0,
                 "transfer deadline must be positive");
  const int request_id = next_request_id_++;
  if (obs::enabled()) obs::metrics().counter("middleware.campaigns").add();
  obs::Span campaign_span(obs::enabled() ? &obs::trace_buffer() : nullptr,
                          "campaign #" + std::to_string(request_id),
                          "middleware");

  FaultTolerantResult result;
  CampaignResult& campaign = result.campaign;
  std::vector<ClusterId>& dropped = result.unresponsive;
  const ReplyChannel reply = std::make_shared<Mailbox<SedResponse>>();
  instrument_reply(*reply);

  // Steps (1)-(3): broadcast the request, gather one performance vector per
  // cluster, whatever the arrival order.
  const auto estimate = [&] {
    obs::ScopedTimer step_timer(step_histogram("step1_3"));
    obs::Span step_span(obs::enabled() ? &obs::trace_buffer() : nullptr,
                        "steps 1-3: perf vectors", "middleware");
    const int expected = agent_.broadcast_perf_request(
        {request_id, ensemble.scenarios, ensemble.months, heuristic, reply});
    std::vector<sched::PerformanceVector> performance(
        static_cast<std::size_t>(expected));
    for (PerfResponse& perf :
         gather<PerfResponse>(*reply, request_id, expected, timeout, 3))
      performance[static_cast<std::size_t>(perf.cluster)] =
          std::move(perf.performance);
    for (ClusterId c = 0; c < expected; ++c) {
      if (!performance[static_cast<std::size_t>(c)].empty()) continue;
      if (!timeout)
        throw std::runtime_error("oagrid: SeD " + std::to_string(c) +
                                 " is down");
      dropped.push_back(c);
    }
    if (dropped.size() == performance.size())
      throw std::runtime_error("oagrid: no cluster answered step 3 in time");
    return performance;
  };

  // Steps (5)-(6): dispatch each cluster's share (clusters with zero
  // scenarios are not contacted, as in the paper's flow), then collect the
  // execution reports.
  const auto execute = [&](const sim::GridSimResult& plan,
                           std::span<const Seconds> migrate_staging) {
    obs::ScopedTimer step_timer(step_histogram("step5_6"));
    obs::Span step_span(obs::enabled() ? &obs::trace_buffer() : nullptr,
                        "steps 5-6: execution", "middleware");
    const std::vector<Count>& shares = plan.repartition.dags_per_cluster;
    int outstanding = 0;
    for (std::size_t c = 0; c < shares.size(); ++c) {
      if (shares[c] == 0) continue;
      ExecuteRequest request;
      request.request_id = request_id;
      request.scenarios = shares[c];
      request.months = ensemble.months;
      request.heuristic = heuristic;
      request.reply = reply;
      request.fault = faults;
      request.migrate_staging = migrate_staging[c];
      agent_.send_execute(static_cast<ClusterId>(c), request);
      ++outstanding;
    }
    campaign.executions =
        gather<ExecuteResponse>(*reply, request_id, outstanding, timeout, 6);
    std::sort(campaign.executions.begin(), campaign.executions.end(),
              [](const ExecuteResponse& a, const ExecuteResponse& b) {
                return a.cluster < b.cluster;
              });
    std::vector<std::optional<sim::ShareRun>> runs(shares.size());
    for (const ExecuteResponse& exec : campaign.executions)
      runs[static_cast<std::size_t>(exec.cluster)] =
          sim::ShareRun{exec.makespan, exec.fault};
    for (std::size_t c = 0; c < shares.size(); ++c)
      if (shares[c] > 0 && !runs[c])
        dropped.push_back(static_cast<ClusterId>(c));
    return runs;
  };

  std::vector<Seconds> transfers;
  static_cast<sim::GridSimResult&>(campaign) = sim::run_campaign(
      estimate, execute, ensemble, staging.data, faults, &transfers);
  campaign.deadline_misses = static_cast<int>(
      std::count_if(transfers.begin(), transfers.end(), [&](Seconds took) {
        return took > staging.transfer_deadline;
      }));

  std::sort(dropped.begin(), dropped.end());
  for (ClusterId c = 0; c < agent_.daemon_count(); ++c)
    if (!std::binary_search(dropped.begin(), dropped.end(), c))
      result.responsive.push_back(c);
  return result;
}

}  // namespace oagrid::middleware
