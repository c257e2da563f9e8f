#include "middleware/server_daemon.hpp"

#include "obs/obs.hpp"
#include "sim/exporters.hpp"
#include "sim/grid_sim.hpp"
#include "sim/perf_vector.hpp"

namespace oagrid::middleware {

namespace {

/// Track band reserved per cluster on the simulated timeline: groups and
/// post workers of cluster c land on tracks [c*kSimTrackStride, ...).
constexpr int kSimTrackStride = 256;

}  // namespace

ServerDaemon::ServerDaemon(ClusterId id, platform::Cluster cluster)
    : id_(id), cluster_(std::move(cluster)) {
  if (obs::enabled()) {
    // Fleet-wide distributions: every SeD inbox feeds the same histograms,
    // so "mailbox wait time" quantiles describe the whole deployment.
    QueueProbe probe;
    probe.depth_on_send = &obs::metrics().histogram("middleware.mailbox.depth");
    probe.wait_us = &obs::metrics().histogram("middleware.mailbox.wait_us");
    probe.sends = &obs::metrics().counter("middleware.mailbox.sends");
    probe.dropped_sends =
        &obs::metrics().counter("middleware.mailbox.dropped_sends");
    inbox_.instrument(probe);
  }
  // The thread starts only after the inbox is fully set up.
  thread_ = std::thread([this] { serve(); });
}

ServerDaemon::~ServerDaemon() { stop(); }

void ServerDaemon::stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  inbox_.close();
  if (thread_.joinable()) thread_.join();
}

void ServerDaemon::serve() {
  const bool observed = obs::enabled();
  const double up_since_us =
      observed ? obs::WallClock::instance().now_us() : 0.0;
  double busy_us = 0.0;
  std::uint64_t requests = 0;
  while (std::optional<SedRequest> request = inbox_.receive()) {
    const double handle_start_us =
        observed ? obs::WallClock::instance().now_us() : 0.0;
    std::visit([this](const auto& r) { handle(r); }, *request);
    if (observed) {
      busy_us += obs::WallClock::instance().now_us() - handle_start_us;
      ++requests;
    }
  }
  if (observed) {
    const double uptime_us =
        obs::WallClock::instance().now_us() - up_since_us;
    const std::string prefix = "middleware.sed." + std::to_string(id_);
    obs::metrics().counter(prefix + ".requests").add(requests);
    obs::metrics()
        .gauge(prefix + ".busy_ratio")
        .set(uptime_us > 0.0 ? busy_us / uptime_us : 0.0);
  }
}

void ServerDaemon::handle(const PerfRequest& request) {
  obs::ScopedTimer timer(
      obs::enabled() ? &obs::metrics().histogram("middleware.sed.perf_us")
                     : nullptr);
  PerfResponse response;
  response.request_id = request.request_id;
  response.cluster = id_;
  response.performance = sim::performance_vector(
      cluster_, request.scenarios, request.months, request.heuristic);
  if (request.reply) request.reply->send(SedResponse{std::move(response)});
}

void ServerDaemon::handle(const ExecuteRequest& request) {
  obs::ScopedTimer timer(
      obs::enabled() ? &obs::metrics().histogram("middleware.sed.execute_us")
                     : nullptr);
  ExecuteResponse response;
  response.request_id = request.request_id;
  response.cluster = id_;
  if (request.scenarios > 0) {
    const appmodel::Ensemble ensemble{request.scenarios, request.months};
    sim::SimOptions options;
    options.capture_trace = obs::enabled();
    const sim::SimResult result =
        sim::run_share(cluster_, id_, request.heuristic, ensemble,
                       request.fault, request.migrate_staging, options);
    response.makespan = result.makespan;
    response.fault = result.fault;
    response.group_utilization = result.group_utilization;
    if (obs::enabled()) {
      sim::export_sim_timeline(result.trace, obs::trace_buffer(),
                               id_ * kSimTrackStride, cluster_.name());
      obs::metrics()
          .gauge("sim.cluster." + cluster_.name() + ".utilization")
          .set(result.group_utilization);
    }
  }
  if (request.reply) request.reply->send(SedResponse{std::move(response)});
}

}  // namespace oagrid::middleware
