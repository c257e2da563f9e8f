#include "sim/ensemble_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>

#include "common/rng.hpp"
#include "fault/checkpoint.hpp"
#include "obs/obs.hpp"
#include "sim/calendar.hpp"
#include "sim/post_pool.hpp"

namespace oagrid::sim {
namespace {

struct Group {
  ProcCount size = 0;
  Seconds main_time = 0.0;
  bool busy = false;
  bool retired = false;
  Seconds busy_seconds = 0.0;
  Seconds current_start = 0.0;    ///< in-flight main task bounds (busy only)
  Seconds current_end = 0.0;
  ScenarioId current_scenario = 0;
  MonthIndex current_month = 0;
  bool current_fails = false;  ///< the in-flight main's output will be lost
  // Failure-injection state; untouched (and behavior-neutral) without an
  // active FaultOptions.
  bool down = false;              ///< node set currently unavailable
  std::uint32_t epoch = 0;        ///< bumped per outage; stales kMainDone
  Seconds pending_repair = 0.0;   ///< duration of the scheduled next outage
  std::size_t rank = 0;  ///< position in (main time, index) order
};

struct Scenario {
  MonthIndex months_done = 0;       ///< completed months
  MonthIndex months_dispatched = 0; ///< started (or completed) months
  bool running = false;
  int pinned_group = -1;   ///< wait-for-repair: resume only on this group
  bool needs_staging = false;  ///< migrate-with-state: next month re-stages
};

/// The calendar's event vocabulary: a main task finishing, or a node set
/// failing / coming back. Posts never feed back into main dispatch, so they
/// are resolved off the calendar (sim/post_pool.hpp). Plain struct —
/// scheduling one is a push into the calendar's flat heap, not a
/// std::function allocation. A completion names only its group: the
/// group's in-flight state says which month it was and whether it failed.
struct SimEvent {
  enum class Kind : std::uint8_t { kMainDone, kNodeDown, kNodeUp };
  Kind kind = Kind::kMainDone;
  int unit = 0;  ///< group index
  /// Group epoch at schedule time; a kMainDone whose epoch no longer matches
  /// was killed by an outage (the calendar has no removal — §fault docs).
  std::uint32_t epoch = 0;
};

/// No scenario offered: see EnsembleSimulation::dispatch_mains.
constexpr std::uint64_t kNoOffer = ~std::uint64_t{0};

class EnsembleSimulation {
 public:
  EnsembleSimulation(const platform::Cluster& cluster,
                     const sched::GroupSchedule& schedule,
                     const appmodel::Ensemble& ensemble,
                     const SimOptions& options)
      : cluster_(cluster),
        schedule_(schedule),
        months_(static_cast<MonthIndex>(ensemble.months)),
        total_months_(ensemble.scenarios * ensemble.months),
        options_(options),
        rng_(options.perturbation.seed),
        post_rng_(Rng(options.perturbation.seed).split()),
        fault_active_(options.fault.active()) {
    ensemble.validate();
    OAGRID_REQUIRE(options.restart_handoff >= 0.0,
                   "restart hand-off must be >= 0");
    // Jitter scales durations by exp(N(0, jitter)); a main that fails with
    // probability 1 re-runs forever.
    const PerturbationModel& perturbation = options.perturbation;
    OAGRID_REQUIRE(std::isfinite(perturbation.duration_jitter) &&
                       perturbation.duration_jitter >= 0.0,
                   "duration jitter must be finite and >= 0");
    OAGRID_REQUIRE(perturbation.failure_probability >= 0.0 &&
                       perturbation.failure_probability < 1.0,
                   "task failure probability must be in [0, 1)");
    if (fault_active_) {
      OAGRID_REQUIRE(options.fault.checkpoint_months >= 1,
                     "checkpoint cadence must be >= 1 month");
      OAGRID_REQUIRE(options.fault.migrate_staging >= 0.0,
                     "migration staging must be >= 0");
    }
    schedule_.validate(cluster_);
    const std::size_t group_count = schedule_.group_sizes.size();
    groups_.reserve(group_count);
    for (const ProcCount size : schedule_.group_sizes)
      groups_.push_back(Group{size, cluster_.main_time(size), false, false, 0.0});
    // Idle groups are a bitset in (main time, index) order, so the fastest
    // idle group is the first set bit.
    by_rank_.resize(group_count);
    std::iota(by_rank_.begin(), by_rank_.end(), 0);
    std::stable_sort(by_rank_.begin(), by_rank_.end(), [this](int a, int b) {
      return groups_[static_cast<std::size_t>(a)].main_time <
             groups_[static_cast<std::size_t>(b)].main_time;
    });
    idle_.assign((group_count + 63) / 64, 0);
    for (std::size_t r = 0; r < group_count; ++r) {
      groups_[static_cast<std::size_t>(by_rank_[r])].rank = r;
      refresh_idle(by_rank_[r]);
    }
    scenarios_.resize(static_cast<std::size_t>(ensemble.scenarios));
    ready_.reserve(scenarios_.size());
    for (ScenarioId s = 0; s < scenario_count(); ++s) offer(s);
    // Pending events: a main and an outage or repair per group, plus the
    // stale completions of killed mains until their times pass.
    calendar_.reserve(2 * group_count + 4);
    // Every worker that ever joins is a processor of the cluster.
    posts_.reserve(static_cast<std::size_t>(cluster_.resources()));
    if (schedule_.post_policy == sched::PostPolicy::kPoolThenRetired)
      posts_.join(0.0, schedule_.post_pool);
    if (options_.capture_trace) {
      result_.trace.reserve(2 * static_cast<std::size_t>(total_months()));
      result_.trace.group_sizes = schedule_.group_sizes;
    }
  }

  SimResult run() {
    const bool observed = obs::enabled();
    const double wall_start_us =
        observed ? obs::WallClock::instance().now_us() : 0.0;
    if (fault_active_) {
      // Outage streams are per-unit deterministic (model seed, cluster,
      // group); their first windows go into the calendar before any main so
      // a t=0 outage beats a t=0 dispatch.
      outage_streams_.reserve(groups_.size());
      done_costs_.resize(static_cast<std::size_t>(scenario_count()));
      done_entries_.resize(static_cast<std::size_t>(scenario_count()));
      for (int g = 0; g < static_cast<int>(groups_.size()); ++g) {
        outage_streams_.emplace_back(*options_.fault.model,
                                     options_.fault.cluster, g);
        schedule_next_outage(g, 0.0);
      }
    }
    result_.events = drain();
    result_.makespan = std::max(result_.main_phase_end, last_post_end_);
    // Every node set died for good with months still pending: the campaign
    // cannot finish on this cluster. Surface the large-but-finite sentinel
    // (schedulers order by it) instead of a silently-short makespan.
    if (fault_active_ && months_done_total_ < total_months())
      result_.makespan = fault::kUnavailableTime;
    double busy = 0.0;
    double alloc = 0.0;
    for (const Group& g : groups_) {
      busy += g.busy_seconds * static_cast<double>(g.size);
      alloc += static_cast<double>(g.size);
    }
    result_.group_utilization =
        result_.makespan > 0.0 ? busy / (alloc * result_.makespan) : 0.0;
    // Metrics are aggregated once per run, not per event, so the simulator's
    // hot loop carries no instrumentation cost (gated by bench_sim_engine).
    if (observed) {
      const double wall_us =
          obs::WallClock::instance().now_us() - wall_start_us;
      // Registry lookups take a mutex and a string-keyed map walk; cached
      // references keep the per-run cost at a handful of relaxed atomics
      // (the registry guarantees reference stability, so this is safe).
      static obs::Counter& runs = obs::metrics().counter("sim.runs");
      static obs::Counter& events = obs::metrics().counter("sim.events");
      static obs::Counter& mains = obs::metrics().counter("sim.mains");
      static obs::Counter& posts = obs::metrics().counter("sim.posts");
      static obs::Counter& retries = obs::metrics().counter("sim.retries");
      static obs::Histogram& run_wall_us =
          obs::metrics().histogram("sim.run_wall_us");
      static obs::Histogram& events_per_sec =
          obs::metrics().histogram("sim.events_per_sec");
      static obs::Histogram& group_busy =
          obs::metrics().histogram("sim.group.busy_ratio");
      static obs::Histogram& group_idle =
          obs::metrics().histogram("sim.group.idle_seconds");
      runs.add();
      events.add(result_.events);
      mains.add(static_cast<std::uint64_t>(result_.mains_executed));
      posts.add(static_cast<std::uint64_t>(result_.posts_executed));
      retries.add(static_cast<std::uint64_t>(result_.retries));
      run_wall_us.record(wall_us);
      if (wall_us > 0.0)
        events_per_sec.record(static_cast<double>(result_.events) /
                              (wall_us * 1e-6));
      for (const Group& g : groups_) {
        const double group_busy_ratio =
            result_.makespan > 0.0 ? g.busy_seconds / result_.makespan : 0.0;
        group_busy.record(group_busy_ratio);
        group_idle.record(std::max(0.0, result_.makespan - g.busy_seconds));
      }
      if (fault_active_) {
        static obs::Counter& fault_outages =
            obs::metrics().counter("fault.outages");
        static obs::Counter& fault_kills = obs::metrics().counter("fault.kills");
        static obs::Counter& fault_rewound =
            obs::metrics().counter("fault.rewound_months");
        static obs::Histogram& fault_downtime =
            obs::metrics().histogram("fault.downtime_seconds");
        static obs::Histogram& fault_lost =
            obs::metrics().histogram("fault.lost_seconds");
        fault_outages.add(static_cast<std::uint64_t>(result_.fault.outages));
        fault_kills.add(static_cast<std::uint64_t>(result_.fault.kills));
        fault_rewound.add(
            static_cast<std::uint64_t>(result_.fault.rewound_months));
        fault_downtime.record(result_.fault.downtime_seconds);
        fault_lost.record(result_.fault.lost_seconds);
      }
    }
    return std::move(result_);
  }

 private:
  /// Runs the calendar dry; returns the number of events executed. Every
  /// pass dispatches onto what the last event freed, then settles the posts
  /// that start by now. Once the calendar has drained no worker joins any
  /// more, so the last pass settles every post.
  std::size_t drain() {
    std::size_t executed = 0;
    std::uint64_t offered = kNoOffer;
    for (;;) {
      dispatch_mains(offered);
      const bool drained = calendar_.empty();
      settle_posts(drained ? kInfiniteTime : calendar_.now());
      if (drained) return executed;
      const SimEvent event = calendar_.pop();
      ++executed;
      offered = kNoOffer;
      switch (event.kind) {
        case SimEvent::Kind::kMainDone:
          offered = finish_main(event.unit, event.epoch);
          break;
        case SimEvent::Kind::kNodeDown:
          handle_node_down(event.unit);
          break;
        case SimEvent::Kind::kNodeUp:
          handle_node_up(event.unit);
          break;
      }
    }
  }

  Count total_months() const { return total_months_; }

  ScenarioId scenario_count() const {
    return static_cast<ScenarioId>(scenarios_.size());
  }

  bool scenario_available(ScenarioId s) const {
    const Scenario& sc = scenarios_[static_cast<std::size_t>(s)];
    // A pinned scenario (wait-for-repair) is served by its own dispatch
    // pass, not the shared pool; pins only exist under fault injection.
    return !sc.running && sc.pinned_group < 0 && sc.months_dispatched < months_;
  }

  /// Scenario s's key in the least-advanced heap, (months_done, id), or
  /// kNoOffer when it cannot take a month now. The heap holds each available
  /// scenario exactly once: a scenario's months_done only changes while it
  /// runs, so a key never goes stale.
  std::uint64_t ready_key(ScenarioId s) const {
    if (!scenario_available(s)) return kNoOffer;
    const auto done = static_cast<std::uint64_t>(
        scenarios_[static_cast<std::size_t>(s)].months_done);
    return done << 32 | static_cast<std::uint32_t>(s);
  }

  void push_ready(std::uint64_t key) {
    ready_.push_back(key);
    std::push_heap(ready_.begin(), ready_.end(), std::greater<>{});
  }

  /// Offers scenario s to the least-advanced heap if it can take a month.
  void offer(ScenarioId s) {
    if (const std::uint64_t key = ready_key(s); key != kNoOffer)
      push_ready(key);
  }

  /// Removes and returns the least-advanced available scenario (fewest
  /// completed months, then lowest id; paper §4.3), counting `offered` as
  /// if it had been pushed first. Precondition: one is.
  ScenarioId take_least_advanced(std::uint64_t offered) {
    std::uint64_t taken = offered;
    if (offered == kNoOffer) {
      std::pop_heap(ready_.begin(), ready_.end(), std::greater<>{});
      taken = ready_.back();
      ready_.pop_back();
    } else if (!ready_.empty() && ready_.front() < offered) {
      // The offered key replaces the top and sinks to its place.
      taken = ready_.front();
      const std::size_t n = ready_.size();
      std::size_t i = 0;
      for (std::size_t c = 1; c < n; c = 2 * i + 1) {
        if (c + 1 < n && ready_[c + 1] < ready_[c]) ++c;
        if (!(ready_[c] < offered)) break;
        ready_[i] = ready_[c];
        i = c;
      }
      ready_[i] = offered;
    }
    return static_cast<ScenarioId>(taken & 0xFFFFFFFFu);
  }

  /// Re-derives group g's bit in the idle set (idle = not busy, retired or
  /// down); called at every one of those transitions.
  void refresh_idle(int g) {
    const Group& group = groups_[static_cast<std::size_t>(g)];
    const std::uint64_t bit = std::uint64_t{1} << (group.rank % 64);
    std::uint64_t& word = idle_[group.rank / 64];
    if (group.busy || group.retired || group.down)
      word &= ~bit;
    else
      word |= bit;
  }

  /// Fastest idle group (smallest main time, then index); -1 when every
  /// group is busy, retired or down.
  int first_idle_group() const {
    for (std::size_t w = 0; w < idle_.size(); ++w)
      if (idle_[w] != 0)
        return by_rank_[w * 64 + static_cast<std::size_t>(
                                     std::countr_zero(idle_[w]))];
    return -1;
  }

  void unpin(Scenario& sc) {
    sc.pinned_group = -1;
    --pinned_;
  }

  /// Resumes every pinned scenario (wait-for-repair) whose own group is
  /// idle; true when one started.
  bool resume_pinned() {
    bool started = false;
    for (ScenarioId s = 0; s < scenario_count(); ++s) {
      Scenario& sc = scenarios_[static_cast<std::size_t>(s)];
      if (sc.pinned_group < 0 || sc.running) continue;
      if (sc.months_dispatched >= months_) {
        unpin(sc);
        continue;
      }
      const int g = sc.pinned_group;
      const Group& group = groups_[static_cast<std::size_t>(g)];
      if (group.busy || group.retired || group.down) continue;
      unpin(sc);  // the pin covers one resumption, not forever
      start_main(g, s);
      started = true;
    }
    return started;
  }

  /// Pairs available scenarios with idle groups until neither remains,
  /// then retires the idle groups once every month is dispatched.
  /// `offered` is the ready key of the scenario the last completion freed
  /// (kNoOffer for none): it counts as in the heap, and the first pick
  /// takes it or swaps it for the top instead of a push and a pop.
  void dispatch_mains(std::uint64_t offered) {
    // Pinned scenarios (wait-for-repair, so only under fault injection)
    // resume on their own group before the shared pool is served; keep
    // alternating until a full round makes no progress.
    for (bool progress = true; progress;) {
      progress = pinned_ > 0 && resume_pinned();
      if (offered == kNoOffer && ready_.empty()) continue;
      const int g = first_idle_group();
      if (g < 0) continue;
      start_main(g, take_least_advanced(offered));
      offered = kNoOffer;
      progress = true;
    }
    if (offered != kNoOffer) push_ready(offered);
    if (months_dispatched_total_ == total_months()) retire_idle_groups();
  }

  /// Applies the multiplicative duration jitter (1.0 when inactive),
  /// drawing from `rng`.
  Seconds jittered(Rng& rng, Seconds base) const {
    const double sigma = options_.perturbation.duration_jitter;
    if (sigma <= 0.0) return base;
    return base * std::exp(rng.normal(0.0, sigma));
  }

  void start_main(int g, ScenarioId s) {
    Group& group = groups_[static_cast<std::size_t>(g)];
    Scenario& scenario = scenarios_[static_cast<std::size_t>(s)];
    const MonthIndex month = scenario.months_dispatched;
    ++scenario.months_dispatched;
    ++months_dispatched_total_;
    scenario.running = true;
    group.busy = true;
    refresh_idle(g);
    // Months after the first stall on the restart hand-off before compute
    // starts; the group is occupied (busy, not retirable) while it waits.
    Seconds duration = jittered(rng_, group.main_time) +
                       (month > 0 ? options_.restart_handoff : 0.0);
    if (fault_active_ && scenario.needs_staging) {
      // Migrate-with-state: the first month after a migration re-stages the
      // scenario's restart state onto the new node set.
      duration += options_.fault.migrate_staging;
      scenario.needs_staging = false;
    }
    group.current_fails =
        options_.perturbation.failure_probability > 0.0 &&
        rng_.uniform() < options_.perturbation.failure_probability;
    group.busy_seconds += duration;
    // Nothing is recorded yet: the projected end may never happen (an
    // outage can kill the month), so the trace entry waits for the outcome.
    group.current_start = calendar_.now();
    group.current_end = group.current_start + duration;
    group.current_scenario = s;
    group.current_month = month;
    calendar_.schedule(group.current_end,
                       SimEvent{SimEvent::Kind::kMainDone, g, group.epoch});
  }

  /// Ends group g's in-flight main; returns the ready key of its scenario
  /// (kNoOffer when it cannot take a month now) for dispatch_mains.
  std::uint64_t finish_main(int g, std::uint32_t epoch) {
    Group& group = groups_[static_cast<std::size_t>(g)];
    // Stale completion: the month was killed by an outage after this event
    // was scheduled (the calendar has no removal; the epoch bump at kill
    // time invalidates it).
    if (fault_active_ && epoch != group.epoch) return kNoOffer;
    const ScenarioId s = group.current_scenario;
    const MonthIndex month = group.current_month;
    const bool failed = group.current_fails;
    Scenario& scenario = scenarios_[static_cast<std::size_t>(s)];
    group.busy = false;
    refresh_idle(g);
    scenario.running = false;
    const std::size_t entry = result_.trace.entries().size();
    if (options_.capture_trace)
      result_.trace.record(
          TraceEntry{UnitKind::kGroup, g, s, month, group.current_start,
                     calendar_.now(), failed ? Outcome::kRetry : Outcome::kDone});

    if (failed) {
      // The month's output is lost; roll the dispatch state back so the
      // month re-runs (restart-file recovery).
      ++result_.retries;
      --scenario.months_dispatched;
      --months_dispatched_total_;
    } else {
      ++scenario.months_done;
      ++months_done_total_;
      ++result_.mains_executed;
      result_.main_phase_end =
          std::max(result_.main_phase_end, calendar_.now());
      if (fault_active_) {
        // Remember what each month since the last checkpoint cost, and
        // where it was recorded, so a rewind can account the thrown-away
        // work exactly. A rewind never goes below the last multiple of the
        // cadence, so a month that reaches one drops the list: it holds
        // months_done % cadence months, and this one makes that 0.
        auto& costs = done_costs_[static_cast<std::size_t>(s)];
        auto& entries = done_entries_[static_cast<std::size_t>(s)];
        if (static_cast<MonthIndex>(costs.size()) + 1 ==
            options_.fault.checkpoint_months) {
          costs.clear();
          entries.clear();
        } else {
          costs.push_back(calendar_.now() - group.current_start);
          if (options_.capture_trace) entries.push_back(entry);
        }
      }
      posts_.arrive(s, month, calendar_.now());
    }

    if (months_done_total_ == total_months() &&
        schedule_.post_policy == sched::PostPolicy::kAllAtEnd) {
      // The whole cluster, the pool's processors among them, turns into
      // post workers (paper's Improvement 2: "leave all the post-processing
      // at the end").
      posts_.join(calendar_.now(), cluster_.resources());
    }
    return ready_key(s);
  }

  void retire_idle_groups() {
    for (int g = 0; g < static_cast<int>(groups_.size()); ++g) {
      Group& group = groups_[static_cast<std::size_t>(g)];
      // A down group cannot retire: its processors are unavailable, not
      // idle, and a rewind may still need it after repair.
      if (group.busy || group.retired || group.down) continue;
      group.retired = true;
      refresh_idle(g);
      if (schedule_.post_policy == sched::PostPolicy::kPoolThenRetired)
        posts_.join(calendar_.now(), group.size);
    }
  }

  /// Settles every post that starts at or before `now`. A post always
  /// completes, so it is counted and recorded when settled. Post jitter has
  /// its own stream, drawn in arrival order, so no main draw depends on the
  /// post pool.
  void settle_posts(Seconds now) {
    posts_.resolve(
        now, [this] { return jittered(post_rng_, cluster_.post_time()); },
        [this](const PostPool::Resolved& post) {
          ++result_.posts_executed;
          last_post_end_ = std::max(last_post_end_, post.end);
          if (options_.capture_trace)
            result_.trace.record(TraceEntry{UnitKind::kPostWorker, post.worker,
                                            post.scenario, post.month,
                                            post.start, post.end});
        });
  }

  /// Draws the group's next outage window at-or-after `t` and schedules its
  /// kNodeDown; at most one outage per group is ever pending.
  void schedule_next_outage(int g, Seconds t) {
    const auto window = outage_streams_[static_cast<std::size_t>(g)].next(t);
    if (!window.has_value()) return;
    groups_[static_cast<std::size_t>(g)].pending_repair = window->duration;
    calendar_.schedule(window->start,
                       SimEvent{SimEvent::Kind::kNodeDown, g, 0});
  }

  void handle_node_down(int g) {
    Group& group = groups_[static_cast<std::size_t>(g)];
    // Once the main phase is over (or this group has retired into post
    // workers) failures stop mattering: post tasks are minutes long and can
    // run anywhere, so the simulation ignores late outages — this also
    // guarantees the calendar drains.
    if (group.retired || months_done_total_ == total_months()) return;
    ++result_.fault.outages;
    ++group.epoch;  // invalidates any in-flight kMainDone for this group
    group.down = true;
    refresh_idle(g);
    const Seconds repair = group.pending_repair;
    const bool permanent = repair >= kInfiniteTime;
    if (!permanent) result_.fault.downtime_seconds += repair;
    if (group.busy) kill_in_flight(g);
    if (permanent) {
      // The node set never comes back; release any scenario waiting on it
      // so wait-for-repair cannot deadlock on dead hardware.
      for (ScenarioId s = 0; s < scenario_count(); ++s) {
        Scenario& sc = scenarios_[static_cast<std::size_t>(s)];
        if (sc.pinned_group != g) continue;
        unpin(sc);
        offer(s);
      }
    } else {
      calendar_.schedule(
          calendar_.now() + repair,
          SimEvent{SimEvent::Kind::kNodeUp, g, group.epoch});
    }
  }

  void handle_node_up(int g) {
    Group& group = groups_[static_cast<std::size_t>(g)];
    group.down = false;
    refresh_idle(g);
    if (!group.retired && months_done_total_ < total_months())
      schedule_next_outage(g, calendar_.now());
  }

  /// An outage caught group g mid-month: the month's work is lost and the
  /// scenario rewinds to its last k-month restart checkpoint.
  void kill_in_flight(int g) {
    Group& group = groups_[static_cast<std::size_t>(g)];
    const ScenarioId s = group.current_scenario;
    Scenario& scenario = scenarios_[static_cast<std::size_t>(s)];
    const Seconds now = calendar_.now();
    if (options_.capture_trace)
      result_.trace.record(TraceEntry{UnitKind::kGroup, g, s,
                                      group.current_month, group.current_start,
                                      now, Outcome::kKilled});
    ++result_.fault.kills;
    result_.fault.lost_seconds += now - group.current_start;
    // The start charged the whole projected duration; give back the part
    // that never ran.
    group.busy_seconds -= group.current_end - now;
    group.busy = false;
    scenario.running = false;
    --scenario.months_dispatched;
    --months_dispatched_total_;
    // Rewind completed months past the checkpoint: restart files only exist
    // every checkpoint_months months, so the in-between output is lost too.
    const MonthIndex cadence = options_.fault.checkpoint_months;
    const MonthIndex keep = (scenario.months_done / cadence) * cadence;
    const MonthIndex rewound = scenario.months_done - keep;
    if (rewound > 0) {
      result_.fault.rewound_months += rewound;
      // OAGRID_MUTATION_SKIP_REWIND is the seeded defect of the mutation
      // smoke-check (tools/CMakeLists.txt): the rewind is accounted but the
      // frontier is never rolled back, so the rewound months are not
      // re-executed. The fault-work-conservation property
      // (mains_executed == total_tasks + rewound_months) must catch it.
#ifndef OAGRID_MUTATION_SKIP_REWIND
      auto& costs = done_costs_[static_cast<std::size_t>(s)];
      for (MonthIndex i = 0; i < rewound; ++i) {
        result_.fault.lost_seconds += costs.back();
        costs.pop_back();
        if (options_.capture_trace) {
          auto& entries = done_entries_[static_cast<std::size_t>(s)];
          result_.trace.set_outcome(entries.back(), Outcome::kRewound);
          entries.pop_back();
        }
      }
      scenario.months_done = keep;
      months_done_total_ -= rewound;
      scenario.months_dispatched -= rewound;
      months_dispatched_total_ -= rewound;
#endif
    }
    switch (options_.fault.recovery) {
      case fault::RecoveryPolicy::kWaitForRepair:
        scenario.pinned_group = g;
        ++pinned_;
        break;
      case fault::RecoveryPolicy::kRescheduleInCluster:
        break;
      case fault::RecoveryPolicy::kMigrateWithState:
        scenario.needs_staging = true;
        break;
    }
    offer(s);
  }

  const platform::Cluster& cluster_;
  const sched::GroupSchedule& schedule_;
  const MonthIndex months_;  ///< NM: every scenario runs this many months
  const Count total_months_;  ///< NS * NM, read after every event
  SimOptions options_;
  Rng rng_;       ///< main jitter and task failures, in dispatch order
  Rng post_rng_;  ///< post jitter, in post arrival order

  Calendar<SimEvent> calendar_;
  std::vector<Group> groups_;
  std::vector<Scenario> scenarios_;
  std::vector<int> by_rank_;          ///< group indexes in (main time, index)
  std::vector<std::uint64_t> idle_;   ///< idle bit per rank
  std::vector<std::uint64_t> ready_;  ///< min-heap of (months_done, id)
  int pinned_ = 0;                    ///< scenarios waiting for their group

  Count months_dispatched_total_ = 0;
  Count months_done_total_ = 0;

  const bool fault_active_ = false;
  std::vector<fault::OutageStream> outage_streams_;  ///< one per group
  /// Per-scenario cost of each month completed since the scenario's last
  /// checkpoint (months_done % checkpoint_months of them), in completion
  /// order; popped on rewind for exact lost-work accounting. Maintained only
  /// under fault injection.
  std::vector<std::vector<Seconds>> done_costs_;
  /// The trace entries of those months, popped alongside to re-mark them
  /// rewound. Filled only under fault injection with capture_trace.
  std::vector<std::vector<std::size_t>> done_entries_;

  PostPool posts_;
  Seconds last_post_end_ = 0.0;

  SimResult result_;
};

}  // namespace

SimResult simulate_ensemble(const platform::Cluster& cluster,
                            const sched::GroupSchedule& schedule,
                            const appmodel::Ensemble& ensemble,
                            const SimOptions& options) {
  EnsembleSimulation simulation(cluster, schedule, ensemble, options);
  return simulation.run();
}

SimResult simulate_with_heuristic(const platform::Cluster& cluster,
                                  sched::Heuristic heuristic,
                                  const appmodel::Ensemble& ensemble,
                                  const SimOptions& options) {
  const sched::GroupSchedule schedule =
      sched::make_schedule(heuristic, cluster, ensemble);
  return simulate_ensemble(cluster, schedule, ensemble, options);
}

}  // namespace oagrid::sim
