#include "workload/dcsim.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>

#include "fault/fault_schedule.hh"
#include "guard/checkpoint.hh"
#include "obs/obs.hh"
#include "util/error.hh"

namespace tts {
namespace workload {

namespace {

double
spreadOf(const std::vector<double> &utils)
{
    if (utils.empty())
        return 0.0;
    double mean = 0.0;
    for (double u : utils)
        mean += u;
    mean /= static_cast<double>(utils.size());
    double spread = 0.0;
    for (double u : utils)
        spread = std::max(spread, std::abs(u - mean));
    return spread;
}

} // namespace

double
DcSimResult::utilizationSpread() const
{
    return spreadOf(perServerUtilization);
}

double
DcSimResult::rackUtilizationSpread() const
{
    return spreadOf(perRackUtilization);
}

ClusterSim::ClusterSim(const DcSimConfig &config,
                       std::unique_ptr<LoadBalancer> balancer)
    : config_(config), balancer_(std::move(balancer))
{
    require(config_.serverCount >= 1, "ClusterSim: need servers");
    require(config_.slotsPerServer >= 1, "ClusterSim: need slots");
    require(config_.meanServiceTimeS > 0.0,
            "ClusterSim: mean service time must be > 0");
    require(config_.statsIntervalS > 0.0,
            "ClusterSim: stats interval must be > 0");
    if (!balancer_)
        balancer_ = std::make_unique<RoundRobinBalancer>();
}

namespace {

/** Departure event in the global heap. */
struct Departure
{
    double time;
    std::size_t server;
    std::uint64_t job_id;
    /** Server incarnation the job started under; a crash bumps the
     *  server's epoch so stale departures are discarded instead of
     *  being credited to the dead (or reborn) server. */
    std::uint64_t epoch;

    bool operator>(const Departure &o) const { return time > o.time; }
};

/** Per-server state. */
struct ServerState
{
    std::size_t busy = 0;                 //!< Occupied slots.
    std::deque<Job> queue;                //!< Waiting jobs.
    double busy_integral = 0.0;           //!< Slot-seconds served.
    double last_update = 0.0;

    void
    accumulate(double now)
    {
        busy_integral += static_cast<double>(busy) *
            (now - last_update);
        last_update = now;
    }
};

/** Latency bookkeeping for a job in the system. */
struct InFlight
{
    double arrival;
    JobClass job_class;
};

const std::vector<fault::FaultEvent> &
eventsOf(const fault::FaultSchedule *faults)
{
    static const std::vector<fault::FaultEvent> no_events;
    return faults ? faults->events() : no_events;
}

const WorkloadTrace &
checkedTrace(const WorkloadTrace &trace)
{
    require(trace.size() >= 2, "ClusterSim::run: trace too short");
    return trace;
}

} // namespace

/**
 * All event-loop state as members.  The departure heap is a plain
 * vector managed with std::push_heap/std::pop_heap (the same
 * algorithms std::priority_queue uses, hence the same layout and the
 * same pop order) so it can be serialized verbatim and restored
 * bit-identically.
 */
struct ClusterSimEngine::Impl
{
    DcSimConfig config;
    LoadBalancer *balancer;
    const WorkloadTrace &trace;
    const std::vector<fault::FaultEvent> &events;

    double t0, t1;
    double slots, capacity, lambda_max;

    Rng rng;
    std::vector<ServerState> servers;
    std::vector<Departure> departures;    //!< Min-heap by time.
    std::vector<std::size_t> depths;
    DcSimResult result;
    std::size_t next_fault = 0;
    std::vector<bool> alive;
    std::vector<std::uint64_t> epoch;
    std::size_t alive_count;
    int gap_depth = 0;
    std::vector<std::size_t> alive_idx, alive_depths;
    std::vector<InFlight> inflight;
    std::vector<std::size_t> free_ids;
    double next_arrival;
    double next_stats;
    std::uint64_t completed_window = 0;
    bool done = false;
    bool taken = false;

    // Cached metrics instruments (registry references are stable, so
    // the hot path pays one relaxed add, no lookup).  Bumped only
    // when collection is enabled; they mirror the DcSimResult
    // counters live, across every engine in the process.
    obs::Counter &obs_offered =
        obs::registry().counter("dcsim.jobs.offered");
    obs::Counter &obs_completed =
        obs::registry().counter("dcsim.jobs.completed");
    obs::Counter &obs_dropped =
        obs::registry().counter("dcsim.jobs.dropped");
    obs::Counter &obs_crash_killed =
        obs::registry().counter("dcsim.jobs.crash_killed");
    obs::Counter &obs_faults =
        obs::registry().counter("dcsim.fault.applied");
    obs::HistogramCell &obs_depth = obs::registry().histogram(
        "dcsim.queue.depth",
        {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});

    Impl(const DcSimConfig &cfg, LoadBalancer *lb,
         const WorkloadTrace &tr, const fault::FaultSchedule *faults)
        : config(cfg), balancer(lb), trace(checkedTrace(tr)),
          events(eventsOf(faults)), t0(trace.startTime()),
          t1(trace.endTime()),
          slots(static_cast<double>(cfg.slotsPerServer)),
          capacity(static_cast<double>(cfg.serverCount) * slots /
                   cfg.meanServiceTimeS),
          rng(cfg.seed), servers(cfg.serverCount),
          depths(cfg.serverCount, 0), alive(cfg.serverCount, true),
          epoch(cfg.serverCount, 0), alive_count(cfg.serverCount)
    {
        require(balancer != nullptr, "ClusterSimEngine: no balancer");
        for (auto &s : servers)
            s.last_update = t0;
        result.clusterUtilization.setName("cluster_util");
        result.throughput.setName("throughput_jobs_per_s");
        result.completedByServer.assign(config.serverCount, 0);
        for (const auto &e : events) {
            if (fault::kindTargetsServer(e.kind))
                require(e.target < config.serverCount,
                        "ClusterSim::run: fault targets server " +
                            std::to_string(e.target) +
                            " but the cluster has " +
                            std::to_string(config.serverCount));
        }
        applyFaultsTo(t0);

        // Thinning-based non-homogeneous Poisson arrivals: draw at
        // the peak rate and accept with prob lambda(t) / lambda_max.
        const double peak_util = std::max(trace.peak(), 1e-6);
        lambda_max = peak_util * capacity;
        next_arrival = t0 + rng.exponential(lambda_max);
        next_stats = t0 + config.statsIntervalS;
    }

    std::uint64_t
    allocId(double arrival, JobClass c)
    {
        if (!free_ids.empty()) {
            std::size_t id = free_ids.back();
            free_ids.pop_back();
            inflight[id] = {arrival, c};
            return id;
        }
        inflight.push_back({arrival, c});
        return inflight.size() - 1;
    }

    JobClass
    classAt(double t)
    {
        // Sample a job class from the trace mix at time t.
        double shares[jobClassCount];
        double total = 0.0;
        for (std::size_t i = 0; i < jobClassCount; ++i) {
            shares[i] = trace.classAt(allJobClasses[i], t);
            total += shares[i];
        }
        if (total <= 0.0)
            return allJobClasses[0];
        double u = rng.uniform() * total;
        for (std::size_t i = 0; i < jobClassCount; ++i) {
            if (u < shares[i])
                return allJobClasses[i];
            u -= shares[i];
        }
        return allJobClasses[jobClassCount - 1];
    }

    void
    pushDeparture(const Departure &d)
    {
        departures.push_back(d);
        std::push_heap(departures.begin(), departures.end(),
                       std::greater<Departure>{});
    }

    Departure
    popDeparture()
    {
        std::pop_heap(departures.begin(), departures.end(),
                      std::greater<Departure>{});
        Departure d = departures.back();
        departures.pop_back();
        return d;
    }

    void
    startJob(std::size_t sv, double now, std::uint64_t id)
    {
        servers[sv].accumulate(now);
        ++servers[sv].busy;
        double service = rng.exponential(
            1.0 / config.meanServiceTimeS);
        pushDeparture({now + service, sv, id, epoch[sv]});
    }

    // Apply every fault event with time <= t.  A crash destroys the
    // target's running and queued jobs (graceful degradation: the
    // balancer routes later arrivals around the corpse); a recovery
    // returns it empty.  Thermal-side kinds are no-ops here.
    void
    applyFaultsTo(double t)
    {
        while (next_fault < events.size() &&
               events[next_fault].timeS <= t) {
            const fault::FaultEvent &e = events[next_fault];
            ++next_fault;
            ++result.faultEventsApplied;
            TTS_OBS_COUNT(obs_faults, 1);
            TTS_OBS_EVENT(obs::EventKind::FaultInjected, e.timeS,
                          std::string("dcsim.") +
                              fault::toString(e.kind),
                          e.magnitude,
                          e.target == fault::FaultEvent::noTarget
                              ? -1
                              : static_cast<std::int64_t>(e.target));
            switch (e.kind) {
              case fault::FaultKind::ServerCrash: {
                if (!alive[e.target])
                    break;
                ServerState &sv = servers[e.target];
                sv.accumulate(t);
                std::uint64_t lost =
                    sv.busy +
                    static_cast<std::uint64_t>(sv.queue.size());
                result.droppedJobs += lost;
                result.crashKilledJobs += lost;
                TTS_OBS_COUNT(obs_dropped, lost);
                TTS_OBS_COUNT(obs_crash_killed, lost);
                TTS_OBS_EVENT(obs::EventKind::JobCrashKill, t,
                              "dcsim", static_cast<double>(lost),
                              static_cast<std::int64_t>(e.target));
                // Queued jobs free their latency slots now; running
                // jobs free theirs when their stale departure pops.
                for (const Job &j : sv.queue)
                    free_ids.push_back(j.id);
                sv.queue.clear();
                sv.busy = 0;
                depths[e.target] = 0;
                ++epoch[e.target];
                alive[e.target] = false;
                --alive_count;
                break;
              }
              case fault::FaultKind::ServerRecover:
                if (!alive[e.target]) {
                    alive[e.target] = true;
                    ++alive_count;
                }
                break;
              case fault::FaultKind::TraceGapStart:
                ++gap_depth;
                break;
              case fault::FaultKind::TraceGapEnd:
                gap_depth = std::max(0, gap_depth - 1);
                break;
              default:
                break; // Thermal-side kinds.
            }
        }
    }

    void
    recordStats(double now)
    {
        double busy_total = 0.0;
        for (auto &s : servers) {
            s.accumulate(now);
            busy_total += static_cast<double>(s.busy);
        }
        double util = busy_total /
            (static_cast<double>(config.serverCount) * slots);
        result.clusterUtilization.append(now, util);
        result.throughput.append(
            now, static_cast<double>(completed_window) /
                     config.statsIntervalS);
        completed_window = 0;
    }

    bool
    runUntil(double t_stop)
    {
        invariant(!taken, "ClusterSimEngine: run after take()");
        while (!done) {
            double next_departure = departures.empty()
                ? std::numeric_limits<double>::infinity()
                : departures.front().time;
            double next_fault_t = next_fault < events.size()
                ? events[next_fault].timeS
                : std::numeric_limits<double>::infinity();
            double now = std::min({next_arrival, next_departure,
                                   next_stats, next_fault_t});
            if (now > t1) {
                done = true;
                break;
            }
            if (now > t_stop)
                return false;

            if (now == next_fault_t) {
                // Faults win ties: a crash coinciding with a
                // departure kills the job rather than completing it.
                applyFaultsTo(now);
                continue;
            }
            if (now == next_stats) {
                recordStats(now);
                next_stats += config.statsIntervalS;
                continue;
            }
            if (now == next_departure) {
                Departure d = popDeparture();
                if (d.epoch != epoch[d.server]) {
                    // The job died with its server; it was counted
                    // as dropped at crash time - just recycle its
                    // slot.
                    free_ids.push_back(d.job_id);
                    continue;
                }
                ServerState &sv = servers[d.server];
                sv.accumulate(now);
                --sv.busy;
                --depths[d.server];
                ++result.completedJobs;
                ++result.completedByServer[d.server];
                ++completed_window;
                TTS_OBS_COUNT(obs_completed, 1);
                const InFlight &f = inflight[d.job_id];
                result.latency.add(now - f.arrival);
                for (std::size_t i = 0; i < jobClassCount; ++i) {
                    if (allJobClasses[i] == f.job_class)
                        ++result.completedByClass[i];
                }
                free_ids.push_back(d.job_id);
                if (!sv.queue.empty()) {
                    // The queued job was already counted in depths
                    // at arrival; it stays in the system, so no
                    // increment.
                    Job j = sv.queue.front();
                    sv.queue.pop_front();
                    startJob(d.server, now, j.id);
                }
                continue;
            }

            // Arrival (possibly thinned away).
            next_arrival = now + rng.exponential(lambda_max);
            if (gap_depth > 0)
                continue; // Trace dark: the job is never offered.
            double lambda = trace.totalAt(now) * capacity;
            if (rng.uniform() * lambda_max > lambda)
                continue;
            ++result.offeredJobs;
            TTS_OBS_COUNT(obs_offered, 1);
            if (alive_count == 0) {
                ++result.droppedJobs;
                ++result.rejectedNoAliveServer;
                TTS_OBS_COUNT(obs_dropped, 1);
                continue;
            }
            std::size_t sv;
            if (alive_count == config.serverCount) {
                sv = balancer->pick(depths);
            } else {
                // Re-dispatch around dead servers: offer the
                // balancer the compacted alive view and map its pick
                // back.
                alive_idx.clear();
                alive_depths.clear();
                for (std::size_t i = 0; i < config.serverCount; ++i) {
                    if (alive[i]) {
                        alive_idx.push_back(i);
                        alive_depths.push_back(depths[i]);
                    }
                }
                sv = alive_idx[balancer->pick(alive_depths)];
            }
            ServerState &state = servers[sv];
            std::uint64_t id = allocId(now, classAt(now));
            bool accepted = true;
            if (state.busy < config.slotsPerServer) {
                ++depths[sv];
                startJob(sv, now, id);
            } else if (state.queue.size() < config.queueCapPerServer) {
                ++depths[sv];
                state.queue.push_back(Job{id, inflight[id].job_class,
                                          now, 0.0});
                result.maxQueueDepth =
                    std::max(result.maxQueueDepth,
                             state.queue.size());
            } else {
                ++result.droppedJobs;
                free_ids.push_back(id);
                accepted = false;
                TTS_OBS_COUNT(obs_dropped, 1);
            }
            if (accepted && obs::enabled()) {
                obs_depth.observe(
                    static_cast<double>(depths[sv]));
                obs::emitEvent(obs::EventKind::JobDispatch, now,
                               "dcsim",
                               static_cast<double>(depths[sv]),
                               static_cast<std::int64_t>(sv));
            }
        }
        return true;
    }

    DcSimResult
    take()
    {
        require(done, "ClusterSimEngine::take: run not finished");
        invariant(!taken, "ClusterSimEngine::take: called twice");
        taken = true;

        result.perServerUtilization.resize(config.serverCount);
        for (std::size_t i = 0; i < config.serverCount; ++i) {
            servers[i].accumulate(t1);
            result.perServerUtilization[i] =
                servers[i].busy_integral / ((t1 - t0) * slots);
            result.residualJobs +=
                servers[i].busy + servers[i].queue.size();
        }

        // Rack-level aggregation (the paper's DCSim models the
        // server, rack, and cluster levels).
        std::size_t per_rack = std::max<std::size_t>(
            config.serversPerRack, 1);
        for (std::size_t start = 0; start < config.serverCount;
             start += per_rack) {
            std::size_t end =
                std::min(start + per_rack, config.serverCount);
            double mean = 0.0;
            for (std::size_t i = start; i < end; ++i)
                mean += result.perServerUtilization[i];
            result.perRackUtilization.push_back(
                mean / static_cast<double>(end - start));
        }
        return std::move(result);
    }

    void
    save(guard::CheckpointWriter &w) const
    {
        invariant(!taken, "ClusterSimEngine::save: after take()");
        w.section("dcsim");
        w.putU64("servers", config.serverCount);

        Rng::State rs = rng.state();
        w.putU64Vector("rng.s", {rs.s[0], rs.s[1], rs.s[2], rs.s[3]});
        w.putBool("rng.have_spare", rs.haveSpare);
        w.put("rng.spare", rs.spare);

        for (std::size_t i = 0; i < servers.size(); ++i) {
            const ServerState &s = servers[i];
            const std::string p = "server." + std::to_string(i) + ".";
            w.putU64(p + "busy", s.busy);
            w.put(p + "busy_integral", s.busy_integral);
            w.put(p + "last_update", s.last_update);
            w.putU64(p + "queue_len", s.queue.size());
            for (const Job &j : s.queue) {
                std::vector<double> job = {
                    static_cast<double>(j.id),
                    static_cast<double>(static_cast<int>(j.jobClass)),
                    j.arrivalTime, j.serviceTime};
                w.putVector(p + "job", job);
            }
        }

        // The heap vector is serialized in layout order and restored
        // verbatim: it is already a valid heap, so no rebuild (which
        // could reorder equal keys) is needed.
        w.putU64("departures", departures.size());
        for (const Departure &d : departures) {
            w.put("dep.time", d.time);
            w.putU64("dep.server", d.server);
            w.putU64("dep.job", d.job_id);
            w.putU64("dep.epoch", d.epoch);
        }

        std::vector<std::uint64_t> u64s(depths.begin(), depths.end());
        w.putU64Vector("depths", u64s);
        w.putU64("next_fault", next_fault);
        u64s.clear();
        for (bool a : alive)
            u64s.push_back(a ? 1 : 0);
        w.putU64Vector("alive", u64s);
        w.putU64Vector("epoch", epoch);
        w.putU64("alive_count", alive_count);
        w.putI64("gap_depth", gap_depth);

        w.putU64("inflight", inflight.size());
        for (const InFlight &f : inflight) {
            w.put("inflight.arrival", f.arrival);
            w.putI64("inflight.class",
                     static_cast<int>(f.job_class));
        }
        u64s.assign(free_ids.begin(), free_ids.end());
        w.putU64Vector("free_ids", u64s);

        w.put("next_arrival", next_arrival);
        w.put("next_stats", next_stats);
        w.putU64("completed_window", completed_window);
        w.putBool("done", done);

        w.putSeries("util", result.clusterUtilization);
        w.putSeries("tput", result.throughput);
        w.putU64("completed", result.completedJobs);
        w.putU64("dropped", result.droppedJobs);
        w.putU64("offered", result.offeredJobs);
        w.putU64("max_queue_depth", result.maxQueueDepth);
        w.putU64("crash_killed", result.crashKilledJobs);
        w.putU64("rejected_no_alive", result.rejectedNoAliveServer);
        w.putU64Vector("completed_by_server",
                       result.completedByServer);
        w.putU64("fault_events", result.faultEventsApplied);
        RunningStats::Snapshot lat = result.latency.snapshot();
        w.putU64("latency.n", lat.n);
        w.put("latency.mean", lat.mean);
        w.put("latency.m2", lat.m2);
        w.put("latency.min", lat.min);
        w.put("latency.max", lat.max);
        w.put("latency.sum", lat.sum);
        w.putU64Vector("completed_by_class",
                       {result.completedByClass[0],
                        result.completedByClass[1],
                        result.completedByClass[2]});

        std::vector<std::uint64_t> bal;
        balancer->saveState(bal);
        w.putU64Vector("balancer", bal);
    }

    void
    restore(guard::CheckpointReader &r)
    {
        r.expectSection("dcsim");
        require(r.expectU64("servers") == config.serverCount,
                "dcsim checkpoint: server count mismatch");

        std::vector<std::uint64_t> words = r.expectU64Vector("rng.s");
        require(words.size() == 4, "dcsim checkpoint: bad rng state");
        Rng::State rs;
        for (int i = 0; i < 4; ++i)
            rs.s[i] = words[i];
        rs.haveSpare = r.expectBool("rng.have_spare");
        rs.spare = r.expect("rng.spare");
        rng.setState(rs);

        for (std::size_t i = 0; i < servers.size(); ++i) {
            ServerState &s = servers[i];
            const std::string p = "server." + std::to_string(i) + ".";
            s.busy = static_cast<std::size_t>(
                r.expectU64(p + "busy"));
            s.busy_integral = r.expect(p + "busy_integral");
            s.last_update = r.expect(p + "last_update");
            std::uint64_t qlen = r.expectU64(p + "queue_len");
            s.queue.clear();
            for (std::uint64_t q = 0; q < qlen; ++q) {
                std::vector<double> job = r.expectVector(p + "job");
                require(job.size() == 4,
                        "dcsim checkpoint: bad job record");
                s.queue.push_back(Job{
                    static_cast<std::uint64_t>(job[0]),
                    static_cast<JobClass>(
                        static_cast<int>(job[1])),
                    job[2], job[3]});
            }
        }

        std::uint64_t ndep = r.expectU64("departures");
        departures.clear();
        for (std::uint64_t i = 0; i < ndep; ++i) {
            Departure d;
            d.time = r.expect("dep.time");
            d.server = static_cast<std::size_t>(
                r.expectU64("dep.server"));
            d.job_id = r.expectU64("dep.job");
            d.epoch = r.expectU64("dep.epoch");
            departures.push_back(d);
        }

        std::vector<std::uint64_t> u64s = r.expectU64Vector("depths");
        require(u64s.size() == config.serverCount,
                "dcsim checkpoint: bad depths");
        depths.assign(u64s.begin(), u64s.end());
        next_fault = static_cast<std::size_t>(
            r.expectU64("next_fault"));
        require(next_fault <= events.size(),
                "dcsim checkpoint: fault cursor beyond schedule");
        u64s = r.expectU64Vector("alive");
        require(u64s.size() == config.serverCount,
                "dcsim checkpoint: bad alive set");
        for (std::size_t i = 0; i < u64s.size(); ++i)
            alive[i] = u64s[i] != 0;
        epoch = r.expectU64Vector("epoch");
        require(epoch.size() == config.serverCount,
                "dcsim checkpoint: bad epochs");
        alive_count = static_cast<std::size_t>(
            r.expectU64("alive_count"));
        gap_depth = static_cast<int>(r.expectI64("gap_depth"));

        std::uint64_t nif = r.expectU64("inflight");
        inflight.clear();
        for (std::uint64_t i = 0; i < nif; ++i) {
            InFlight f;
            f.arrival = r.expect("inflight.arrival");
            f.job_class = static_cast<JobClass>(
                static_cast<int>(r.expectI64("inflight.class")));
            inflight.push_back(f);
        }
        u64s = r.expectU64Vector("free_ids");
        free_ids.assign(u64s.begin(), u64s.end());

        next_arrival = r.expect("next_arrival");
        next_stats = r.expect("next_stats");
        completed_window = r.expectU64("completed_window");
        done = r.expectBool("done");

        result.clusterUtilization =
            r.expectSeries("util", "cluster_util");
        result.throughput =
            r.expectSeries("tput", "throughput_jobs_per_s");
        result.completedJobs = r.expectU64("completed");
        result.droppedJobs = r.expectU64("dropped");
        result.offeredJobs = r.expectU64("offered");
        result.maxQueueDepth = static_cast<std::size_t>(
            r.expectU64("max_queue_depth"));
        result.crashKilledJobs = r.expectU64("crash_killed");
        result.rejectedNoAliveServer =
            r.expectU64("rejected_no_alive");
        result.completedByServer =
            r.expectU64Vector("completed_by_server");
        require(result.completedByServer.size() == config.serverCount,
                "dcsim checkpoint: bad per-server counters");
        result.faultEventsApplied = r.expectU64("fault_events");
        RunningStats::Snapshot lat;
        lat.n = static_cast<std::size_t>(r.expectU64("latency.n"));
        lat.mean = r.expect("latency.mean");
        lat.m2 = r.expect("latency.m2");
        lat.min = r.expect("latency.min");
        lat.max = r.expect("latency.max");
        lat.sum = r.expect("latency.sum");
        result.latency.restore(lat);
        u64s = r.expectU64Vector("completed_by_class");
        require(u64s.size() == jobClassCount,
                "dcsim checkpoint: bad class counters");
        for (std::size_t i = 0; i < jobClassCount; ++i)
            result.completedByClass[i] = u64s[i];

        std::vector<std::uint64_t> bal =
            r.expectU64Vector("balancer");
        std::size_t pos = 0;
        balancer->restoreState(bal, pos);
        require(pos == bal.size(),
                "dcsim checkpoint: balancer state not fully "
                "consumed");
    }
};

ClusterSimEngine::ClusterSimEngine(const DcSimConfig &config,
                                   LoadBalancer *balancer,
                                   const WorkloadTrace &trace,
                                   const fault::FaultSchedule *faults)
    : impl_(std::make_unique<Impl>(config, balancer, trace, faults))
{
}

ClusterSimEngine::~ClusterSimEngine() = default;

bool
ClusterSimEngine::runUntil(double t_stop)
{
    obs::Scope scope("dcsim.run");
    return impl_->runUntil(t_stop);
}

bool
ClusterSimEngine::finished() const
{
    return impl_->done;
}

double
ClusterSimEngine::traceEnd() const
{
    return impl_->t1;
}

DcSimResult
ClusterSimEngine::take()
{
    return impl_->take();
}

void
ClusterSimEngine::save(guard::CheckpointWriter &w) const
{
    impl_->save(w);
}

void
ClusterSimEngine::restore(guard::CheckpointReader &r)
{
    impl_->restore(r);
}

DcSimResult
ClusterSim::run(const WorkloadTrace &trace)
{
    return run(trace, nullptr);
}

DcSimResult
ClusterSim::run(const WorkloadTrace &trace,
                const fault::FaultSchedule *faults)
{
    ClusterSimEngine engine(config_, balancer_.get(), trace, faults);
    engine.runUntil(std::numeric_limits<double>::infinity());
    return engine.take();
}

} // namespace workload
} // namespace tts
