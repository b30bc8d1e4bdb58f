#include "core/resilience_study.hh"

#include <cmath>
#include <limits>

#include "exec/parallel.hh"
#include "fault/fault_injector.hh"
#include "guard/numerics.hh"
#include "guard/resume.hh"
#include "obs/obs.hh"
#include "server/server_model.hh"
#include "util/error.hh"

namespace tts {
namespace core {

namespace {

/** Emergency throttle threshold below the room limit (C). */
constexpr double throttleMarginC = 5.0;
/** Hysteresis below the threshold before un-throttling (C). */
constexpr double throttleHysteresisC = 2.0;

/** Flat two-sample trace holding the scenario utilization. */
workload::WorkloadTrace
flatTrace(double util, double horizon_s)
{
    workload::WorkloadTrace t;
    double per_class = util / 3.0;
    t.append(0.0, {per_class, per_class, per_class});
    t.append(horizon_s, {per_class, per_class, per_class});
    return t;
}

void
saveArm(guard::CheckpointWriter &w, const ResilienceArm &a)
{
    w.putSeries("room_air", a.roomAirC);
    w.putSeries("sensed_inlet", a.sensedInletC);
    w.putSeries("wax_melt", a.waxMelt);
    w.putSeries("throughput", a.throughputRel);
    w.put("ride_through_s", a.rideThroughS);
    w.putBool("hit_limit", a.hitLimit);
    w.put("retention", a.throughputRetention);
    w.put("throttled_s", a.throttledS);
    w.putCounters("guard", a.guard);
}

ResilienceArm
restoreArm(guard::CheckpointReader &r)
{
    ResilienceArm a;
    a.roomAirC = r.expectSeries("room_air", "room_air_c");
    a.sensedInletC = r.expectSeries("sensed_inlet", "sensed_inlet_c");
    a.waxMelt = r.expectSeries("wax_melt", "wax_melt");
    a.throughputRel = r.expectSeries("throughput", "throughput_rel");
    a.rideThroughS = r.expect("ride_through_s");
    a.hitLimit = r.expectBool("hit_limit");
    a.throughputRetention = r.expect("retention");
    a.throttledS = r.expect("throttled_s");
    a.guard = r.expectCounters("guard");
    return a;
}

/**
 * Thermal arm (room + two representative servers under the
 * scenario's plant/sensor/fan events with sensed-inlet emergency
 * throttling) reshaped as a step machine: the loop body of the
 * original closed-form run is step(), all loop state is members, and
 * save()/restore() snapshot every evolving quantity so a resumed arm
 * replays the identical arithmetic.
 */
class ThermalArmSim
{
  public:
    ThermalArmSim(const server::ServerSpec &spec,
                  const server::WaxConfig &wax,
                  const ResilienceScenario &scenario,
                  const ResilienceConfig &opt)
        : scenario_(scenario), opt_(opt), srv_(spec, wax),
          // The fan-failed population cannot move its design
          // airflow, so it is pinned at the DVFS floor for the whole
          // scenario - the same graceful-degradation choice
          // iDataCool-style operations make when a cooling loop
          // degrades.
          fan_srv_(spec, wax), room_(opt.room),
          inj_(scenario.faults, opt.cluster.serverCount,
               opt.room.setpointC),
          u_(scenario.utilization),
          floor_ghz_(spec.cpu.minFreqGHz),
          throttle_at_(opt.room.limitC - throttleMarginC),
          n_(static_cast<double>(opt.run.serverCount)),
          sample_(static_cast<double>(opt.cluster.serverCount))
    {
        srv_.network().setInletTemp(opt_.room.setpointC);
        srv_.setLoad(u_);
        srv_.solveSteadyState();
        fan_srv_.network().setInletTemp(opt_.room.setpointC);
        fan_srv_.setLoad(u_, floor_ghz_);
        fan_srv_.solveSteadyState();

        label_ = srv_.hasWax() ? "with_wax" : "no_wax";
        srv_.network().setObsLabel(label_ + "/srv");
        fan_srv_.network().setObsLabel(label_ + "/fan_srv");
        TTS_OBS_EVENT(obs::EventKind::PhaseBegin, t_,
                      "resilience.arm." + label_, u_, -1);

        arm_.roomAirC.setName("room_air_c");
        arm_.sensedInletC.setName("sensed_inlet_c");
        arm_.waxMelt.setName("wax_melt");
        arm_.throughputRel.setName("throughput_rel");

        arm_.roomAirC.append(t_, room_.airTemp());
        arm_.sensedInletC.append(t_, inj_.senseInlet(room_.airTemp()));
        arm_.waxMelt.append(t_, srv_.hasWax() ? srv_.waxMeltFraction()
                                              : 0.0);
        arm_.throughputRel.append(t_, u_);
    }

    bool done() const { return done_; }

    /** One thermal step.  @return Simulated seconds advanced. */
    double
    step()
    {
        invariant(!done_, "ThermalArmSim::step: already done");
        obs::Scope scope("resilience.thermal");
        inj_.advanceTo(t_);
        double sensed = inj_.senseInlet(room_.airTemp());
        if (!throttled_ && sensed >= throttle_at_) {
            throttled_ = true;
            TTS_OBS_EVENT(obs::EventKind::ThrottleOn, t_,
                          label_ + "/dvfs", sensed, -1);
        } else if (throttled_ &&
                   sensed <= throttle_at_ - throttleHysteresisC) {
            throttled_ = false;
            TTS_OBS_EVENT(obs::EventKind::ThrottleOff, t_,
                          label_ + "/dvfs", sensed, -1);
        }

        srv_.setLoad(u_, throttled_ ? floor_ghz_ : 0.0);
        srv_.network().setInletTemp(room_.airTemp());
        srv_.network().setObsClock(t_);
        fan_srv_.setLoad(u_, floor_ghz_);
        fan_srv_.network().setInletTemp(room_.airTemp());
        fan_srv_.network().setObsClock(t_);
        srv_.advance(opt_.stepS, opt_.stepS);
        fan_srv_.advance(opt_.stepS, opt_.stepS);

        double alive_frac =
            static_cast<double>(inj_.aliveServers()) / sample_;
        double fan_frac =
            static_cast<double>(inj_.aliveFanFailed()) / sample_;
        double healthy_frac = alive_frac - fan_frac;

        double rejected = n_ * (healthy_frac * srv_.coolingLoad() +
                                fan_frac * fan_srv_.coolingLoad());
        double removed = inj_.coolingCapacityFraction() * rejected;
        room_.step(opt_.stepS, rejected, removed);

        double tp = healthy_frac * srv_.throughput() +
            fan_frac * fan_srv_.throughput();
        work_integral_ += tp * opt_.stepS;
        if (throttled_)
            arm_.throttledS += opt_.stepS;

        t_ += opt_.stepS;
        arm_.roomAirC.append(t_, room_.airTemp());
        arm_.sensedInletC.append(t_, inj_.senseInlet(room_.airTemp()));
        arm_.waxMelt.append(
            t_, srv_.hasWax() ? srv_.waxMeltFraction() : 0.0);
        arm_.throughputRel.append(t_, tp);
        if (room_.overLimit()) {
            arm_.hitLimit = true;
            done_ = true;
        } else if (!(t_ < scenario_.horizonS)) {
            done_ = true;
        }
        return opt_.stepS;
    }

    /** Final accounting; call once, after done(). */
    ResilienceArm
    take()
    {
        invariant(done_, "ThermalArmSim::take: arm not finished");
        // hitLimit authoritative, as in the outage study: censored
        // runs report exactly the horizon.  Work past the limit is
        // zero (the room forced a shutdown).
        arm_.rideThroughS = arm_.hitLimit ? t_ : scenario_.horizonS;
        arm_.throughputRetention =
            work_integral_ / (u_ * scenario_.horizonS);
        arm_.guard = srv_.network().guardCounters();
        arm_.guard.merge(fan_srv_.network().guardCounters());
        guard::publishCounters(arm_.guard);
        TTS_OBS_EVENT(obs::EventKind::GuardCounters, t_,
                      label_ + "/guard",
                      static_cast<double>(arm_.guard.audits),
                      static_cast<std::int64_t>(
                          arm_.guard.sentinelTrips +
                          arm_.guard.auditTrips));
        TTS_OBS_EVENT(obs::EventKind::PhaseEnd, t_,
                      "resilience.arm." + label_, arm_.rideThroughS,
                      arm_.hitLimit ? 1 : 0);
        return std::move(arm_);
    }

    void
    save(guard::CheckpointWriter &w) const
    {
        w.section("thermal");
        saveArm(w, arm_);
        w.put("t", t_);
        w.putBool("throttled", throttled_);
        w.put("work_integral", work_integral_);
        srv_.saveThermalState(w, "srv");
        fan_srv_.saveThermalState(w, "fan_srv");
        w.put("room.air_c", room_.airTemp());
        w.put("room.mass_c", room_.massTemp());
        inj_.save(w, "inj");
    }

    void
    restore(guard::CheckpointReader &r)
    {
        r.expectSection("thermal");
        arm_ = restoreArm(r);
        t_ = r.expect("t");
        throttled_ = r.expectBool("throttled");
        work_integral_ = r.expect("work_integral");
        srv_.restoreThermalState(r, "srv");
        fan_srv_.restoreThermalState(r, "fan_srv");
        double air = r.expect("room.air_c");
        double mass = r.expect("room.mass_c");
        room_.setState(air, mass);
        inj_.restore(r, "inj");
        done_ = false;
    }

  private:
    ResilienceScenario scenario_;
    ResilienceConfig opt_;
    server::ServerModel srv_;
    server::ServerModel fan_srv_;
    datacenter::RoomModel room_;
    fault::FaultInjector inj_;
    double u_;
    double floor_ghz_;
    double throttle_at_;
    double n_;
    double sample_;

    ResilienceArm arm_;
    std::string label_;      //!< "no_wax" / "with_wax" (obs only).
    double t_ = 0.0;
    bool throttled_ = false;
    double work_integral_ = 0.0;
    bool done_ = false;
};

} // namespace

/** Phase machine: no-wax arm -> with-wax arm -> cluster -> done. */
struct ResilienceRunner::Impl : guard::Resumable
{
    enum Phase
    {
        kArmNoWax = 0,
        kArmWithWax = 1,
        kCluster = 2,
        kDone = 3,
    };

    server::ServerSpec spec;
    ResilienceScenario scenario;
    ResilienceConfig opt;
    workload::WorkloadTrace trace;
    workload::RoundRobinBalancer balancer;

    int phase = kArmNoWax;
    ResilienceResult out;
    std::unique_ptr<ThermalArmSim> arm;
    std::unique_ptr<workload::ClusterSimEngine> engine;
    double cluster_target = 0.0;
    bool taken = false;

    Impl(const server::ServerSpec &sp, const ResilienceScenario &sc,
         const ResilienceConfig &op)
        : spec(sp), scenario(sc), opt(op),
          trace(flatTrace(sc.utilization, sc.horizonS))
    {
        out.scenario = scenario.name;
        arm = std::make_unique<ThermalArmSim>(
            spec, waxFor(kArmNoWax), scenario, opt);
    }

    server::WaxConfig
    waxFor(int ph) const
    {
        if (ph == kArmNoWax)
            return server::WaxConfig::placebo();
        return opt.run.meltTempC > 0.0
            ? server::WaxConfig::withMeltTemp(opt.run.meltTempC)
            : server::WaxConfig::paper();
    }

    void
    makeEngine()
    {
        engine = std::make_unique<workload::ClusterSimEngine>(
            opt.cluster, &balancer, trace, &scenario.faults);
        cluster_target = trace.startTime();
        TTS_OBS_EVENT(obs::EventKind::PhaseBegin, cluster_target,
                      "resilience.cluster", scenario.utilization,
                      -1);
    }

    bool done() const override { return phase == kDone; }

    /**
     * Advance one slice: a single thermal step, or up to chunk_s of
     * cluster events.  @return Simulated seconds advanced.
     */
    double
    advance(double chunk_s) override
    {
        if (phase == kArmNoWax || phase == kArmWithWax) {
            double d = arm->step();
            if (arm->done()) {
                if (phase == kArmNoWax) {
                    out.noWax = arm->take();
                    phase = kArmWithWax;
                    arm = std::make_unique<ThermalArmSim>(
                        spec, waxFor(kArmWithWax), scenario, opt);
                } else {
                    out.withWax = arm->take();
                    arm.reset();
                    phase = kCluster;
                    makeEngine();
                }
            }
            return d;
        }
        invariant(phase == kCluster,
                  "ResilienceRunner: advance past completion");
        obs::Scope scope("resilience.cluster");
        double before = cluster_target;
        cluster_target = std::min(cluster_target + chunk_s,
                                  engine->traceEnd());
        engine->runUntil(cluster_target);
        if (engine->finished()) {
            TTS_OBS_EVENT(obs::EventKind::PhaseEnd,
                          engine->traceEnd(), "resilience.cluster",
                          0.0, -1);
            out.cluster = engine->take();
            engine.reset();
            phase = kDone;
        }
        return cluster_target - before;
    }

    void
    save(guard::CheckpointWriter &w) const override
    {
        obs::Scope scope("resilience.checkpoint_io");
        w.section("resilience");
        w.putToken("scenario", scenario.name);
        w.putI64("phase", phase);
        if (phase >= kArmWithWax) {
            w.section("arm.no_wax");
            saveArm(w, out.noWax);
        }
        if (phase >= kCluster) {
            w.section("arm.with_wax");
            saveArm(w, out.withWax);
        }
        if (phase <= kArmWithWax) {
            arm->save(w);
        } else {
            w.put("cluster_target", cluster_target);
            engine->save(w);
        }
    }

    void
    restore(guard::CheckpointReader &r) override
    {
        r.expectSection("resilience");
        std::string name = r.expectToken("scenario");
        r.check(name == scenario.name, "scenario",
                "checkpoint is for scenario '" + name +
                    "', runner is for '" + scenario.name + "'");
        int ph = static_cast<int>(r.expectI64("phase"));
        r.check(ph >= kArmNoWax && ph <= kCluster, "phase",
                "bad phase " + std::to_string(ph));
        phase = ph;
        if (phase >= kArmWithWax) {
            r.expectSection("arm.no_wax");
            out.noWax = restoreArm(r);
        }
        if (phase >= kCluster) {
            r.expectSection("arm.with_wax");
            out.withWax = restoreArm(r);
        }
        if (phase <= kArmWithWax) {
            arm = std::make_unique<ThermalArmSim>(
                spec, waxFor(phase), scenario, opt);
            arm->restore(r);
            engine.reset();
        } else {
            // makeEngine() resets cluster_target to the trace start;
            // reapply the restored value after it runs.
            double target = r.expect("cluster_target");
            makeEngine();
            engine->restore(r);
            cluster_target = target;
            arm.reset();
        }
    }
};

ResilienceRunner::ResilienceRunner(const server::ServerSpec &spec,
                                   const ResilienceScenario &scenario,
                                   const ResilienceConfig &options)
{
    require(!scenario.name.empty(),
            "runResilienceStudy: scenario needs a name");
    require(scenario.utilization > 0.0 &&
            scenario.utilization <= 1.0,
            "runResilienceStudy: utilization must be in (0, 1]");
    require(scenario.horizonS > 0.0 && options.stepS > 0.0,
            "runResilienceStudy: bad horizon or step");
    require(options.run.serverCount >= 1 &&
            options.cluster.serverCount >= 1,
            "runResilienceStudy: need servers");
    impl_ = std::make_unique<Impl>(spec, scenario, options);
}

ResilienceRunner::~ResilienceRunner() = default;

bool
ResilienceRunner::run(const guard::CheckpointPolicy &policy)
{
    invariant(!impl_->taken, "ResilienceRunner::run: after take()");
    return guard::runResumable(*impl_, policy, impl_->scenario.name);
}

ResilienceResult
ResilienceRunner::take()
{
    require(impl_->phase == Impl::kDone,
            "ResilienceRunner::take: run not finished");
    invariant(!impl_->taken, "ResilienceRunner::take: called twice");
    impl_->taken = true;
    return std::move(impl_->out);
}

ResilienceResult
runResilienceStudy(const server::ServerSpec &spec,
                   const ResilienceScenario &scenario,
                   const ResilienceConfig &options)
{
    ResilienceRunner runner(spec, scenario, options);
    runner.run();
    return runner.take();
}

std::vector<ResilienceResult>
runResilienceGrid(const server::ServerSpec &spec,
                  const std::vector<ResilienceScenario> &scenarios,
                  const ResilienceConfig &options)
{
    return exec::parallel_map(
        scenarios, [&](const ResilienceScenario &s) {
            return runResilienceStudy(spec, s, options);
        });
}

std::vector<ResilienceScenario>
canonicalScenarios(std::size_t sample_server_count)
{
    using fault::FaultKind;
    std::vector<ResilienceScenario> out;

    {
        ResilienceScenario s;
        s.name = "plant_trip_total";
        // Four-hour horizon: the emergency throttle stretches the
        // ride-through well past the unthrottled ~100 min, and both
        // arms must still hit the limit for the comparison to bite.
        s.horizonS = 4.0 * 3600.0;
        s.faults.add(600.0, FaultKind::CoolingTrip,
                     fault::FaultEvent::noTarget, 1.0);
        out.push_back(std::move(s));
    }
    {
        ResilienceScenario s;
        s.name = "partial_trip_sensor_drift";
        // The sensor reads 3 C low from the start, so the emergency
        // throttle fires late; 85 % of the plant trips 10 minutes
        // in and is restored at t = 110 min.  Run hot (90 %
        // utilization) so the drifted threshold is reachable.
        s.utilization = 0.9;
        s.faults.add(0.0, FaultKind::SensorDrift,
                     fault::FaultEvent::noTarget, -3.0);
        s.faults.add(600.0, FaultKind::CoolingTrip,
                     fault::FaultEvent::noTarget, 0.85);
        s.faults.add(6600.0, FaultKind::CoolingRestore,
                     fault::FaultEvent::noTarget, 0.85);
        out.push_back(std::move(s));
    }
    {
        ResilienceScenario s;
        s.name = "crash_fan_storm";
        fault::FaultProfile p;
        p.serverCrashPerHour = 0.25;
        p.serverRepairMeanS = 900.0;
        p.fanFailurePerHour = 0.10;
        p.fanRepairMeanS = 1800.0;
        p.coolingTripPerHour = 0.5;
        p.coolingTripFraction = 0.5;
        p.coolingRepairMeanS = 1800.0;
        p.sensorDropoutPerHour = 1.0;
        p.sensorDropoutMeanS = 600.0;
        p.traceGapPerHour = 1.0;
        p.traceGapMeanS = 180.0;
        s.faults = fault::generateSchedule(
            p, s.horizonS, sample_server_count, 2025);
        out.push_back(std::move(s));
    }
    return out;
}

std::map<std::string, double>
resilienceGoldenValues()
{
    ResilienceConfig opt;
    auto scenarios = canonicalScenarios(opt.cluster.serverCount);
    auto results =
        runResilienceGrid(server::rd330Spec(), scenarios, opt);

    std::map<std::string, double> g;
    for (const auto &r : results) {
        const std::string p = "resilience." + r.scenario + ".";
        g[p + "ride_no_wax_s"] = r.noWax.rideThroughS;
        g[p + "ride_with_wax_s"] = r.withWax.rideThroughS;
        g[p + "extra_ride_s"] = r.extraRideThroughS();
        g[p + "hit_limit_no_wax"] = r.noWax.hitLimit ? 1.0 : 0.0;
        g[p + "hit_limit_with_wax"] =
            r.withWax.hitLimit ? 1.0 : 0.0;
        g[p + "retention_no_wax"] = r.noWax.throughputRetention;
        g[p + "retention_with_wax"] =
            r.withWax.throughputRetention;
        g[p + "retention_gain"] = r.retentionGain();
        g[p + "throttled_no_wax_s"] = r.noWax.throttledS;
        g[p + "throttled_with_wax_s"] = r.withWax.throttledS;
        g[p + "cluster_offered"] =
            static_cast<double>(r.cluster.offeredJobs);
        g[p + "cluster_completed"] =
            static_cast<double>(r.cluster.completedJobs);
        g[p + "cluster_dropped"] =
            static_cast<double>(r.cluster.droppedJobs);
        g[p + "cluster_killed"] =
            static_cast<double>(r.cluster.crashKilledJobs);
        g[p + "cluster_residual"] =
            static_cast<double>(r.cluster.residualJobs);
        g[p + "fault_events"] =
            static_cast<double>(r.cluster.faultEventsApplied);
        // Guard health: audits run (deterministic; one per guarded
        // interval plus retries) and trips suffered (zero in a
        // healthy solve).  Both arms merged.
        g[p + "guard_audits"] = static_cast<double>(
            r.noWax.guard.audits + r.withWax.guard.audits);
        g[p + "guard_trips"] = static_cast<double>(
            r.noWax.guard.sentinelTrips + r.noWax.guard.auditTrips +
            r.noWax.guard.retries + r.noWax.guard.fallbacks +
            r.withWax.guard.sentinelTrips +
            r.withWax.guard.auditTrips + r.withWax.guard.retries +
            r.withWax.guard.fallbacks);
    }
    return g;
}

} // namespace core
} // namespace tts
