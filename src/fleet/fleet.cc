#include "fleet/fleet.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "cache/fingerprint.hh"
#include "exec/parallel.hh"
#include "obs/obs.hh"
#include "util/error.hh"

namespace tts {
namespace fleet {

namespace {

/** Serialize one model's operating point and thermal state. */
void
saveModel(guard::CheckpointWriter &w, const std::string &key,
          const server::ServerModel &m)
{
    w.put(key + ".inlet", m.network().inletTemp());
    w.put(key + ".util", m.utilization());
    w.put(key + ".freq", m.frequency());
    m.saveThermalState(w, key);
}

void
restoreModel(guard::CheckpointReader &r, const std::string &key,
             server::ServerModel &m)
{
    double inlet = r.expect(key + ".inlet");
    double util = r.expect(key + ".util");
    double freq = r.expect(key + ".freq");
    m.network().setInletTemp(inlet);
    m.setLoad(util, freq);
    m.restoreThermalState(r, key);
}

/** Steps a lone run takes per slice: its buffers stay this short. */
constexpr std::size_t kLoneSliceSteps = 16;

} // namespace

std::vector<std::size_t>
platformCounts(std::size_t total, std::size_t slots)
{
    std::vector<std::size_t> counts(slots, total / slots);
    for (std::size_t i = 0; i < total % slots; ++i)
        ++counts[i];
    return counts;
}

ControlClock::ControlClock(const FleetConfig &cfg,
                           const workload::WorkloadTrace &trace)
    : duration_s_(cfg.durationS), control_s_(cfg.controlIntervalS),
      flat_util_(cfg.run.utilization), trace_(&trace)
{
    require(cfg.durationS > 0.0, "FleetSim: durationS must be > 0");
    require(cfg.controlIntervalS > 0.0 && cfg.thermalStepS > 0.0,
            "FleetSim: bad step sizes");
}

double
ControlClock::utilAt(double t) const
{
    if (trace_->size() == 0)
        return std::clamp(flat_util_, 0.0, 1.0);
    return std::clamp(trace_->totalAt(t), 0.0, 1.0);
}

SliceStep
ControlClock::stepFrom(double t) const
{
    SliceStep s;
    s.t = atHorizon(t) ? duration_s_ : t;
    s.u = utilAt(s.t);
    s.dt = stepLength(t);
    return s;
}

double
ControlClock::after(double t, double dt) const
{
    t += dt;
    return atHorizon(t) ? duration_s_ : t;
}

std::size_t
ControlClock::sampleCount() const
{
    std::size_t n = 1;
    for (double t = 0.0; !atHorizon(t); t = after(t, stepLength(t)))
        ++n;
    return n;
}

FleetLayout
layoutFleet(const server::ServerSpec &spec, const FleetConfig &cfg)
{
    const std::uint32_t n =
        static_cast<std::uint32_t>(cfg.run.serverCount);
    FleetLayout layout;
    std::vector<server::ServerSpec> specs;
    if (cfg.mixedPlatforms) {
        specs = {server::rd330Spec(), server::x4470Spec(),
                 server::openComputeSpec()};
    } else {
        specs = {spec};
    }
    std::vector<std::size_t> counts = platformCounts(n, specs.size());
    std::uint32_t first = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        FleetSlot slot;
        slot.spec = specs[i];
        slot.first = first;
        slot.count = static_cast<std::uint32_t>(counts[i]);
        first += slot.count;
        layout.slots.push_back(std::move(slot));
    }

    layout.events = generatePerturbations(cfg.seed, n, cfg.durationS,
                                          cfg.perturb);
    for (const PerturbEvent &e : cfg.extraEvents) {
        require(e.server < n,
                "FleetSim: extra event targets server outside fleet");
        layout.events.push_back(e);
    }
    if (!cfg.extraEvents.empty())
        std::sort(layout.events.begin(), layout.events.end(),
                  perturbEventLess);
    for (const PerturbEvent &e : layout.events) {
        for (FleetSlot &slot : layout.slots) {
            if (e.server >= slot.first &&
                e.server < slot.first + slot.count) {
                slot.events.push_back(e);
                break;
            }
        }
    }
    return layout;
}

workload::ArchetypeLoadTraits
loadTraits(const server::ServerModel &model, std::size_t count)
{
    workload::ArchetypeLoadTraits t;
    t.count = count;
    t.latentCapacityJ = model.waxLatentCapacity();
    t.idleWallW = model.spec().idleWallPowerW;
    t.peakWallW = model.spec().peakWallPowerW;
    return t;
}

void
runArchetype(const FleetConfig &cfg, const ControlClock &clock,
             const FleetSlot &slot, const server::WaxConfig &wax,
             double weight, CoolingTrajectory &out)
{
    require(slot.count >= 1, "runArchetype: empty slot");
    ArchetypeRun run(0, slot.spec, wax, slot.first, slot.count,
                     clock.utilAt(0.0), slot.events);
    run.setWeight(weight);
    if (!cfg.dedupe)
        for (std::uint32_t s = slot.first; s < slot.first + slot.count;
             ++s)
            run.materialize(s, 0);
    // FleetSim's slice, on one run: events and baseline step by step,
    // then the rows through the slice, then the record.
    std::vector<SliceStep> slice;
    std::uint64_t step = 0;
    double t = 0.0;
    bool horizon = false;
    while (!horizon) {
        slice.clear();
        run.beginSlice(step);
        while (!horizon && slice.size() < kLoneSliceSteps) {
            const SliceStep s = clock.stepFrom(t);
            while (run.nextEventTime() <= s.t)
                run.queueNext(slice.size(), step);
            run.sampleBaseline(s);
            if (s.dt > 0.0)
                run.advanceBaseline(s.dt, cfg.thermalStepS);
            slice.push_back(s);
            horizon = s.dt == 0.0;
            t = clock.after(s.t, s.dt);
            ++step;
        }
        run.stepRows(slot.first, slot.first + slot.count, slice,
                     cfg.thermalStepS);
        run.recordCooling(out);
    }
}

FleetSim::FleetSim(const server::ServerSpec &spec,
                   const workload::WorkloadTrace &trace,
                   const FleetConfig &cfg)
    : cfg_(cfg), trace_(trace), clock_(cfg_, trace_),
      server_count_(cfg.run.serverCount),
      shard_count_(cfg.shardCount > 0 ? cfg.shardCount : 8),
      cooling_w_("fleet_cooling_w"), it_w_("fleet_it_w"),
      melt_("fleet_melt_fraction")
{
    FleetLayout layout = layoutFleet(spec, cfg_);
    require(cfg_.archetypeWax.empty() ||
                cfg_.archetypeWax.size() == layout.slots.size(),
            "FleetSim: archetypeWax must carry one entry per "
            "platform slot (" + std::to_string(layout.slots.size()) +
                ")");
    const double u0 = clock_.utilAt(0.0);
    const server::WaxConfig shared_wax = cfg_.run.waxConfig();
    runs_.reserve(layout.slots.size());
    for (std::size_t i = 0; i < layout.slots.size(); ++i) {
        FleetSlot &slot = layout.slots[i];
        if (slot.count == 0)
            continue;
        runs_.emplace_back(runs_.size(), slot.spec,
                           cfg_.archetypeWax.empty() ? shared_wax
                                                     : cfg_.archetypeWax[i],
                           slot.first, slot.count, u0,
                           std::move(slot.events));
    }

    // Placement weights are a pure function of the built arenas, so
    // they are identical at any thread count and across resume.
    if (!runs_.empty()) {
        std::vector<workload::ArchetypeLoadTraits> traits;
        for (const ArchetypeRun &r : runs_)
            traits.push_back(
                loadTraits(r.arena().baseline(), r.arena().count()));
        std::vector<double> weights =
            workload::placementWeights(cfg_.placement, traits);
        for (std::size_t i = 0; i < runs_.size(); ++i)
            runs_[i].setWeight(weights[i]);
    }

    events_ = std::move(layout.events);

    if (!cfg_.dedupe) {
        // Naive reference path: every row private from the start.
        for (std::uint32_t s = 0; s < server_count_; ++s)
            materialize(s);
    }

    if (obs::enabled()) {
        static obs::Gauge &servers =
            obs::registry().gauge("fleet.servers");
        static obs::Gauge &shards =
            obs::registry().gauge("fleet.shards");
        servers.set(static_cast<double>(server_count_));
        shards.set(static_cast<double>(shard_count_));
        obs::emitEvent(obs::EventKind::PhaseBegin, 0.0, "fleet.run",
                       static_cast<double>(server_count_), -1);
    }
}

ArchetypeRun &
FleetSim::runOf(std::uint32_t s)
{
    for (ArchetypeRun &r : runs_)
        if (r.arena().covers(s))
            return r;
    throw Error("FleetSim: server index " + std::to_string(s) +
                " outside every arena");
}

const ArchetypeRun &
FleetSim::runOf(std::uint32_t s) const
{
    return const_cast<FleetSim *>(this)->runOf(s);
}

bool
FleetSim::isMaterialized(std::uint32_t s) const
{
    for (const ArchetypeRun &r : runs_)
        if (r.rows().count(s) != 0)
            return true;
    return false;
}

std::size_t
FleetSim::materializedCount() const
{
    std::size_t n = 0;
    for (const ArchetypeRun &r : runs_)
        n += r.rows().size();
    return n;
}

MaterializedRow &
FleetSim::materialize(std::uint32_t s)
{
    require(s < server_count_,
            "FleetSim: cannot materialize server " +
                std::to_string(s) + " of " +
                std::to_string(server_count_));
    return runOf(s).materialize(s, control_steps_);
}

std::uint64_t
FleetSim::waxDigest() const
{
    // Canonical fingerprint of every arena's wax deployment, so a
    // checkpoint written under one candidate configuration cannot be
    // resumed under another (the opt engine varies exactly these
    // fields between otherwise identical fleets).
    std::uint64_t h = cache::kFnvOffsetBasis;
    for (const ArchetypeRun &r : runs_) {
        const server::WaxConfig &wax = r.arena().wax();
        h = cache::fnv1aMixU64(h, static_cast<std::uint64_t>(wax.mode));
        h = digestDouble(h, wax.liters);
        h = cache::fnv1aMixU64(h, wax.boxCount);
        h = digestDouble(h, wax.meltTempC);
        h = digestDouble(h, wax.meltWindowC);
        h = digestDouble(h, wax.supercoolingC);
    }
    return h;
}

void
FleetSim::queueEventsUpTo(double t, std::size_t step)
{
    while (events_pos_ < events_.size() &&
           events_[events_pos_].timeS <= t) {
        const PerturbEvent &e = events_[events_pos_++];
        runOf(e.server).queueNext(step, control_steps_);
        ++events_applied_;
        if (obs::enabled()) {
            static obs::Counter &applied =
                obs::registry().counter("fleet.events.applied");
            applied.add(1);
            obs::emitEvent(obs::EventKind::FaultInjected, t,
                           std::string("fleet/") +
                               perturbKindName(e.kind),
                           e.value,
                           static_cast<std::int64_t>(e.server));
        }
    }
}

void
FleetSim::stepBaselines(const SliceStep &s)
{
    for (ArchetypeRun &r : runs_) {
        r.sampleBaseline(s);
        if (s.dt > 0.0)
            r.advanceBaseline(s.dt, cfg_.thermalStepS);
    }
}

void
FleetSim::stepRows()
{
    if (materializedCount() == 0)
        return;
    // Shards own contiguous server ranges, which may span two arenas;
    // each task touches only the rows of its own range.
    std::uint32_t n = static_cast<std::uint32_t>(server_count_);
    std::uint32_t chunk = static_cast<std::uint32_t>(
        (server_count_ + shard_count_ - 1) / shard_count_);
    exec::parallel_for_index(shard_count_, [&](std::size_t k) {
        std::uint32_t lo = static_cast<std::uint32_t>(k) * chunk;
        std::uint32_t hi = std::min(n, lo + chunk);
        if (lo >= hi)
            return;
        for (ArchetypeRun &r : runs_)
            r.stepRows(lo, hi, slice_, cfg_.thermalStepS);
    });
}

void
FleetSim::fold()
{
    // Canonical aggregation order for every sample - arena-major,
    // then rows in server order - so the sums are bit-identical at
    // any thread count, shard width and slice length.
    const std::size_t samples = slice_.size();
    slice_sums_.assign(samples, SampleSums{});
    for (const ArchetypeRun &r : runs_)
        r.fold(slice_sums_);
    for (std::size_t j = 0; j < samples; ++j) {
        const SliceStep &s = slice_[j];
        const SampleSums &sum = slice_sums_[j];
        if (cfg_.recordSeries) {
            cooling_w_.append(s.t, sum.cooling);
            it_w_.append(s.t, sum.itPower);
            melt_.append(s.t, sum.waxServers > 0.0
                                  ? sum.melt / sum.waxServers
                                  : 0.0);
        }
        accumulateCooling(sum.cooling, s.dt, peak_cooling_w_,
                          cooling_energy_j_);
        peak_it_w_ = std::max(peak_it_w_, sum.itPower);
        last_cooling_w_ = sum.cooling;
    }
}

double
FleetSim::advanceSlice(double sliceS)
{
    require(!done_, "FleetSim::step: run already finished");
    slice_.clear();
    for (ArchetypeRun &r : runs_)
        r.beginSlice(control_steps_);
    // Serial pass: the events and baselines of every step of the
    // slice.  Baselines are a handful of rows; serial keeps their
    // obs streams on the main task and costs nothing next to the
    // fleet.
    double moved = 0.0;
    for (;;) {
        const SliceStep s = clock_.stepFrom(t_);
        {
            obs::Scope scope("fleet.step.events");
            queueEventsUpTo(s.t, slice_.size());
        }
        {
            obs::Scope scope("fleet.step.baselines");
            stepBaselines(s);
        }
        slice_.push_back(s);
        if (s.dt == 0.0) {
            // The horizon sample: due events and a read-out of every
            // model, but nothing advances.
            done_ = true;
            break;
        }
        moved += s.dt;
        t_ = clock_.after(s.t, s.dt);
        ++control_steps_;
        std::uint64_t inner = static_cast<std::uint64_t>(
            std::ceil(s.dt / cfg_.thermalStepS - 1e-9));
        if (inner == 0)
            inner = 1;
        const std::size_t rows = materializedCount();
        server_steps_ +=
            static_cast<std::uint64_t>(server_count_) * inner;
        row_steps_ +=
            static_cast<std::uint64_t>(runs_.size() + rows) * inner;
        if (obs::enabled()) {
            static obs::Counter &steps =
                obs::registry().counter("fleet.control_steps");
            steps.add(1);
            static obs::Gauge &materialized =
                obs::registry().gauge("fleet.rows.live");
            materialized.set(static_cast<double>(rows));
        }
        // The horizon sample joins the slice of the last step.  The
        // slice ends once it covers sliceS, or on the step where
        // runResumable pauses run(): it tests this same sum.
        if (clock_.atHorizon(t_))
            continue;
        if (moved >= sliceS ||
            (stop_after_s_ >= 0.0 &&
             run_advanced_s_ + moved >= stop_after_s_))
            break;
    }
    {
        obs::Scope scope("fleet.step.rows");
        stepRows();
    }
    {
        obs::Scope scope("fleet.step.fold");
        fold();
    }
    if (done_)
        TTS_OBS_EVENT(obs::EventKind::PhaseEnd, t_, "fleet.run",
                      static_cast<double>(materializedCount()), -1);
    return moved;
}

double
FleetSim::step()
{
    return advanceSlice(0.0);
}

const server::ServerModel &
FleetSim::serverView(std::uint32_t s) const
{
    const ArchetypeRun &r = runOf(s);
    auto it = r.rows().find(s);
    if (it != r.rows().end())
        return *it->second.model;
    return r.arena().baseline();
}

RowPerturbState
FleetSim::serverPerturbState(std::uint32_t s) const
{
    for (const ArchetypeRun &r : runs_) {
        auto it = r.rows().find(s);
        if (it != r.rows().end())
            return it->second.pert;
    }
    return RowPerturbState{};
}

std::uint64_t
FleetSim::serverDigest(std::uint32_t s) const
{
    return digestServerState(serverView(s), serverPerturbState(s));
}

std::uint64_t
FleetSim::stateDigest() const
{
    std::uint64_t h = digestDouble(cache::kFnvOffsetBasis, t_);
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(server_count_); ++s)
        h = digestServerState(serverView(s), serverPerturbState(s),
                              h);
    return h;
}

void
FleetSim::save(const std::string &path) const
{
    guard::saveCheckpoint(*this, path);
}

void
FleetSim::restore(const std::string &path)
{
    guard::restoreCheckpoint(*this, path);
}

void
FleetSim::save(guard::CheckpointWriter &w) const
{
    w.section("fleet");
    w.putU64("server_count", server_count_);
    w.putU64("arena_count", runs_.size());
    w.putU64("seed", cfg_.seed);
    w.putBool("dedupe", cfg_.dedupe);
    w.putU64("placement", static_cast<std::uint64_t>(cfg_.placement));
    w.putU64("wax_digest", waxDigest());
    w.put("duration_s", cfg_.durationS);
    w.put("control_s", cfg_.controlIntervalS);
    w.put("thermal_s", cfg_.thermalStepS);
    w.put("inlet_c", inletTempC);
    w.put("t", t_);
    w.putU64("control_steps", control_steps_);
    w.putU64("events_pos", events_pos_);
    w.putU64("events_applied", events_applied_);
    w.putU64("server_steps", server_steps_);
    w.putU64("row_steps", row_steps_);
    w.put("peak_cooling_w", peak_cooling_w_);
    w.put("peak_it_w", peak_it_w_);
    w.put("cooling_energy_j", cooling_energy_j_);
    w.put("last_cooling_w", last_cooling_w_);
    w.section("series");
    w.putSeries("cooling", cooling_w_);
    w.putSeries("it", it_w_);
    w.putSeries("melt", melt_);
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        const ArchetypeArena &a = runs_[i].arena();
        w.section("arena." + std::to_string(i));
        w.putU64("first", a.firstServer());
        w.putU64("count", a.count());
        w.putU64("materialized", a.materializedCount());
        saveModel(w, "base", a.baseline());
    }
    // Arenas are contiguous in server order, so run by run is the
    // canonical server order.
    w.section("rows");
    w.putU64("count", materializedCount());
    std::size_t k = 0;
    for (const ArchetypeRun &r : runs_) {
        for (const auto &kv : r.rows()) {
            const MaterializedRow &row = kv.second;
            w.section("row." + std::to_string(k++));
            w.putU64("server", row.server);
            w.putU64("arena", row.arena);
            w.put("util_delta", row.pert.utilDelta);
            w.put("inlet_delta", row.pert.inletDeltaC);
            w.putBool("fan_pinned", row.pert.fanPinned);
            saveModel(w, "m", *row.model);
        }
    }
}

void
FleetSim::restore(guard::CheckpointReader &r)
{
    r.expectSection("fleet");
    require(r.expectU64("server_count") == server_count_,
            "fleet checkpoint: server count mismatch");
    require(r.expectU64("arena_count") == runs_.size(),
            "fleet checkpoint: arena count mismatch");
    require(r.expectU64("seed") == cfg_.seed,
            "fleet checkpoint: seed mismatch");
    require(r.expectBool("dedupe") == cfg_.dedupe,
            "fleet checkpoint: dedupe mode mismatch");
    require(r.expectU64("placement") ==
                static_cast<std::uint64_t>(cfg_.placement),
            "fleet checkpoint: placement policy mismatch");
    require(r.expectU64("wax_digest") == waxDigest(),
            "fleet checkpoint: wax deployment mismatch");
    require(r.expect("duration_s") == cfg_.durationS &&
                r.expect("control_s") == cfg_.controlIntervalS &&
                r.expect("thermal_s") == cfg_.thermalStepS &&
                r.expect("inlet_c") == inletTempC,
            "fleet checkpoint: step configuration mismatch");
    t_ = r.expect("t");
    control_steps_ = r.expectU64("control_steps");
    events_pos_ = r.expectU64("events_pos");
    require(events_pos_ <= events_.size(),
            "fleet checkpoint: event cursor past the schedule");
    events_applied_ = r.expectU64("events_applied");
    server_steps_ = r.expectU64("server_steps");
    row_steps_ = r.expectU64("row_steps");
    peak_cooling_w_ = r.expect("peak_cooling_w");
    peak_it_w_ = r.expect("peak_it_w");
    cooling_energy_j_ = r.expect("cooling_energy_j");
    last_cooling_w_ = r.expect("last_cooling_w");
    r.expectSection("series");
    cooling_w_ = r.expectSeries("cooling", "fleet_cooling_w");
    it_w_ = r.expectSeries("it", "fleet_it_w");
    melt_ = r.expectSeries("melt", "fleet_melt_fraction");
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        ArchetypeArena &a = runs_[i].arena();
        r.expectSection("arena." + std::to_string(i));
        require(r.expectU64("first") == a.firstServer() &&
                    r.expectU64("count") == a.count(),
                "fleet checkpoint: arena layout mismatch");
        a.setMaterializedCount(static_cast<std::uint32_t>(
            r.expectU64("materialized")));
        restoreModel(r, "base", a.baseline());
    }
    r.expectSection("rows");
    std::uint64_t count = r.expectU64("count");
    for (ArchetypeRun &run : runs_)
        run.clearRows();
    for (std::uint64_t k = 0; k < count; ++k) {
        r.expectSection("row." + std::to_string(k));
        std::uint32_t server =
            static_cast<std::uint32_t>(r.expectU64("server"));
        std::uint64_t arena = r.expectU64("arena");
        require(arena < runs_.size() &&
                    runs_[arena].arena().covers(server) &&
                    runs_[arena].rows().count(server) == 0,
                "fleet checkpoint: row outside its arena");
        RowPerturbState pert;
        pert.utilDelta = r.expect("util_delta");
        pert.inletDeltaC = r.expect("inlet_delta");
        pert.fanPinned = r.expectBool("fan_pinned");
        restoreModel(r, "m",
                     *runs_[arena].restoreRow(server, pert).model);
    }
    std::uint64_t materialized = 0;
    for (const ArchetypeRun &run : runs_)
        materialized += run.arena().materializedCount();
    require(materialized == materializedCount(),
            "fleet checkpoint: materialized-count mismatch");
    // Each run's cursor: its events among the first events_pos_.
    for (ArchetypeRun &run : runs_) {
        const ArchetypeArena &a = run.arena();
        run.setEventsQueued(static_cast<std::size_t>(std::count_if(
            events_.begin(),
            events_.begin() + static_cast<std::ptrdiff_t>(events_pos_),
            [&](const PerturbEvent &e) { return a.covers(e.server); })));
    }
    done_ = t_ >= cfg_.durationS;
}

double
FleetSim::advance(double sliceS)
{
    double moved = advanceSlice(sliceS);
    run_advanced_s_ += moved;
    return moved;
}

bool
FleetSim::run(const guard::CheckpointPolicy &policy)
{
    stop_after_s_ = policy.stopAfterS;
    run_advanced_s_ = 0.0;
    bool finished =
        guard::runResumable(*this, policy, "fleet.checkpoint");
    stop_after_s_ = -1.0;
    return finished;
}

FleetResult
FleetSim::take()
{
    require(done_, "FleetSim::take: run not finished");
    require(!taken_, "FleetSim::take: result already taken");
    taken_ = true;
    FleetResult out;
    out.stateDigest = stateDigest();
    out.coolingLoadW = std::move(cooling_w_);
    out.itPowerW = std::move(it_w_);
    out.meltFraction = std::move(melt_);
    out.peakCoolingW = peak_cooling_w_;
    out.peakItPowerW = peak_it_w_;
    out.coolingEnergyJ = cooling_energy_j_;
    out.serverSteps = server_steps_;
    out.rowSteps = row_steps_;
    out.materializedRows = materializedCount();
    out.eventsApplied = events_applied_;
    out.serverCount = server_count_;
    return out;
}

} // namespace fleet
} // namespace tts
