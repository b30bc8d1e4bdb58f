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

/** @return What model m contributes to a sample in its current state. */
RowReadout
readOut(const server::ServerModel &m)
{
    RowReadout out;
    out.coolingW = m.coolingLoad();
    out.wallW = m.wallPower();
    out.meltFraction = m.hasWax() ? m.waxMeltFraction() : 0.0;
    return out;
}

} // namespace

std::vector<std::size_t>
platformCounts(std::size_t total, std::size_t slots)
{
    std::vector<std::size_t> counts(slots, total / slots);
    for (std::size_t i = 0; i < total % slots; ++i)
        ++counts[i];
    return counts;
}

FleetSim::FleetSim(const server::ServerSpec &spec,
                   const workload::WorkloadTrace &trace,
                   const FleetConfig &cfg)
    : cfg_(cfg), trace_(trace),
      server_count_(cfg.run.serverCount),
      shard_count_(cfg.shardCount > 0 ? cfg.shardCount : 8),
      cooling_w_("fleet_cooling_w"), it_w_("fleet_it_w"),
      melt_("fleet_melt_fraction")
{
    require(cfg_.durationS > 0.0, "FleetSim: durationS must be > 0");
    require(cfg_.controlIntervalS > 0.0 && cfg_.thermalStepS > 0.0,
            "FleetSim: bad step sizes");

    double u0 = utilAt(0.0);
    server::WaxConfig shared_wax = cfg_.run.waxConfig();
    if (server_count_ > 0) {
        std::vector<server::ServerSpec> specs;
        if (cfg_.mixedPlatforms) {
            specs = {server::rd330Spec(), server::x4470Spec(),
                     server::openComputeSpec()};
        } else {
            specs = {spec};
        }
        require(cfg_.archetypeWax.empty() ||
                    cfg_.archetypeWax.size() == specs.size(),
                "FleetSim: archetypeWax must carry one entry per "
                "platform slot (" + std::to_string(specs.size()) +
                    ")");
        std::vector<std::size_t> counts =
            platformCounts(server_count_, specs.size());
        std::uint32_t first = 0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            std::uint32_t count =
                static_cast<std::uint32_t>(counts[i]);
            if (count == 0)
                continue;
            const server::WaxConfig &wax = cfg_.archetypeWax.empty()
                ? shared_wax
                : cfg_.archetypeWax[i];
            arenas_.push_back(std::make_unique<ArchetypeArena>(
                specs[i], wax, first, count, u0));
            first += count;
        }
    }

    // Placement weights are a pure function of the built arenas, so
    // they are identical at any thread count and across resume.
    std::vector<workload::ArchetypeLoadTraits> traits;
    for (const auto &a : arenas_) {
        workload::ArchetypeLoadTraits t;
        t.count = a->count();
        t.latentCapacityJ = a->baseline().waxLatentCapacity();
        t.idleWallW = a->spec().idleWallPowerW;
        t.peakWallW = a->spec().peakWallPowerW;
        traits.push_back(t);
    }
    weights_ = arenas_.empty()
        ? std::vector<double>{}
        : workload::placementWeights(cfg_.placement, traits);

    events_ = generatePerturbations(
        cfg_.seed, static_cast<std::uint32_t>(server_count_),
        cfg_.durationS, cfg_.perturb);
    for (const PerturbEvent &e : cfg_.extraEvents) {
        require(e.server < server_count_,
                "FleetSim: extra event targets server outside fleet");
        events_.push_back(e);
    }
    if (!cfg_.extraEvents.empty())
        std::sort(events_.begin(), events_.end(), perturbEventLess);

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

double
FleetSim::utilAt(double t) const
{
    if (trace_.size() == 0)
        return std::clamp(cfg_.run.utilization, 0.0, 1.0);
    return std::clamp(trace_.totalAt(t), 0.0, 1.0);
}

ArchetypeArena &
FleetSim::arenaOf(std::uint32_t s)
{
    for (auto &a : arenas_)
        if (a->covers(s))
            return *a;
    throw Error("FleetSim: server index " + std::to_string(s) +
                " outside every arena");
}

const ArchetypeArena &
FleetSim::arenaOf(std::uint32_t s) const
{
    return const_cast<FleetSim *>(this)->arenaOf(s);
}

MaterializedRow &
FleetSim::materialize(std::uint32_t s)
{
    require(s < server_count_,
            "FleetSim: cannot materialize server " +
                std::to_string(s) + " of " +
                std::to_string(server_count_));
    auto it = rows_.find(s);
    if (it != rows_.end())
        return it->second;
    std::size_t arena_idx = 0;
    for (; arena_idx < arenas_.size(); ++arena_idx)
        if (arenas_[arena_idx]->covers(s))
            break;
    require(arena_idx < arenas_.size(),
            "FleetSim: no arena covers server " + std::to_string(s));
    ArchetypeArena &arena = *arenas_[arena_idx];
    MaterializedRow row;
    row.server = s;
    row.arena = arena_idx;
    row.model = arena.cloneBaseline();
    row.model->network().setObsLabel("fleet/srv" + std::to_string(s));
    row.firstStep = control_steps_;
    arena.noteMaterialized();
    if (obs::enabled()) {
        static obs::Counter &materialized =
            obs::registry().counter("fleet.rows.materialized");
        materialized.add(1);
    }
    return rows_.emplace(s, std::move(row)).first->second;
}

std::uint64_t
FleetSim::waxDigest() const
{
    // Canonical fingerprint of every arena's wax deployment, so a
    // checkpoint written under one candidate configuration cannot be
    // resumed under another (the opt engine varies exactly these
    // fields between otherwise identical fleets).
    std::uint64_t h = cache::kFnvOffsetBasis;
    for (const auto &a : arenas_) {
        const server::WaxConfig &wax = a->wax();
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
        materialize(e.server).queued.push_back({step, e.kind, e.value});
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
FleetSim::sampleBaselines(const SliceStep &s)
{
    for (std::size_t i = 0; i < arenas_.size(); ++i) {
        ArchetypeArena &arena = *arenas_[i];
        server::ServerModel &b = arena.baseline();
        b.setLoad(std::clamp(s.u * weights_[i], 0.0, 1.0));
        b.network().setObsClock(s.t);
        slice_base_out_.push_back(readOut(b));
        slice_aliased_.push_back(arena.aliasedCount());
    }
}

RowReadout
FleetSim::setRow(MaterializedRow &row, double u, double t) const
{
    const ArchetypeArena &arena = *arenas_[row.arena];
    double util = std::clamp(
        u * weights_[row.arena] + row.pert.utilDelta, 0.0, 1.0);
    double freq = row.pert.fanPinned ? arena.spec().cpu.minFreqGHz : 0.0;
    server::ServerModel &m = *row.model;
    m.setLoad(util, freq);
    m.network().setInletTemp(inletTempC + row.pert.inletDeltaC);
    m.network().setObsClock(t);
    return readOut(m);
}

std::size_t
FleetSim::firstSliceStep(const MaterializedRow &row) const
{
    return row.firstStep > slice_first_step_
        ? static_cast<std::size_t>(row.firstStep - slice_first_step_)
        : 0;
}

void
FleetSim::stepRows()
{
    if (rows_.empty())
        return;
    // Shards own contiguous server ranges; rows are looked up in the
    // ordered map, which no task mutates while the region runs, and
    // each task touches only its own rows.  A row runs its whole
    // slice before the shard moves on to the next row.
    const std::size_t samples = slice_.size();
    std::uint32_t n = static_cast<std::uint32_t>(server_count_);
    std::uint32_t chunk = static_cast<std::uint32_t>(
        (server_count_ + shard_count_ - 1) / shard_count_);
    exec::parallel_for_index(shard_count_, [&](std::size_t k) {
        std::uint32_t lo = static_cast<std::uint32_t>(k) * chunk;
        std::uint32_t hi = std::min(n, lo + chunk);
        if (lo >= hi)
            return;
        for (auto itr = rows_.lower_bound(lo);
             itr != rows_.end() && itr->first < hi; ++itr) {
            MaterializedRow &row = itr->second;
            // The buffer lives as long as the row: size it once, with
            // room for the horizon sample, so the last slice does not
            // reallocate every row.
            if (row.out.capacity() < samples)
                row.out.reserve(samples + 1);
            row.out.resize(samples);
            auto q = row.queued.cbegin();
            for (std::size_t j = firstSliceStep(row); j < samples; ++j) {
                const SliceStep &s = slice_[j];
                for (; q != row.queued.cend() && q->step == j; ++q)
                    row.pert.apply(q->kind, q->value);
                row.out[j] = setRow(row, s.u, s.t);
                if (s.dt > 0.0)
                    row.model->advance(s.dt, cfg_.thermalStepS);
            }
            row.queued.clear();
        }
    });
}

void
FleetSim::fold()
{
    // Canonical aggregation order for every sample - arena-major,
    // then rows in server order - so the sums are bit-identical at
    // any thread count, shard width and slice length (the aliased
    // contribution is one multiply, which only depends on the
    // width-invariant materialization pattern).  Each sample has its
    // own accumulator, so walking the rows once per slice adds into
    // each sample in exactly that order.
    const std::size_t samples = slice_.size();
    const std::size_t arenas = arenas_.size();
    slice_sums_.assign(samples, SampleSums{});
    for (std::size_t i = 0; i < arenas; ++i) {
        const ArchetypeArena &arena = *arenas_[i];
        // Rows carry their arena's (spec, wax), like the baseline.
        bool wax = arena.baseline().hasWax();
        for (std::size_t j = 0; j < samples; ++j) {
            const RowReadout &b = slice_base_out_[j * arenas + i];
            double aliased =
                static_cast<double>(slice_aliased_[j * arenas + i]);
            SampleSums &sum = slice_sums_[j];
            sum.cooling += aliased * b.coolingW;
            sum.itPower += aliased * b.wallW;
            if (wax) {
                sum.melt += aliased * b.meltFraction;
                sum.waxServers += aliased;
            }
        }
        std::uint32_t lo = arena.firstServer();
        std::uint32_t hi = lo + arena.count();
        for (auto itr = rows_.lower_bound(lo);
             itr != rows_.end() && itr->first < hi; ++itr) {
            const MaterializedRow &row = itr->second;
            for (std::size_t j = firstSliceStep(row); j < samples; ++j) {
                const RowReadout &r = row.out[j];
                SampleSums &sum = slice_sums_[j];
                sum.cooling += r.coolingW;
                sum.itPower += r.wallW;
                if (wax) {
                    sum.melt += r.meltFraction;
                    sum.waxServers += 1.0;
                }
            }
        }
    }
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
        peak_cooling_w_ = std::max(peak_cooling_w_, sum.cooling);
        peak_it_w_ = std::max(peak_it_w_, sum.itPower);
        last_cooling_w_ = sum.cooling;
        if (s.dt > 0.0)
            cooling_energy_j_ += sum.cooling * s.dt;
    }
}

double
FleetSim::advanceSlice(double sliceS)
{
    require(!done_, "FleetSim::step: run already finished");
    slice_.clear();
    slice_base_out_.clear();
    slice_aliased_.clear();
    slice_first_step_ = control_steps_;
    // Serial pass: the events and baselines of every step of the
    // slice.  Baselines are a handful of rows; serial keeps their
    // obs streams on the main task and costs nothing next to the
    // fleet.
    double moved = 0.0;
    for (;;) {
        SliceStep s;
        s.t = t_;
        s.u = utilAt(t_);
        s.dt = std::min(cfg_.controlIntervalS, cfg_.durationS - t_);
        {
            obs::Scope scope("fleet.step.events");
            queueEventsUpTo(s.t, slice_.size());
        }
        {
            obs::Scope scope("fleet.step.baselines");
            sampleBaselines(s);
            for (auto &arena : arenas_)
                arena->baseline().advance(s.dt, cfg_.thermalStepS);
        }
        slice_.push_back(s);
        moved += s.dt;
        t_ += s.dt;
        ++control_steps_;
        std::uint64_t inner = static_cast<std::uint64_t>(
            std::ceil(s.dt / cfg_.thermalStepS - 1e-9));
        if (inner == 0)
            inner = 1;
        server_steps_ +=
            static_cast<std::uint64_t>(server_count_) * inner;
        row_steps_ += static_cast<std::uint64_t>(arenas_.size() +
                                                 rows_.size()) *
            inner;
        if (obs::enabled()) {
            static obs::Counter &steps =
                obs::registry().counter("fleet.control_steps");
            steps.add(1);
            static obs::Gauge &materialized =
                obs::registry().gauge("fleet.rows.live");
            materialized.set(static_cast<double>(rows_.size()));
        }
        if (t_ >= cfg_.durationS - 1e-9) {
            // The horizon sample: due events and a read-out of every
            // model, but nothing advances (dt 0).
            t_ = cfg_.durationS;
            SliceStep h;
            h.t = t_;
            h.u = utilAt(t_);
            queueEventsUpTo(h.t, slice_.size());
            sampleBaselines(h);
            slice_.push_back(h);
            done_ = true;
            break;
        }
        // The slice ends once it covers sliceS, or on the step where
        // runResumable pauses run(): it tests this same sum.
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
                      static_cast<double>(rows_.size()), -1);
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
    auto it = rows_.find(s);
    if (it != rows_.end())
        return *it->second.model;
    return arenaOf(s).baseline();
}

RowPerturbState
FleetSim::serverPerturbState(std::uint32_t s) const
{
    auto it = rows_.find(s);
    return it != rows_.end() ? it->second.pert : RowPerturbState{};
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
    w.putU64("arena_count", arenas_.size());
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
    for (std::size_t i = 0; i < arenas_.size(); ++i) {
        const ArchetypeArena &a = *arenas_[i];
        w.section("arena." + std::to_string(i));
        w.putU64("first", a.firstServer());
        w.putU64("count", a.count());
        w.putU64("materialized", a.materializedCount());
        saveModel(w, "base", a.baseline());
    }
    w.section("rows");
    w.putU64("count", rows_.size());
    std::size_t k = 0;
    for (const auto &kv : rows_) {
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

void
FleetSim::restore(guard::CheckpointReader &r)
{
    r.expectSection("fleet");
    require(r.expectU64("server_count") == server_count_,
            "fleet checkpoint: server count mismatch");
    require(r.expectU64("arena_count") == arenas_.size(),
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
    for (std::size_t i = 0; i < arenas_.size(); ++i) {
        ArchetypeArena &a = *arenas_[i];
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
    rows_.clear();
    for (std::uint64_t k = 0; k < count; ++k) {
        r.expectSection("row." + std::to_string(k));
        MaterializedRow row;
        row.server =
            static_cast<std::uint32_t>(r.expectU64("server"));
        row.arena = static_cast<std::size_t>(r.expectU64("arena"));
        require(row.arena < arenas_.size() &&
                    arenas_[row.arena]->covers(row.server),
                "fleet checkpoint: row outside its arena");
        row.pert.utilDelta = r.expect("util_delta");
        row.pert.inletDeltaC = r.expect("inlet_delta");
        row.pert.fanPinned = r.expectBool("fan_pinned");
        const ArchetypeArena &arena = *arenas_[row.arena];
        row.model = std::make_unique<server::ServerModel>(
            arena.spec(), arena.wax());
        row.model->network().setObsLabel(
            "fleet/srv" + std::to_string(row.server));
        restoreModel(r, "m", *row.model);
        std::uint32_t server = row.server;
        rows_.emplace(server, std::move(row));
    }
    std::uint64_t materialized = 0;
    for (const auto &a : arenas_)
        materialized += a->materializedCount();
    require(materialized == rows_.size(),
            "fleet checkpoint: materialized-count mismatch");
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
    out.materializedRows = rows_.size();
    out.eventsApplied = events_applied_;
    out.serverCount = server_count_;
    return out;
}

} // namespace fleet
} // namespace tts
