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
FleetSim::applyEventsUpTo(double t)
{
    while (events_pos_ < events_.size() &&
           events_[events_pos_].timeS <= t) {
        const PerturbEvent &e = events_[events_pos_++];
        MaterializedRow &row = materialize(e.server);
        switch (e.kind) {
          case PerturbKind::UtilizationDelta:
            row.pert.utilDelta += e.value;
            break;
          case PerturbKind::InletDrift:
            row.pert.inletDeltaC += e.value;
            break;
          case PerturbKind::FanFailure:
            row.pert.fanPinned = true;
            break;
        }
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
FleetSim::setLoads(double u)
{
    for (std::size_t i = 0; i < arenas_.size(); ++i) {
        server::ServerModel &b = arenas_[i]->baseline();
        b.setLoad(std::clamp(u * weights_[i], 0.0, 1.0));
        b.network().setObsClock(t_);
    }
    for (auto &kv : rows_) {
        MaterializedRow &row = kv.second;
        const ArchetypeArena &arena = *arenas_[row.arena];
        double util = std::clamp(
            u * weights_[row.arena] + row.pert.utilDelta, 0.0, 1.0);
        double freq = row.pert.fanPinned
            ? arena.spec().cpu.minFreqGHz
            : 0.0;
        row.model->setLoad(util, freq);
        row.model->network().setInletTemp(inletTempC +
                                          row.pert.inletDeltaC);
        row.model->network().setObsClock(t_);
    }
}

void
FleetSim::record(double t)
{
    // Canonical aggregation order - arena-major, then rows in server
    // order - so the sums are bit-identical at any thread count and
    // shard width (the aliased contribution is one multiply, which
    // only depends on the width-invariant materialization pattern).
    double cooling = 0.0;
    double it_power = 0.0;
    double melt_sum = 0.0;
    double wax_servers = 0.0;
    for (const auto &arena : arenas_) {
        const server::ServerModel &b = arena->baseline();
        double aliased = static_cast<double>(arena->aliasedCount());
        cooling += aliased * b.coolingLoad();
        it_power += aliased * b.wallPower();
        if (b.hasWax()) {
            melt_sum += aliased * b.waxMeltFraction();
            wax_servers += aliased;
        }
        std::uint32_t lo = arena->firstServer();
        std::uint32_t hi = lo + arena->count();
        for (auto itr = rows_.lower_bound(lo);
             itr != rows_.end() && itr->first < hi; ++itr) {
            const server::ServerModel &m = *itr->second.model;
            cooling += m.coolingLoad();
            it_power += m.wallPower();
            if (m.hasWax()) {
                melt_sum += m.waxMeltFraction();
                wax_servers += 1.0;
            }
        }
    }
    if (cfg_.recordSeries) {
        cooling_w_.append(t, cooling);
        it_w_.append(t, it_power);
        melt_.append(t,
                     wax_servers > 0.0 ? melt_sum / wax_servers : 0.0);
    }
    peak_cooling_w_ = std::max(peak_cooling_w_, cooling);
    peak_it_w_ = std::max(peak_it_w_, it_power);
    last_cooling_w_ = cooling;
}

void
FleetSim::advanceAll(double dt)
{
    // Baselines are a handful of rows; serial keeps their obs
    // streams on the main task and costs nothing next to the fleet.
    for (auto &arena : arenas_)
        arena->baseline().advance(dt, cfg_.thermalStepS);
    if (rows_.empty())
        return;
    // Shards own contiguous server ranges; rows are looked up in the
    // ordered map, which no task mutates while the region runs.
    std::uint32_t n = static_cast<std::uint32_t>(server_count_);
    std::uint32_t chunk = static_cast<std::uint32_t>(
        (server_count_ + shard_count_ - 1) / shard_count_);
    exec::parallel_for_index(shard_count_, [&](std::size_t k) {
        std::uint32_t lo = static_cast<std::uint32_t>(k) * chunk;
        std::uint32_t hi = std::min(n, lo + chunk);
        if (lo >= hi)
            return;
        for (auto itr = rows_.lower_bound(lo);
             itr != rows_.end() && itr->first < hi; ++itr)
            itr->second.model->advance(dt, cfg_.thermalStepS);
    });
}

double
FleetSim::step()
{
    require(!done_, "FleetSim::step: run already finished");
    double u = utilAt(t_);
    applyEventsUpTo(t_);
    setLoads(u);
    record(t_);
    double dt = std::min(cfg_.controlIntervalS, cfg_.durationS - t_);
    advanceAll(dt);
    cooling_energy_j_ += last_cooling_w_ * dt;
    t_ += dt;
    ++control_steps_;
    std::uint64_t inner = static_cast<std::uint64_t>(
        std::ceil(dt / cfg_.thermalStepS - 1e-9));
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
        t_ = cfg_.durationS;
        double uf = utilAt(t_);
        applyEventsUpTo(t_);
        setLoads(uf);
        record(t_);
        done_ = true;
        TTS_OBS_EVENT(obs::EventKind::PhaseEnd, t_, "fleet.run",
                      static_cast<double>(rows_.size()), -1);
    }
    return dt;
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
FleetSim::advance(double)
{
    return step();
}

bool
FleetSim::run(const guard::CheckpointPolicy &policy)
{
    return guard::runResumable(*this, policy, "fleet.checkpoint");
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
