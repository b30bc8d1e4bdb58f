#include "opt/engine.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>

#include "cache/lru.hh"
#include "exec/parallel.hh"
#include "obs/obs.hh"
#include "plant/study.hh"
#include "server/server_model.hh"
#include "tco/parameters.hh"
#include "util/error.hh"

namespace tts {
namespace opt {

namespace {

/** The memo is the shared LRU structure from tts::cache, keyed by
 *  canonical candidate fingerprints (opt/space.hh); it has never
 *  carried a collision guard - the coordinate space is tiny against
 *  64 bits - and rebasing onto LruMap keeps that contract. */
using Memo = cache::LruMap<EvalOutcome>;

/**
 * Annualized cooling-attributed capital + wax capital (USD/year):
 * the peak kW at the Table 2 cooling rate, plus each archetype's
 * wax CapEx scaled by its candidate mass relative to the paper
 * charge (Table 2 prices the paper charge).
 */
double
annualTcoUsd(const SearchSpace &space,
             const std::vector<double> &mass_kg, double peak_w,
             std::size_t server_count)
{
    double monthly = (peak_w / 1e3) *
        tco::parametersFor(space.archetypes[0].spec)
            .coolingAttributedCapExPerKW();
    std::vector<std::size_t> counts =
        fleet::platformCounts(server_count, space.archetypes.size());
    for (std::size_t a = 0; a < space.archetypes.size(); ++a) {
        const ArchetypeAxis &axis = space.archetypes[a];
        if (mass_kg[a] <= 0.0 || axis.paperMassKg <= 0.0)
            continue;
        monthly += static_cast<double>(counts[a]) *
            tco::parametersFor(axis.spec).waxCapExPerServer *
            (mass_kg[a] / axis.paperMassKg);
    }
    return 12.0 * monthly;
}

/**
 * Yearly OpEx of a non-default cooling backend serving the fleet's
 * mean cooling load (USD/year).  The oracle sees only the integrated
 * cooling energy (series recording is off), so the load is replayed
 * flat at hourly samples - enough for the time-of-use tariff and the
 * diurnal economizer COP to price it.  Zero for the default CRAC
 * adapter: the Table 2 coolingEnergyOpEx rate already covers it, and
 * the default search objective stays bit-identical.
 */
double
plantOpExUsdPerYear(const plant::PlantOptions &options,
                    double duration_s, double cooling_energy_j)
{
    if (options.kind == plant::BackendKind::Crac || duration_s <= 0.0)
        return 0.0;
    plant::PlantScenario scenario;
    double mean_w = std::max(cooling_energy_j, 0.0) / duration_s;
    for (double t = 0.0; t <= duration_s + 1e-9; t += 3600.0)
        scenario.loadW.append(t, mean_w);
    plant::PlantConfig config;
    config.options = options;
    return plant::runPlant(scenario, config).yearlyNetCostUsd;
}

/**
 * Archetype trajectories the memo keeps between batches.  A batch
 * first evicts the least recently used entries it does not read, down
 * to this count less its fresh runs; entries it reads stay until its
 * fold is done, so it may hold more while it runs.  A row-free run's
 * trajectory is one double per sample: 2,881 (22.5 KiB) for a 2-day
 * run at 60 s steps.
 */
constexpr std::size_t kTrajectoryMemoEntries = 12;

/**
 * One fleet to price: each non-empty slot's wax, placement weight and
 * memo key, and every slot's wax mass (the TCO charge).
 */
struct Deployment
{
    std::vector<server::WaxConfig> wax;
    std::vector<double> weight;
    std::vector<ArchetypeKey> key;
    std::vector<double> massKg;
};

/**
 * What a search holds fixed: the space, the options and the fleet's
 * layout.  Turns candidates into deployments.
 */
class Planner
{
  public:
    Planner(const SearchSpace &space, const OptOptions &opts)
        : space_(space), opts_(opts),
          layout_(fleet::layoutFleet(space.archetypes[0].spec, opts.fleet))
    {
        require(space.archetypes.size() == layout_.slots.size(),
                "opt: space has " +
                    std::to_string(space.archetypes.size()) +
                    " archetypes but the fleet oracle has " +
                    std::to_string(layout_.slots.size()) + " slots");
        for (std::size_t a = 0; a < layout_.slots.size(); ++a)
            if (layout_.slots[a].count > 0)
                slots_.push_back(a);
    }

    /** @return The non-empty slots, in slot order. */
    const std::vector<std::size_t> &slots() const { return slots_; }
    const fleet::FleetLayout &layout() const { return layout_; }

    /** @return Candidate @p c's deployment, memo keys included. */
    Deployment deploy(const Candidate &c) const
    {
        std::vector<server::WaxConfig> wax;
        std::vector<double> mass;
        for (std::size_t a = 0; a < space_.archetypes.size(); ++a) {
            wax.push_back(waxConfigOf(space_, c, a,
                                      opts_.fleet.run.meltWindowC));
            mass.push_back(massKgOf(space_, c, a));
        }
        Deployment d = weigh(
            wax, space_.policies[static_cast<std::size_t>(c.policy)],
            std::move(mass));
        const Candidate k = canonical(space_, c);
        for (std::size_t i = 0; i < slots_.size(); ++i)
            d.key.push_back({slots_[i], k.arch[slots_[i]],
                             std::bit_cast<std::uint64_t>(d.weight[i])});
        return d;
    }

    /** @return The paper's exact deployment: run.waxConfig() on
     *  every slot, Uniform placement (no memo keys). */
    Deployment paper() const
    {
        std::vector<double> mass;
        for (const ArchetypeAxis &a : space_.archetypes)
            mass.push_back(a.paperMassKg);
        return weigh(std::vector<server::WaxConfig>(
                         space_.archetypes.size(),
                         opts_.fleet.run.waxConfig()),
                     workload::PlacementPolicy::Uniform,
                     std::move(mass));
    }

  private:
    /** Weigh the non-empty slots as FleetSim does. */
    Deployment weigh(const std::vector<server::WaxConfig> &wax,
                     workload::PlacementPolicy policy,
                     std::vector<double> mass) const
    {
        Deployment d;
        std::vector<workload::ArchetypeLoadTraits> traits;
        for (std::size_t a : slots_) {
            const fleet::FleetSlot &slot = layout_.slots[a];
            traits.push_back(fleet::loadTraits(
                server::ServerModel(slot.spec, wax[a]), slot.count));
            d.wax.push_back(wax[a]);
        }
        if (!traits.empty())
            d.weight = workload::placementWeights(policy, traits);
        d.massKg = std::move(mass);
        return d;
    }

    const SearchSpace &space_;
    const OptOptions &opts_;
    fleet::FleetLayout layout_;
    std::vector<std::size_t> slots_;
};

/** The search engine: both memos and the counters around the oracle. */
class Engine
{
  public:
    Engine(const SearchSpace &space,
           const workload::WorkloadTrace &trace,
           const OptOptions &opts)
        : space_(space), opts_(opts), planner_(space, opts),
          clock_(opts.fleet, trace), samples_(clock_.sampleCount()),
          memo_(std::max<std::size_t>(1, opts.memoCapacity))
    {
    }

    /** Exact paper deployment on the oracle (the bar to clear). */
    EvalOutcome evalBaseline()
    {
        return price(
            1, [this](std::size_t) { return planner_.paper(); }, false)[0];
    }

    /** Candidate @p c on fresh archetype runs. */
    EvalOutcome evalFresh(const Candidate &c)
    {
        return price(
            1, [&](std::size_t) { return planner_.deploy(c); }, false)[0];
    }

    /**
     * Evaluate a batch of proposals: candidate-memo lookups and
     * in-batch dedupe first, then the misses are priced (plan,
     * fan-out, fold), then memo insertion in draft order.  The
     * outcome vector matches the proposal order exactly.
     */
    std::vector<EvalOutcome>
    evalBatch(const std::vector<Candidate> &props)
    {
        std::vector<EvalOutcome> out(props.size());
        std::vector<std::ptrdiff_t> slot(props.size(), -1);
        std::vector<Candidate> miss;
        std::vector<std::uint64_t> miss_fp;
        for (std::size_t i = 0; i < props.size(); ++i) {
            ++evaluations_;
            std::uint64_t fp = fingerprint(space_, props[i]);
            if (opts_.useMemo && memo_.find(fp, &out[i])) {
                ++memo_hits_;
                continue;
            }
            bool dup = false;
            for (std::size_t j = 0; j < miss_fp.size(); ++j) {
                if (miss_fp[j] == fp) {
                    slot[i] = static_cast<std::ptrdiff_t>(j);
                    dup = true;
                    break;
                }
            }
            if (dup)
                continue;
            slot[i] = static_cast<std::ptrdiff_t>(miss.size());
            miss.push_back(props[i]);
            miss_fp.push_back(fp);
        }
        std::vector<EvalOutcome> fresh = price(
            miss.size(),
            [&](std::size_t k) { return planner_.deploy(miss[k]); },
            opts_.useMemo);
        for (std::size_t j = 0; j < miss.size(); ++j)
            if (opts_.useMemo)
                memo_.insert(miss_fp[j], fresh[j]);
        for (std::size_t i = 0; i < props.size(); ++i)
            if (slot[i] >= 0)
                out[i] = fresh[static_cast<std::size_t>(slot[i])];
        return out;
    }

    std::uint64_t evaluations() const { return evaluations_; }
    std::uint64_t oracleCalls() const { return oracle_calls_; }
    std::uint64_t memoHits() const { return memo_hits_; }
    std::uint64_t archRuns() const { return arch_runs_; }
    std::uint64_t archMemoHits() const { return arch_memo_hits_; }

  private:
    /** One archetype run to simulate. */
    struct FreshRun
    {
        std::size_t slot = 0;
        server::WaxConfig wax;
        double weight = 1.0;
    };

    /** A memoized archetype run. */
    struct MemoEntry
    {
        ArchetypeKey key;
        std::unique_ptr<fleet::CoolingTrajectory> trajectory;
        /** Last batch that read the entry. */
        std::uint64_t batch = 0;
        /** Recency stamp. */
        std::uint64_t use = 0;
    };

    /**
     * Price @p n fleets, fleet k deployed by @p deploy(k): plan
     * (serial: the deployments, then with @p memo each slot's key is
     * looked up in the trajectory memo and among the batch's fresh
     * runs), fan out the distinct fresh runs, then fold each fleet's
     * trajectories in arena order.  Without @p memo every slot of
     * every fleet runs fresh.
     */
    template <typename Deploy>
    std::vector<EvalOutcome> price(std::size_t n, Deploy deploy, bool memo)
    {
        const std::size_t runs = planner_.slots().size();
        std::vector<Deployment> deps;
        // reads[d * runs + i]: fleet d's trajectory of run i - a memo
        // entry's, or (fresh_of >= 0) a fresh run's.
        std::vector<const fleet::CoolingTrajectory *> reads;
        std::vector<std::ptrdiff_t> fresh_of;
        std::vector<FreshRun> fresh;
        std::vector<ArchetypeKey> fresh_keys;
        {
            obs::Scope scope("opt.plan");
            for (std::size_t k = 0; k < n; ++k)
                deps.push_back(deploy(k));
            ++batch_;
            for (const Deployment &d : deps) {
                for (std::size_t i = 0; i < runs; ++i) {
                    if (memo) {
                        if (MemoEntry *e = findEntry(d.key[i])) {
                            e->batch = batch_;
                            e->use = ++tick_;
                            reads.push_back(e->trajectory.get());
                            fresh_of.push_back(-1);
                            ++arch_memo_hits_;
                            continue;
                        }
                        auto it = std::find(fresh_keys.begin(),
                                            fresh_keys.end(), d.key[i]);
                        if (it != fresh_keys.end()) {
                            reads.push_back(nullptr);
                            fresh_of.push_back(it - fresh_keys.begin());
                            ++arch_memo_hits_;
                            continue;
                        }
                        fresh_keys.push_back(d.key[i]);
                    }
                    reads.push_back(nullptr);
                    fresh_of.push_back(
                        static_cast<std::ptrdiff_t>(fresh.size()));
                    fresh.push_back({planner_.slots()[i], d.wax[i],
                                     d.weight[i]});
                }
            }
            if (memo)
                evictFor(fresh.size());
        }

        std::vector<std::unique_ptr<fleet::CoolingTrajectory>> ran;
        for (std::size_t k = 0; k < fresh.size(); ++k)
            ran.push_back(takeTrajectory());
        exec::parallel_for_index(fresh.size(), [&](std::size_t k) {
            obs::Scope scope("opt.arch_run");
            const FreshRun &f = fresh[k];
            fleet::runArchetype(opts_.fleet, clock_,
                                planner_.layout().slots[f.slot], f.wax,
                                f.weight, *ran[k]);
        });
        arch_runs_ += fresh.size();
        oracle_calls_ += deps.size();

        std::vector<EvalOutcome> out;
        {
            obs::Scope scope("opt.fold");
            for (std::size_t k = 0; k < reads.size(); ++k)
                if (fresh_of[k] >= 0)
                    reads[k] =
                        ran[static_cast<std::size_t>(fresh_of[k])].get();
            for (std::size_t d = 0; d < deps.size(); ++d)
                out.push_back(fold(deps[d], &reads[d * runs]));
        }
        for (std::size_t j = 0; j < ran.size(); ++j) {
            if (memo)
                arch_memo_.push_back(
                    {fresh_keys[j], std::move(ran[j]), batch_, ++tick_});
            else
                spare_.push_back(std::move(ran[j]));
        }
        return out;
    }

    /**
     * @return A trajectory for a fresh run: a spare one, or a new one
     * with room for the whole run.  Trajectories are allocated and
     * freed here, on the searching thread, and recycled through
     * spare_, so the search holds at most its high-water mark of them
     * and never fragments the heap with them (allocated on the pool's
     * workers and freed here, they raised the pinned search's peak
     * RSS by 0.45 MiB over 57 repeats).
     */
    std::unique_ptr<fleet::CoolingTrajectory> takeTrajectory()
    {
        if (spare_.empty()) {
            auto t = std::make_unique<fleet::CoolingTrajectory>();
            t->columns.emplace_back();
            t->columns[0].values.reserve(samples_);
            return t;
        }
        std::unique_ptr<fleet::CoolingTrajectory> t =
            std::move(spare_.back());
        spare_.pop_back();
        t->columns.resize(1);
        t->columns[0].values.clear();
        return t;
    }

    /** @return The memo entry under @p key, or null. */
    MemoEntry *findEntry(const ArchetypeKey &key)
    {
        for (MemoEntry &e : arch_memo_)
            if (e.key == key)
                return &e;
        return nullptr;
    }

    /**
     * Make room for @p incoming entries: evict the least recently used
     * entries the current batch does not read, until the memo holds at
     * most kTrajectoryMemoEntries with them or every entry left is
     * read by the batch.
     */
    void evictFor(std::size_t incoming)
    {
        while (arch_memo_.size() + incoming > kTrajectoryMemoEntries) {
            auto victim = arch_memo_.end();
            for (auto it = arch_memo_.begin(); it != arch_memo_.end();
                 ++it)
                if (it->batch != batch_ &&
                    (victim == arch_memo_.end() || it->use < victim->use))
                    victim = it;
            if (victim == arch_memo_.end())
                return;
            spare_.push_back(std::move(victim->trajectory));
            arch_memo_.erase(victim);
        }
    }

    /**
     * Fold one fleet's trajectories (@p traj, one per run, in arena
     * order) into its peak and energy - FleetSim's sums, sample by
     * sample - and price it.
     */
    EvalOutcome fold(const Deployment &d,
                     const fleet::CoolingTrajectory *const *traj)
    {
        EvalOutcome outcome;
        double t = 0.0;
        for (std::size_t j = 0; j < samples_; ++j) {
            double sum = 0.0;
            for (std::size_t i = 0; i < planner_.slots().size(); ++i)
                sum = fleet::addCooling(*traj[i], j, sum);
            const double dt = clock_.stepLength(t);
            fleet::accumulateCooling(sum, dt, outcome.peakCoolingW,
                                     outcome.coolingEnergyJ);
            t = clock_.after(t, dt);
        }
        outcome.tcoUsdPerYear =
            annualTcoUsd(space_, d.massKg, outcome.peakCoolingW,
                         opts_.fleet.run.serverCount);
        outcome.tcoUsdPerYear += plantOpExUsdPerYear(
            opts_.plant, opts_.fleet.durationS, outcome.coolingEnergyJ);
        return outcome;
    }

    const SearchSpace &space_;
    const OptOptions &opts_;
    Planner planner_;
    fleet::ControlClock clock_;
    /** Samples in a run, the horizon sample included. */
    std::size_t samples_;
    Memo memo_;
    std::vector<MemoEntry> arch_memo_;
    /** Trajectories of evicted entries, for takeTrajectory(). */
    std::vector<std::unique_ptr<fleet::CoolingTrajectory>> spare_;
    std::uint64_t batch_ = 0;
    std::uint64_t tick_ = 0;
    std::uint64_t evaluations_ = 0;
    std::uint64_t oracle_calls_ = 0;
    std::uint64_t memo_hits_ = 0;
    std::uint64_t arch_runs_ = 0;
    std::uint64_t arch_memo_hits_ = 0;
};

} // namespace

const char *
objectiveName(Objective o)
{
    switch (o) {
      case Objective::PeakCooling: return "peak";
      case Objective::Tco: return "tco";
    }
    return "unknown";
}

Objective
objectiveFromName(const std::string &name)
{
    if (name == "peak")
        return Objective::PeakCooling;
    if (name == "tco")
        return Objective::Tco;
    fatal("unknown objective '" + name + "' (want peak or tco)");
}

double
costOf(const EvalOutcome &outcome, Objective objective)
{
    return objective == Objective::PeakCooling
        ? outcome.peakCoolingW
        : outcome.tcoUsdPerYear;
}

std::vector<ArchetypeKey>
archetypeKeys(const SearchSpace &space, const Candidate &c,
              const OptOptions &opts)
{
    return Planner(space, opts).deploy(c).key;
}

EvalOutcome
evaluateCandidate(const SearchSpace &space, const Candidate &c,
                  const workload::WorkloadTrace &trace,
                  const OptOptions &opts)
{
    return Engine(space, trace, opts).evalFresh(c);
}

OptResult
optimizeWaxPlacement(const SearchSpace &space,
                     const workload::WorkloadTrace &trace,
                     const OptOptions &opts)
{
    std::size_t slots = opts.fleet.mixedPlatforms ? 3 : 1;
    require(space.archetypes.size() == slots,
            "optimizeWaxPlacement: space has " +
                std::to_string(space.archetypes.size()) +
                " archetypes but the fleet oracle expects " +
                std::to_string(slots));
    require(opts.restarts >= 1,
            "optimizeWaxPlacement: restarts must be >= 1");
    require(opts.batchSize >= 1,
            "optimizeWaxPlacement: batchSize must be >= 1");
    require(opts.coolingRate > 0.0 && opts.coolingRate <= 1.0,
            "optimizeWaxPlacement: coolingRate must be in (0, 1]");
    require(opts.initialTempFrac >= 0.0,
            "optimizeWaxPlacement: initialTempFrac must be >= 0");

    TTS_OBS_EVENT(obs::EventKind::PhaseBegin, 0.0, "opt.search",
                  static_cast<double>(opts.budget), -1);

    Engine engine(space, trace, opts);
    OptResult result;
    result.baselineOutcome = engine.evalBaseline();
    result.baselineCost =
        costOf(result.baselineOutcome, opts.objective);
    double t0 =
        std::abs(result.baselineCost) * opts.initialTempFrac;

    Candidate best;
    EvalOutcome best_outcome;
    double best_cost = std::numeric_limits<double>::infinity();
    auto consider = [&](const Candidate &c, const EvalOutcome &o,
                        double cost) {
        // Strict improvement only: the first achiever of a cost
        // keeps the spot, so ties break deterministically by
        // evaluation order.
        if (cost < best_cost) {
            best = c;
            best_outcome = o;
            best_cost = cost;
        }
    };

    for (std::size_t r = 0; r < opts.restarts; ++r) {
        TTS_OBS_EVENT(obs::EventKind::PhaseBegin, 0.0, "opt.restart",
                      0.0, static_cast<std::int64_t>(r));
        Rng rng = Rng::forStream(opts.seed, r);
        Candidate cur = r == 0 ? paperCandidate(space)
                               : randomCandidate(space, rng);
        EvalOutcome cur_out = engine.evalBatch({cur})[0];
        double cur_cost = costOf(cur_out, opts.objective);
        double restart_best = cur_cost;
        consider(cur, cur_out, cur_cost);
        result.trace.push_back({r, 0, engine.evaluations(),
                                cur_cost, restart_best, t0});
        TTS_OBS_EVENT(obs::EventKind::OptStep,
                      static_cast<double>(engine.evaluations()),
                      "opt.walk", cur_cost,
                      static_cast<std::int64_t>(r));

        std::size_t share = opts.budget / opts.restarts +
            (r < opts.budget % opts.restarts ? 1 : 0);
        std::size_t used = 0;
        std::size_t iter = 0;
        while (used < share) {
            std::size_t k = std::min(opts.batchSize, share - used);
            // Draft the whole batch - proposals and acceptance
            // uniforms - serially, before anything fans out.
            std::vector<Candidate> props;
            std::vector<double> accept_u;
            for (std::size_t i = 0; i < k; ++i) {
                props.push_back(randomNeighbor(space, cur, rng));
                accept_u.push_back(rng.uniform());
            }
            std::vector<EvalOutcome> outs = engine.evalBatch(props);
            used += k;
            double temp = t0 * std::pow(opts.coolingRate,
                                        static_cast<double>(iter));
            for (std::size_t i = 0; i < k; ++i) {
                double cost = costOf(outs[i], opts.objective);
                double delta = cost - cur_cost;
                bool accept = delta <= 0.0 ||
                    (temp > 0.0 &&
                     accept_u[i] < std::exp(-delta / temp));
                if (accept) {
                    cur = props[i];
                    cur_out = outs[i];
                    cur_cost = cost;
                }
                restart_best = std::min(restart_best, cost);
                consider(props[i], outs[i], cost);
            }
            ++iter;
            result.trace.push_back({r, iter, engine.evaluations(),
                                    cur_cost, restart_best, temp});
            TTS_OBS_EVENT(obs::EventKind::OptStep,
                          static_cast<double>(engine.evaluations()),
                          "opt.walk", cur_cost,
                          static_cast<std::int64_t>(r));
        }
        result.restartBest.push_back(restart_best);
        TTS_OBS_EVENT(obs::EventKind::PhaseEnd, 0.0, "opt.restart",
                      restart_best, static_cast<std::int64_t>(r));
    }

    if (opts.polish) {
        // Greedy descent over the full neighbor set (off-budget):
        // terminates because every round strictly lowers the cost in
        // a finite space; the cap is a pure invariant guard.
        while (result.polishRounds < 1000) {
            std::vector<Candidate> ns = neighbors(space, best);
            if (ns.empty())
                break;
            std::vector<EvalOutcome> outs = engine.evalBatch(ns);
            std::ptrdiff_t pick = -1;
            double pick_cost = best_cost;
            for (std::size_t i = 0; i < ns.size(); ++i) {
                double cost = costOf(outs[i], opts.objective);
                if (cost < pick_cost) {
                    pick = static_cast<std::ptrdiff_t>(i);
                    pick_cost = cost;
                }
            }
            if (pick < 0)
                break;
            best = ns[static_cast<std::size_t>(pick)];
            best_outcome = outs[static_cast<std::size_t>(pick)];
            best_cost = pick_cost;
            ++result.polishRounds;
        }
    }

    result.best = best;
    result.bestOutcome = best_outcome;
    result.bestCost = best_cost;
    result.policy = placementPolicyName(
        space.policies[static_cast<std::size_t>(best.policy)]);
    for (std::size_t a = 0; a < space.archetypes.size(); ++a) {
        ArchetypeChoice choice;
        choice.platform = space.archetypes[a].spec.name;
        choice.massKg = massKgOf(space, best, a);
        choice.liters = litersOf(space, best, a);
        choice.boxes = best.arch[a].massStep > 0
            ? static_cast<std::size_t>(best.arch[a].boxes)
            : 0;
        choice.meltTempC = meltTempCOf(space, best, a);
        result.choice.push_back(choice);
    }
    result.evaluations = engine.evaluations();
    result.oracleCalls = engine.oracleCalls();
    result.memoHits = engine.memoHits();
    result.archRuns = engine.archRuns();
    result.archMemoHits = engine.archMemoHits();

    if (obs::enabled()) {
        static obs::Counter &evals =
            obs::registry().counter("opt.evaluations");
        static obs::Counter &calls =
            obs::registry().counter("opt.oracle_calls");
        static obs::Counter &hits =
            obs::registry().counter("opt.memo_hits");
        static obs::Counter &arch_runs =
            obs::registry().counter("opt.arch_runs");
        static obs::Counter &arch_hits =
            obs::registry().counter("opt.arch_memo_hits");
        evals.add(result.evaluations);
        calls.add(result.oracleCalls);
        hits.add(result.memoHits);
        arch_runs.add(result.archRuns);
        arch_hits.add(result.archMemoHits);
        static obs::Gauge &best_gauge =
            obs::registry().gauge("opt.best_cost");
        best_gauge.set(result.bestCost);
    }
    TTS_OBS_EVENT(obs::EventKind::PhaseEnd, 0.0, "opt.search",
                  result.bestCost, -1);
    return result;
}

} // namespace opt
} // namespace tts
