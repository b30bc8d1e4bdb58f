#include "opt/engine.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "cache/lru.hh"
#include "exec/parallel.hh"
#include "obs/obs.hh"
#include "plant/study.hh"
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
 * The oracle: run fleet @p f - a candidate's deployment or the
 * paper's - to the end and price it.  @p mass_kg is the wax mass of
 * each archetype, which the TCO reading charges for.
 */
EvalOutcome
runOracle(const SearchSpace &space,
          const workload::WorkloadTrace &trace, const OptOptions &opts,
          fleet::FleetConfig f, const std::vector<double> &mass_kg)
{
    // Thousands of evaluations: peaks and energy only, no per-step
    // series.
    f.recordSeries = false;
    fleet::FleetSim sim(space.archetypes[0].spec, trace, f);
    sim.run();
    fleet::FleetResult r = sim.take();
    EvalOutcome outcome;
    outcome.peakCoolingW = r.peakCoolingW;
    outcome.coolingEnergyJ = r.coolingEnergyJ;
    outcome.tcoUsdPerYear = annualTcoUsd(space, mass_kg, r.peakCoolingW,
                                         f.run.serverCount);
    outcome.tcoUsdPerYear += plantOpExUsdPerYear(
        opts.plant, f.durationS, r.coolingEnergyJ);
    return outcome;
}

/** The search engine: memo + counters around the fleet oracle. */
class Engine
{
  public:
    Engine(const SearchSpace &space,
           const workload::WorkloadTrace &trace,
           const OptOptions &opts)
        : space_(space), trace_(trace), opts_(opts),
          memo_(std::max<std::size_t>(1, opts.memoCapacity))
    {
    }

    /** Exact paper deployment on the oracle (the bar to clear). */
    EvalOutcome evalBaseline()
    {
        fleet::FleetConfig f = opts_.fleet;
        f.archetypeWax.clear();
        f.placement = workload::PlacementPolicy::Uniform;
        std::vector<double> mass;
        for (const ArchetypeAxis &a : space_.archetypes)
            mass.push_back(a.paperMassKg);
        oracle_calls_.fetch_add(1, std::memory_order_relaxed);
        return runOracle(space_, trace_, opts_, f, mass);
    }

    /**
     * Evaluate a batch of proposals: memo lookups and in-batch
     * dedupe first, then the misses fan out on the thread pool into
     * index-keyed slots, then memo insertion in draft order.  The
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
        std::vector<EvalOutcome> fresh = exec::parallel_map(
            miss,
            [this](const Candidate &c) { return evalCandidate(c); });
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

  private:
    EvalOutcome evalCandidate(const Candidate &c)
    {
        oracle_calls_.fetch_add(1, std::memory_order_relaxed);
        return evaluateCandidate(space_, c, trace_, opts_);
    }

    const SearchSpace &space_;
    const workload::WorkloadTrace &trace_;
    const OptOptions &opts_;
    Memo memo_;
    std::uint64_t evaluations_ = 0;
    /** Bumped inside the parallel region; every other counter is
     *  serial-only. */
    std::atomic<std::uint64_t> oracle_calls_{0};
    std::uint64_t memo_hits_ = 0;
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

EvalOutcome
evaluateCandidate(const SearchSpace &space, const Candidate &c,
                  const workload::WorkloadTrace &trace,
                  const OptOptions &opts)
{
    fleet::FleetConfig f = opts.fleet;
    std::vector<double> mass;
    for (std::size_t a = 0; a < space.archetypes.size(); ++a) {
        f.archetypeWax.push_back(
            waxConfigOf(space, c, a, opts.fleet.run.meltWindowC));
        mass.push_back(massKgOf(space, c, a));
    }
    f.placement = space.policies[static_cast<std::size_t>(c.policy)];
    return runOracle(space, trace, opts, f, mass);
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

    if (obs::enabled()) {
        static obs::Counter &evals =
            obs::registry().counter("opt.evaluations");
        static obs::Counter &calls =
            obs::registry().counter("opt.oracle_calls");
        static obs::Counter &hits =
            obs::registry().counter("opt.memo_hits");
        evals.add(result.evaluations);
        calls.add(result.oracleCalls);
        hits.add(result.memoHits);
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
