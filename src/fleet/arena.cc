#include "fleet/arena.hh"

#include <bit>

#include "util/error.hh"

namespace tts {
namespace fleet {

std::uint64_t
digestDouble(std::uint64_t h, double v)
{
    return cache::fnv1aMixU64(h, std::bit_cast<std::uint64_t>(v));
}

ArchetypeArena::ArchetypeArena(const server::ServerSpec &spec,
                               const server::WaxConfig &wax,
                               std::uint32_t first_server,
                               std::uint32_t count,
                               double initial_util)
    : spec_(spec), wax_(wax), first_(first_server), count_(count),
      baseline_(std::make_unique<server::ServerModel>(spec, wax))
{
    require(count >= 1, "ArchetypeArena: need at least one row");
    baseline_->network().setInletTemp(inletTempC);
    baseline_->setLoad(initial_util);
    baseline_->solveSteadyState();
}

void
copyServerState(const server::ServerModel &from,
                server::ServerModel &to)
{
    require(from.hasWax() == to.hasWax(),
            "copyServerState: wax configuration mismatch");
    to.network().setInletTemp(from.network().inletTemp());
    to.setLoad(from.utilization(), from.frequency());
    to.network().setEnthalpies(from.network().enthalpies());
    if (from.hasWax())
        to.wax()->restoreThermalState(from.wax()->thermalState());
    to.network().setGuardCounters(from.network().guardCounters());
    to.network().setObsClock(from.network().obsClock());
}

std::unique_ptr<server::ServerModel>
ArchetypeArena::cloneBaseline() const
{
    auto clone = std::make_unique<server::ServerModel>(spec_, wax_);
    copyServerState(*baseline_, *clone);
    return clone;
}

std::uint64_t
digestServerState(const server::ServerModel &model,
                  const RowPerturbState &pert, std::uint64_t h)
{
    for (double v : model.network().enthalpies())
        h = digestDouble(h, v);
    if (model.hasWax()) {
        pcm::PcmElement::ThermalState ts = model.wax()->thermalState();
        h = digestDouble(h, ts.enthalpyJ);
        h = cache::fnv1aMixU64(h, ts.freezingBranch ? 1 : 0);
        h = cache::fnv1aMixU64(h, ts.wasMelted ? 1 : 0);
        h = cache::fnv1aMixU64(h, ts.cycles);
    }
    h = digestDouble(h, model.utilization());
    h = digestDouble(h, model.frequency());
    h = digestDouble(h, pert.utilDelta);
    h = digestDouble(h, pert.inletDeltaC);
    h = cache::fnv1aMixU64(h, pert.fanPinned ? 1 : 0);
    return h;
}

} // namespace fleet
} // namespace tts
