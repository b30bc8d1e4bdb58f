#include "fleet/archetype_run.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <string>

#include "obs/obs.hh"
#include "util/error.hh"

namespace tts {
namespace fleet {

namespace {

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

double
addCooling(const CoolingTrajectory &t, std::size_t j, double sum)
{
    for (const CoolingTrajectory::Column &c : t.columns)
        if (j >= c.first && j - c.first < c.values.size())
            sum += c.values[j - c.first];
    return sum;
}

ArchetypeRun::ArchetypeRun(std::size_t index,
                           const server::ServerSpec &spec,
                           const server::WaxConfig &wax,
                           std::uint32_t first_server,
                           std::uint32_t count, double initial_util,
                           std::vector<PerturbEvent> events)
    : index_(index),
      arena_(spec, wax, first_server, count, initial_util),
      events_(std::move(events))
{
}

MaterializedRow &
ArchetypeRun::materialize(std::uint32_t s, std::uint64_t control_step)
{
    require(arena_.covers(s),
            "ArchetypeRun: server " + std::to_string(s) +
                " is outside the arena");
    auto it = rows_.find(s);
    if (it != rows_.end())
        return it->second;
    MaterializedRow row;
    row.server = s;
    row.arena = index_;
    row.model = arena_.cloneBaseline();
    row.model->network().setObsLabel("fleet/srv" + std::to_string(s));
    row.firstStep = control_step;
    arena_.noteMaterialized();
    if (obs::enabled()) {
        static obs::Counter &materialized =
            obs::registry().counter("fleet.rows.materialized");
        materialized.add(1);
    }
    return rows_.emplace(s, std::move(row)).first->second;
}

MaterializedRow &
ArchetypeRun::restoreRow(std::uint32_t s, const RowPerturbState &pert)
{
    MaterializedRow row;
    row.server = s;
    row.arena = index_;
    row.pert = pert;
    row.model = std::make_unique<server::ServerModel>(arena_.spec(),
                                                      arena_.wax());
    row.model->network().setObsLabel("fleet/srv" + std::to_string(s));
    return rows_.emplace(s, std::move(row)).first->second;
}

double
ArchetypeRun::nextEventTime() const
{
    return events_pos_ < events_.size()
        ? events_[events_pos_].timeS
        : std::numeric_limits<double>::infinity();
}

void
ArchetypeRun::queueNext(std::size_t step, std::uint64_t control_step)
{
    const PerturbEvent &e = events_[events_pos_++];
    materialize(e.server, control_step)
        .queued.push_back({step, e.kind, e.value});
}

void
ArchetypeRun::beginSlice(std::uint64_t first_step)
{
    slice_first_step_ = first_step;
    base_out_.clear();
    aliased_.clear();
}

void
ArchetypeRun::sampleBaseline(const SliceStep &s)
{
    server::ServerModel &b = arena_.baseline();
    b.setLoad(std::clamp(s.u * weight_, 0.0, 1.0));
    b.network().setObsClock(s.t);
    base_out_.push_back(readOut(b));
    aliased_.push_back(arena_.aliasedCount());
}

void
ArchetypeRun::advanceBaseline(double dt, double thermal_step_s)
{
    arena_.baseline().advance(dt, thermal_step_s);
}

RowReadout
ArchetypeRun::setRow(MaterializedRow &row, double u, double t) const
{
    double util =
        std::clamp(u * weight_ + row.pert.utilDelta, 0.0, 1.0);
    double freq =
        row.pert.fanPinned ? arena_.spec().cpu.minFreqGHz : 0.0;
    server::ServerModel &m = *row.model;
    m.setLoad(util, freq);
    m.network().setInletTemp(inletTempC + row.pert.inletDeltaC);
    m.network().setObsClock(t);
    return readOut(m);
}

std::size_t
ArchetypeRun::firstSliceStep(const MaterializedRow &row) const
{
    return row.firstStep > slice_first_step_
        ? static_cast<std::size_t>(row.firstStep - slice_first_step_)
        : 0;
}

void
ArchetypeRun::stepRows(std::uint32_t lo, std::uint32_t hi,
                       std::span<const SliceStep> slice,
                       double thermal_step_s)
{
    using thermal::ServerThermalNetwork;
    const std::size_t samples = slice.size();
    const auto first = rows_.lower_bound(lo);
    const auto last = rows_.lower_bound(hi);
    for (auto itr = first; itr != last; ++itr) {
        // The buffer lives as long as the row: size it once, with
        // room for the horizon sample, so the last slice does not
        // reallocate every row.
        std::vector<RowReadout> &out = itr->second.out;
        if (out.capacity() < samples)
            out.reserve(samples + 1);
        out.resize(samples);
    }
    // Step-major: every row of the range takes step j before any
    // takes step j + 1, so the rows due at a step advance together,
    // ServerThermalNetwork::kLanes at a time.  The rows share the
    // arena's (spec, wax), hence one network topology.
    std::array<ServerThermalNetwork *, ServerThermalNetwork::kLanes>
        batch;
    for (std::size_t j = 0; j < samples; ++j) {
        const SliceStep &s = slice[j];
        std::size_t due = 0;
        for (auto itr = first; itr != last; ++itr) {
            MaterializedRow &row = itr->second;
            if (j < firstSliceStep(row))
                continue;
            for (const QueuedPerturbation &q : row.queued)
                if (q.step == j)
                    row.pert.apply(q.kind, q.value);
            row.out[j] = setRow(row, s.u, s.t);
            if (s.dt <= 0.0)
                continue;
            batch[due++] = &row.model->network();
            if (due == batch.size()) {
                ServerThermalNetwork::advanceLanes(batch, s.dt,
                                                   thermal_step_s);
                due = 0;
            }
        }
        ServerThermalNetwork::advanceLanes({batch.data(), due}, s.dt,
                                           thermal_step_s);
    }
    for (auto itr = first; itr != last; ++itr)
        itr->second.queued.clear();
}

void
ArchetypeRun::fold(std::vector<SampleSums> &sums) const
{
    // The aliased contribution is one multiply, which depends only on
    // the width-invariant materialization pattern.  Each sample has
    // its own accumulator, so walking the rows once per slice adds
    // into each sample in canonical order.  Rows carry their arena's
    // (spec, wax), like the baseline.
    const bool wax = arena_.baseline().hasWax();
    for (std::size_t j = 0; j < base_out_.size(); ++j) {
        const RowReadout &b = base_out_[j];
        double aliased = static_cast<double>(aliased_[j]);
        SampleSums &sum = sums[j];
        sum.cooling += aliased * b.coolingW;
        sum.itPower += aliased * b.wallW;
        if (wax) {
            sum.melt += aliased * b.meltFraction;
            sum.waxServers += aliased;
        }
    }
    for (const auto &kv : rows_) {
        const MaterializedRow &row = kv.second;
        for (std::size_t j = firstSliceStep(row); j < base_out_.size();
             ++j) {
            const RowReadout &r = row.out[j];
            SampleSums &sum = sums[j];
            sum.cooling += r.coolingW;
            sum.itPower += r.wallW;
            if (wax) {
                sum.melt += r.meltFraction;
                sum.waxServers += 1.0;
            }
        }
    }
}

void
ArchetypeRun::recordCooling(CoolingTrajectory &out) const
{
    // The same terms fold() adds to the cooling sum, column by column.
    if (out.columns.empty())
        out.columns.emplace_back();
    std::vector<double> &base = out.columns[0].values;
    for (std::size_t j = 0; j < base_out_.size(); ++j)
        base.push_back(static_cast<double>(aliased_[j]) *
                       base_out_[j].coolingW);
    // Columns follow the rows' server order; a row first seen in this
    // slice gets a new column at its place.
    std::size_t k = 1;
    for (const auto &kv : rows_) {
        const MaterializedRow &row = kv.second;
        const std::size_t first = firstSliceStep(row);
        if (k == out.columns.size() || out.columns[k].server != kv.first) {
            CoolingTrajectory::Column c;
            c.server = kv.first;
            c.first = static_cast<std::size_t>(slice_first_step_) + first;
            out.columns.insert(
                out.columns.begin() + static_cast<std::ptrdiff_t>(k),
                std::move(c));
        }
        std::vector<double> &col = out.columns[k].values;
        for (std::size_t j = first; j < base_out_.size(); ++j)
            col.push_back(row.out[j].coolingW);
        ++k;
    }
}

} // namespace fleet
} // namespace tts
