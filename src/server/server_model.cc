#include "server/server_model.hh"

#include <cmath>

#include "util/error.hh"
#include "util/units.hh"

namespace tts {
namespace server {

WaxConfig
WaxConfig::placebo()
{
    WaxConfig c;
    c.mode = Mode::Placebo;
    return c;
}

WaxConfig
WaxConfig::paper()
{
    WaxConfig c;
    c.mode = Mode::Wax;
    return c;
}

WaxConfig
WaxConfig::withMeltTemp(double melt_c)
{
    WaxConfig c;
    c.mode = Mode::Wax;
    c.meltTempC = melt_c;
    return c;
}

WaxConfig
WaxConfig::custom(double liters, double melt_c, std::size_t boxes)
{
    WaxConfig c;
    c.mode = Mode::Wax;
    c.liters = liters;
    c.meltTempC = melt_c;
    c.boxCount = boxes;
    return c;
}

ServerModel::ServerModel(const ServerSpec &spec, const WaxConfig &wax)
    : spec_(spec), wax_cfg_(wax)
{
    spec_.validate();
    buildBay(wax);
    buildNetwork();

    // Calibrate the misc residual so the modeled wall power matches
    // the published envelope exactly at both endpoints (the paper
    // lumps "motherboard, LEDs, I/O, etc." the same way).
    double dc_idle = spec_.psu.dcFromWall(spec_.idleWallPowerW);
    double dc_peak = spec_.psu.dcFromWall(spec_.peakWallPowerW);
    auto components = [this](double util) {
        double cpu = static_cast<double>(spec_.sockets) *
            spec_.cpu.power(util, spec_.cpu.nominalFreqGHz);
        return cpu + spec_.dram.power(util) + spec_.hdd.power(util) +
            spec_.ssd.power(util) +
            spec_.fans.powerAt(spec_.fans.speedAt(util));
    };
    misc_idle_w_ = dc_idle - components(0.0);
    misc_peak_w_ = dc_peak - components(1.0);
    require(misc_idle_w_ >= 0.0 && misc_peak_w_ >= 0.0,
            "ServerModel: component power exceeds the published wall "
            "power envelope; spec is inconsistent");

    setLoad(0.0);
    solveSteadyState();
}

void
ServerModel::buildBay(const WaxConfig &cfg)
{
    if (cfg.mode == WaxConfig::Mode::None)
        return;
    if (cfg.explicitBox) {
        std::size_t count = cfg.boxCount > 0 ? cfg.boxCount : 1;
        bank_ = pcm::ContainerBank(*cfg.explicitBox, count,
                                   spec_.ductAreaM2);
        bay_blockage_ = spec_.waxBlockageOverride >= 0.0
            ? spec_.waxBlockageOverride
            : bank_->blockageFraction();
        if (cfg.mode == WaxConfig::Mode::Wax) {
            double melt = cfg.meltTempC > 0.0
                ? cfg.meltTempC : spec_.defaultMeltTempC;
            wax_ = std::make_unique<pcm::PcmElement>(
                cfg.material, *bank_, melt, spec_.inletTempC,
                cfg.meltWindowC, cfg.supercoolingC);
        }
        return;
    }

    double liters = cfg.liters > 0.0 ? cfg.liters : spec_.waxLiters;
    std::size_t boxes =
        cfg.boxCount > 0 ? cfg.boxCount : spec_.waxBoxCount;
    if (liters <= 0.0 || boxes == 0)
        return;  // Platform has no wax bay (OCP production layout).

    // Size the bank against the platform's blockage cap.  When the
    // platform reuses existing inhibitor space (blockage override
    // >= 0) the cap only shapes the boxes, so use a generic geometric
    // cap instead of the platform's aerodynamic one.
    double cap = spec_.waxBlockageOverride >= 0.0
        ? 0.55
        : (spec_.maxWaxBlockage > 0.0 ? spec_.maxWaxBlockage : 0.35);
    bank_ = pcm::sizeBank(units::liters(liters), spec_.ductAreaM2,
                          spec_.ductHeightM, cap, boxes);
    bay_blockage_ = spec_.waxBlockageOverride >= 0.0
        ? spec_.waxBlockageOverride
        : bank_->blockageFraction();

    if (cfg.mode == WaxConfig::Mode::Wax) {
        double melt = cfg.meltTempC > 0.0 ? cfg.meltTempC
                                          : spec_.defaultMeltTempC;
        wax_ = std::make_unique<pcm::PcmElement>(
            cfg.material, *bank_, melt, spec_.inletTempC,
            cfg.meltWindowC, cfg.supercoolingC);
    }
}

void
ServerModel::buildNetwork()
{
    thermal::AirflowModel airflow = spec_.makeAirflow();
    airflow.setBlockage(bay_blockage_);
    net_ = std::make_unique<thermal::ServerThermalNetwork>(
        airflow, ZoneCount, spec_.inletTempC);

    // Reference all convective couplings to the platform's full-load
    // duct velocity so the spec's ua0 values are the effective
    // conductances at load.
    double vref = spec_.fans.speedAt(1.0) * spec_.nominalVelocity();
    auto coupling = [vref](const NodeThermal &n) {
        return thermal::ConvectiveCoupling{n.ua0, vref, 0.8};
    };

    double t0 = spec_.inletTempC;
    front_node_ = net_->addCapacityNode(
        "front", spec_.frontNode.capacity, coupling(spec_.frontNode),
        ZoneFront, t0);
    dram_node_ = net_->addCapacityNode(
        "dram", spec_.dramNode.capacity, coupling(spec_.dramNode),
        ZoneDram, t0);
    chassis_node_ = net_->addCapacityNode(
        "chassis", spec_.chassisNode.capacity,
        coupling(spec_.chassisNode), ZoneDram, t0);
    cpu_node_ = net_->addCapacityNode(
        "cpu", spec_.cpuNode.capacity, coupling(spec_.cpuNode),
        ZoneCpu, t0);
    psu_node_ = net_->addCapacityNode(
        "psu", spec_.psuNode.capacity, coupling(spec_.psuNode),
        ZoneRear, t0);

    // A little of the CPU heat conducts into the chassis sheet metal.
    net_->addConduction(cpu_node_, chassis_node_, 1.0);

    net_->setZonePlumeFraction(ZoneCpu, spec_.cpuZonePlume);
    net_->setZonePlumeFraction(spec_.waxZone, spec_.waxBayPlume);

    if (bank_) {
        if (wax_) {
            bay_node_ = net_->addPcmNode("wax", wax_.get(),
                                         spec_.waxZone);
        } else {
            // Placebo: air-filled boxes = shell heat capacity with
            // the same surface coupling and blockage.
            double cap = bank_->shellMass() *
                units::aluminumSpecificHeat;
            double v = net_->airflow().velocityAtBlockage();
            thermal::ConvectiveCoupling c{
                bank_->conductanceAt(v), std::max(v, 0.05), 0.8};
            bay_node_ = net_->addCapacityNode(
                "placebo", cap, c, spec_.waxZone, t0,
                thermal::VelocityRef::Constriction);
        }
    }
}

void
ServerModel::setLoad(double util, double freq_ghz)
{
    require(util >= 0.0 && util <= 1.0,
            "ServerModel::setLoad: util must be in [0, 1]");
    util_ = util;
    freq_ = freq_ghz > 0.0 ? spec_.cpu.clampFreq(freq_ghz)
                           : spec_.cpu.nominalFreqGHz;

    double cpu_total = static_cast<double>(spec_.sockets) *
        spec_.cpu.power(util_, freq_);
    double dram = spec_.dram.power(util_);
    double drives = spec_.hdd.power(util_) + spec_.ssd.power(util_);
    double fan_speed = spec_.fans.speedAt(util_);
    double fan_power = spec_.fans.powerAt(fan_speed);
    double misc = miscPower(util_);
    double dc = cpu_total + dram + drives + fan_power + misc;
    double psu_loss = spec_.psu.lossPower(dc);

    net_->airflow().setFanSpeed(fan_speed);
    net_->setNodePower(cpu_node_, cpu_total);
    net_->setNodePower(dram_node_, dram);
    net_->setNodePower(front_node_, drives);
    net_->setNodePower(chassis_node_, misc);
    net_->setNodePower(psu_node_, psu_loss);
    net_->setDirectAirPower(ZoneFront, fan_power);
}

void
ServerModel::advance(double dt_total, double dt_step)
{
    net_->advance(dt_total, dt_step);
}

void
ServerModel::solveSteadyState()
{
    net_->solveSteadyState();
}

double
ServerModel::miscPower(double util) const
{
    return misc_idle_w_ + (misc_peak_w_ - misc_idle_w_) * util;
}

double
ServerModel::dcPower() const
{
    double cpu_total = static_cast<double>(spec_.sockets) *
        spec_.cpu.power(util_, freq_);
    return cpu_total + spec_.dram.power(util_) +
        spec_.hdd.power(util_) + spec_.ssd.power(util_) +
        spec_.fans.powerAt(spec_.fans.speedAt(util_)) +
        miscPower(util_);
}

double
ServerModel::wallPower() const
{
    return spec_.psu.wallPower(dcPower());
}

double
ServerModel::coolingLoad() const
{
    return net_->airHeatRate();
}

double
ServerModel::heatStorageRate() const
{
    return wallPower() - coolingLoad();
}

double
ServerModel::throughput() const
{
    return util_ * spec_.cpu.throughputScale(freq_);
}

double
ServerModel::cpuCaseTemp() const
{
    return net_->nodeTemperature(cpu_node_);
}

double
ServerModel::cpuJunctionTemp() const
{
    double per_socket = spec_.cpu.power(util_, freq_);
    return cpuCaseTemp() + per_socket * spec_.junctionResistance;
}

double
ServerModel::outletTemp() const
{
    return net_->outletTemp();
}

double
ServerModel::waxBayAirTemp() const
{
    return net_->zoneAirTemp(spec_.waxZone);
}

double
ServerModel::waxTemp() const
{
    require(hasWax(), "ServerModel::waxTemp: no wax installed");
    return wax_->temperature();
}

double
ServerModel::waxMeltFraction() const
{
    require(hasWax(),
            "ServerModel::waxMeltFraction: no wax installed");
    return wax_->meltFraction();
}

double
ServerModel::waxStoredEnergy() const
{
    return hasWax() ? wax_->storedEnergy() : 0.0;
}

double
ServerModel::waxLatentCapacity() const
{
    return hasWax() ? wax_->latentCapacity() : 0.0;
}

double
ServerModel::blockage() const
{
    return bay_blockage_;
}

double
ServerModel::bayNodeTemp() const
{
    require(hasBay(), "ServerModel::bayNodeTemp: empty bay");
    return net_->nodeTemperature(bay_node_);
}

void
ServerModel::saveThermalState(guard::CheckpointWriter &w,
                              const std::string &key) const
{
    w.putVector(key + ".h", net_->enthalpies());
    w.putBool(key + ".has_wax", hasWax());
    if (hasWax()) {
        pcm::PcmElement::ThermalState ts = wax_->thermalState();
        w.put(key + ".wax.h", ts.enthalpyJ);
        w.putBool(key + ".wax.freezing", ts.freezingBranch);
        w.putBool(key + ".wax.was_melted", ts.wasMelted);
        w.putU64(key + ".wax.cycles", ts.cycles);
    }
    w.putCounters(key + ".guard", net_->guardCounters());
}

void
ServerModel::restoreThermalState(guard::CheckpointReader &r,
                                 const std::string &key)
{
    std::vector<double> h = r.expectVector(key + ".h");
    r.check(h.size() == net_->enthalpies().size(), key + ".h",
            std::to_string(h.size()) + " enthalpies for a " +
                std::to_string(net_->enthalpies().size()) +
                "-node network");
    r.check(guard::firstNonFinite(h) < 0, key + ".h",
            "non-finite enthalpy");
    net_->setEnthalpies(h);
    bool has_wax = r.expectBool(key + ".has_wax");
    r.check(has_wax == hasWax(), key + ".has_wax",
            std::string("wax configuration mismatch (model ") +
                (hasWax() ? "has" : "has no") + " wax)");
    if (has_wax) {
        pcm::PcmElement::ThermalState ts;
        ts.enthalpyJ = r.expect(key + ".wax.h");
        ts.freezingBranch = r.expectBool(key + ".wax.freezing");
        ts.wasMelted = r.expectBool(key + ".wax.was_melted");
        ts.cycles = r.expectU64(key + ".wax.cycles");
        wax_->restoreThermalState(ts);
    }
    net_->setGuardCounters(r.expectCounters(key + ".guard"));
}

} // namespace server
} // namespace tts
