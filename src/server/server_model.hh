/**
 * @file
 * Executable model of one server: power decomposition + thermal
 * network + optional PCM charge.
 *
 * ServerModel is the per-platform equivalent of the paper's Icepak
 * server models (Figures 6, 8, 9): it assembles the thermal network
 * from a ServerSpec, computes the component power split for a given
 * (utilization, frequency) operating point, and steps the transient.
 * The wax can be real PCM, a placebo (empty aluminum boxes - the
 * validation control), or absent.
 */

#ifndef TTS_SERVER_SERVER_MODEL_HH
#define TTS_SERVER_SERVER_MODEL_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "guard/checkpoint.hh"
#include "pcm/container.hh"
#include "pcm/material.hh"
#include "pcm/pcm_element.hh"
#include "server/server_spec.hh"
#include "thermal/network.hh"

namespace tts {
namespace server {

/** Wax deployment choice for a ServerModel. */
struct WaxConfig
{
    /** What sits in the wax bay. */
    enum class Mode
    {
        None,     //!< Stock server, empty bay.
        Placebo,  //!< Sealed boxes filled with air (control).
        Wax,      //!< Boxes filled with PCM.
    };

    Mode mode = Mode::None;
    /** PCM material (ignored for None/Placebo blockage purposes). */
    pcm::Material material = pcm::commercialParaffin();
    /** Wax volume (liters); <= 0 uses the spec default. */
    double liters = 0.0;
    /** Container count; 0 uses the spec default. */
    std::size_t boxCount = 0;
    /** Melting temperature (C); <= 0 uses the spec default. */
    double meltTempC = 0.0;
    /** Melt window width (C).  Narrow by default: a slab melting
     *  at a moving front absorbs at nearly constant temperature. */
    double meltWindowC = 0.5;
    /** Supercooling depth (C); 0 disables hysteresis. */
    double supercoolingC = 0.0;
    /**
     * Explicit container geometry; when set, boxCount boxes of this
     * shape are used instead of sizing against the blockage cap
     * (used e.g. for the 90 ml validation box of Section 3).
     */
    std::optional<pcm::BoxSpec> explicitBox;

    /** Stock server, no containers. */
    static WaxConfig none() { return {}; }
    /** Containers present but air-filled (validation control). */
    static WaxConfig placebo();
    /** The paper's deployment for the platform (spec defaults). */
    static WaxConfig paper();
    /** PCM with an explicit melting temperature (C). */
    static WaxConfig withMeltTemp(double melt_c);
    /** PCM with explicit volume (liters) and melting point. */
    static WaxConfig custom(double liters, double melt_c,
                            std::size_t boxes = 0);
};

/** A runnable server instance. */
class ServerModel
{
  public:
    /**
     * Build the server.
     *
     * @param spec Platform specification (copied).
     * @param wax  Wax bay contents.
     */
    explicit ServerModel(const ServerSpec &spec,
                         const WaxConfig &wax = WaxConfig::none());

    /**
     * Set the operating point.  Recomputes the component power split
     * and fan speed; takes effect on the next advance() or
     * solveSteadyState().
     *
     * @param util     Utilization in [0, 1].
     * @param freq_ghz Core frequency (GHz); <= 0 means nominal.
     */
    void setLoad(double util, double freq_ghz = 0.0);

    /** Advance the thermal state (s). */
    void advance(double dt_total, double dt_step = 1.0);

    /** Jump the thermal state to steady state at the current load. */
    void solveSteadyState();

    /** @return Current utilization. */
    double utilization() const { return util_; }
    /** @return Current frequency (GHz). */
    double frequency() const { return freq_; }

    /** @return Wall (AC) power at the current load (W). */
    double wallPower() const;
    /** @return DC power at the current load (W). */
    double dcPower() const;

    /**
     * @return Instantaneous heat rejected to the room air (W).  With
     * melting wax this is below wallPower(); while the wax freezes it
     * is above.
     */
    double coolingLoad() const;

    /**
     * @return Rate of heat being absorbed into server thermal mass,
     * wallPower() - coolingLoad() (W).
     */
    double heatStorageRate() const;

    /**
     * @return Relative throughput: utilization x frequency scale
     * (1.0 == fully loaded at nominal frequency).
     */
    double throughput() const;

    /** @return CPU lumped node (case/heatsink) temperature (C). */
    double cpuCaseTemp() const;
    /** @return CPU junction temperature (C). */
    double cpuJunctionTemp() const;
    /** @return Server outlet air temperature (C). */
    double outletTemp() const;
    /** @return Air temperature at the wax bay (C). */
    double waxBayAirTemp() const;

    /** @return True if the bay holds PCM (not placebo/none). */
    bool hasWax() const { return wax_ != nullptr; }
    /** @return Wax temperature (C); requires hasWax(). */
    double waxTemp() const;
    /** @return Wax melt fraction; requires hasWax(). */
    double waxMeltFraction() const;
    /** @return Wax stored energy above initial (J); 0 without wax. */
    double waxStoredEnergy() const;
    /** @return Wax latent capacity (J); 0 without wax. */
    double waxLatentCapacity() const;

    /** @return Duct blockage imposed by the bay contents. */
    double blockage() const;

    /** @return True if the bay holds anything (wax or placebo). */
    bool hasBay() const { return bay_node_ >= 0; }

    /**
     * @return Surface temperature of the bay contents (wax or
     * placebo box) (C); requires hasBay().
     */
    double bayNodeTemp() const;

    /** @return The platform spec. */
    const ServerSpec &spec() const { return spec_; }

    /** @return The thermal network (for tests and harnesses). */
    thermal::ServerThermalNetwork &network() { return *net_; }
    /** @return The thermal network. */
    const thermal::ServerThermalNetwork &network() const
    {
        return *net_;
    }

    /** @return The PCM element, or null. */
    pcm::PcmElement *wax() { return wax_.get(); }
    /** @return The PCM element, or null. */
    const pcm::PcmElement *wax() const { return wax_.get(); }

    /** @return Misc residual power at utilization u (W). */
    double miscPower(double util) const;

    /**
     * Checkpoint the evolving thermal state under "<key>.*": node
     * enthalpies, the wax's melt/freeze latches and cycle count, and
     * the network's guard counters.  The operating point is the
     * caller's to save.
     */
    void saveThermalState(guard::CheckpointWriter &w,
                          const std::string &key) const;

    /**
     * Restore state written by saveThermalState() into a model of
     * the same (spec, wax).
     * @throws FatalError naming the key of a block that does not fit
     *         this model (node count, wax presence).
     */
    void restoreThermalState(guard::CheckpointReader &r,
                             const std::string &key);

  private:
    void buildBay(const WaxConfig &cfg);
    void buildNetwork();

    ServerSpec spec_;
    WaxConfig wax_cfg_;
    std::optional<pcm::ContainerBank> bank_;
    std::unique_ptr<pcm::PcmElement> wax_;
    std::unique_ptr<thermal::ServerThermalNetwork> net_;
    int cpu_node_ = -1;
    int dram_node_ = -1;
    int front_node_ = -1;
    int psu_node_ = -1;
    int chassis_node_ = -1;
    int bay_node_ = -1;      //!< Wax or placebo node, or -1.
    double util_ = 0.0;
    double freq_ = 0.0;
    double misc_idle_w_ = 0.0;
    double misc_peak_w_ = 0.0;
    double bay_blockage_ = 0.0;
};

} // namespace server
} // namespace tts

#endif // TTS_SERVER_SERVER_MODEL_HH
