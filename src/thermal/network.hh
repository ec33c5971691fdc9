/**
 * @file
 * Lumped RC thermal network with phase-change-material (PCM) nodes.
 *
 * This is the thermal substrate of the sprinting study (paper Section 4,
 * Figure 3): nodes carry heat capacity and temperature, resistive edges
 * conduct heat, and an ambient reference holds a fixed temperature. A
 * node may additionally carry a PCM: once it reaches the melt
 * temperature, injected heat is absorbed by the latent heat of fusion at
 * constant temperature until the material is fully molten (and
 * symmetrically on freezing). The melt/freeze transition is handled in
 * an energy-conserving way.
 *
 * Transient integration sub-steps automatically for stability. Two
 * integrators are available behind step():
 *
 *  - Heun (the default): second-order explicit Runge-Kutta over the
 *    enthalpy curve. Its higher order permits ~10x longer sub-steps
 *    than first-order Euler at equal accuracy, so it is the hot path
 *    used by the coupled sprint simulation.
 *  - ReferenceEuler: the original first-order scheme, retained as an
 *    accuracy reference for parity tests and benchmarks.
 *
 * The per-node conductance topology (a CSR-style adjacency with the
 * ambient reference folded in) and the explicit-stability bound are
 * cached; the cache is invalidated only by addNode/addPcmNode/
 * addResistor/addResistorToAmbient/reset and rebuilt lazily, so the
 * per-substep kernel performs no allocation.
 *
 * The rebuild also recognises the three-node PCM package that
 * MobilePackageModel builds (junction and case each tied only to the
 * PCM node). Heun steps on that shape run a straight-line loop that
 * keeps the whole step in registers and performs the CSR loop's
 * floating-point operations in the same order, so both paths produce
 * bit-identical states; every other network takes the CSR loop.
 */

#ifndef CSPRINT_THERMAL_NETWORK_HH
#define CSPRINT_THERMAL_NETWORK_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace csprint {

/** Identifies a node within a ThermalNetwork. */
using ThermalNodeId = std::size_t;

/** Phase-change behaviour attached to a thermal node. */
struct PcmProperties
{
    Joules latent_heat;   ///< total heat of fusion for the block [J]
    Celsius melt_temp;    ///< melting point [degrees C]
};

/** Integration scheme used by ThermalNetwork::step(). */
enum class ThermalIntegrator
{
    ReferenceEuler, ///< first-order explicit Euler (accuracy reference)
    Heun,           ///< second-order Heun / RK2 (default, ~10x fewer substeps)
};

/**
 * A value-semantic snapshot of a network's mutable state (node
 * temperatures, PCM melt fractions, injected powers). Restoring it
 * into a network with the same topology reproduces the thermal state
 * bit-for-bit; the cached topology and integrator scratch are derived
 * data and are rebuilt deterministically. Plain vectors of doubles, so
 * a snapshot is trivially serializable.
 */
struct ThermalNetworkState
{
    std::vector<double> temps;
    std::vector<double> melt_fractions;
    std::vector<double> injected;
};

/**
 * An RC thermal network with optional PCM nodes.
 *
 * Usage: add nodes and resistive edges, set per-node injected power,
 * then advance with step(). Temperatures, melt fractions, and stored
 * energy are queryable at any time.
 */
class ThermalNetwork
{
  public:
    /** Create a network whose ambient reference sits at @p ambient. */
    explicit ThermalNetwork(Celsius ambient = 25.0);

    /** Add a plain node with heat capacity @p cap starting at @p t0. */
    ThermalNodeId addNode(const std::string &name, JoulesPerKelvin cap,
                          Celsius t0);

    /** Add a node that also carries a phase-change material. */
    ThermalNodeId addPcmNode(const std::string &name, JoulesPerKelvin cap,
                             Celsius t0, const PcmProperties &pcm);

    /** Connect two nodes with thermal resistance @p r. */
    void addResistor(ThermalNodeId a, ThermalNodeId b, KelvinPerWatt r);

    /** Connect a node to the ambient reference with resistance @p r. */
    void addResistorToAmbient(ThermalNodeId node, KelvinPerWatt r);

    /** Set the heat injected into @p node [W] until changed again. */
    void setPower(ThermalNodeId node, Watts power);

    /** Current power injected into @p node. */
    Watts power(ThermalNodeId node) const;

    /** Ambient temperature. */
    Celsius ambient() const { return ambient_temp; }

    /** Select the integration scheme used by step(). */
    void setIntegrator(ThermalIntegrator integrator)
    {
        scheme = integrator;
    }

    /** Integration scheme currently in use. */
    ThermalIntegrator integrator() const { return scheme; }

    /** Advance the network by @p dt, sub-stepping as needed. */
    void step(Seconds dt);

    /**
     * Advance the network by @p dt through the quiescent super-stepper:
     * an adaptive scheme for the constant-power (typically zero-power
     * idle) regime that starts at the plain Heun substep and grows the
     * step (up to doubling per acceptance, step-doubling error
     * control at local tolerance @p tol) while the trajectory stays
     * far from any PCM melt/freeze plateau boundary. Plateau nodes
     * are pinned at their melt point with the melt fraction
     * integrating the net inflow; where the topology permits (every
     * sensible node's neighbors pinned) each node follows its exact
     * closed-form exponential decay, and otherwise the coupled
     * sensible set takes one backward-Euler step per substep
     * (unconditionally stable, so steps can exceed the explicit
     * stability bound by orders of magnitude). Near a plateau
     * boundary the stepper falls back to plain Heun substeps, so
     * melt/freeze corners are integrated exactly as step() would.
     *
     * Injected powers are held constant for the whole span (the caller
     * must not change them mid-advance — that is what "quiescent"
     * means). step() and advanceQuiescent() may be freely interleaved.
     */
    void advanceQuiescent(Seconds dt, Celsius tol = 0.01);

    /** Snapshot the mutable state (see ThermalNetworkState). */
    ThermalNetworkState saveState() const;

    /**
     * Restore a snapshot taken from a network with identical topology
     * (node count asserted). Derived caches are rebuilt lazily, so a
     * restored network steps bit-identically to the snapshotted one.
     */
    void restoreState(const ThermalNetworkState &state);

    /** Temperature of @p node. */
    Celsius temperature(ThermalNodeId node) const;

    /** Melt fraction in [0,1] of a PCM node (0 for plain nodes). */
    double meltFraction(ThermalNodeId node) const;

    /** Name given to @p node at creation. */
    const std::string &name(ThermalNodeId node) const;

    /** Number of nodes (excluding the ambient reference). */
    std::size_t nodeCount() const { return temp_.size(); }

    /**
     * Heat stored in the network relative to every node sitting at
     * ambient with all PCM frozen: sensible heat plus absorbed latent
     * heat. Used by conservation tests and budget estimates.
     */
    Joules storedEnergy() const;

    /**
     * Reset all nodes to ambient with PCM fully frozen, clear any
     * integrator scratch state, and invalidate the cached stability
     * bound so a reused network cannot read stale values.
     */
    void reset();

    /**
     * Largest explicit-Euler step that is stable for this network
     * (cached; rebuilt lazily after topology changes). step() sub-steps
     * well below this bound for accuracy, not just stability.
     */
    Seconds maxStableStep() const;

  private:
    struct Edge
    {
        // kAmbient as either endpoint refers to the ambient reference.
        std::size_t a;
        std::size_t b;
        KelvinPerWatt resistance;
    };

    static constexpr std::size_t kAmbient =
        static_cast<std::size_t>(-1);

    /** Rebuild the CSR adjacency and stability bound when dirty. */
    void ensureTopology() const;

    /** Net power into every node at temperatures @p t, into @p p. */
    void computeNetPower(const double *t, double *p) const;

    /** One first-order (reference) substep of length @p h. */
    void substepEuler(Seconds h);

    /** One second-order Heun substep of length @p h. */
    void substepHeun(Seconds h);

    /**
     * @p substeps Heun substeps of length @p h on the package shape
     * (package_shape_): substepHeun's operations, in its order, on
     * locals.
     */
    void heunPackage(Seconds h, int substeps);

    /**
     * One quiescent trial substep of length @p h from (@p t_in,
     * @p mf_in) into (@p t_out, @p mf_out): exponential decay toward
     * the frozen-neighbor fixed point for sensible nodes, direct
     * latent-inflow integration on a plateau. Returns false when the
     * step would cross a PCM plateau boundary (melt-point crossing,
     * full melt, or full refreeze) — the caller must fall back to Heun.
     */
    bool quiescentSubstep(const double *t_in, const double *mf_in,
                          double *t_out, double *mf_out,
                          Seconds h) const;

    Celsius ambient_temp;
    ThermalIntegrator scheme = ThermalIntegrator::Heun;

    // --- Node state, SoA (hot arrays first) -----------------------------
    std::vector<double> temp_;          ///< node temperatures [C]
    std::vector<double> injected_;      ///< injected power [W]
    std::vector<double> cap_;           ///< heat capacity [J/K]
    std::vector<double> sens_inv_cap_;  ///< 1/C for plain nodes, 0 for PCM
    std::vector<double> melt_fraction_; ///< PCM melt fraction (0 if plain)
    std::vector<std::uint8_t> has_pcm_;
    std::vector<PcmProperties> pcm_;
    std::vector<std::size_t> pcm_nodes_; ///< indices of PCM nodes
    std::vector<std::string> names_;

    std::vector<Edge> edges; ///< source of truth for the CSR rebuild

    // --- Cached topology (CSR adjacency, ambient folded in) -------------
    mutable bool topology_dirty_ = true;
    mutable std::vector<std::size_t> row_ptr_; ///< size nodeCount()+1
    mutable std::vector<std::size_t> nbr_;     ///< neighbor node index
    mutable std::vector<double> g_;            ///< edge conductance [W/K]
    mutable std::vector<double> g_amb_;        ///< conductance to ambient
    mutable std::vector<double> g_sum_;        ///< total conductance
    mutable Seconds stable_cached_ = 0.0;      ///< min_i C_i / g_sum_i
    mutable double inv_hmax_ = 0.0; ///< 1 / (Heun substep bound); 0 if inf
    mutable bool package_shape_ = false; ///< Heun runs heunPackage

    // --- Preallocated integrator scratch --------------------------------
    mutable std::vector<double> p1_;      ///< stage-1 net power [W]
    mutable std::vector<double> p2_;      ///< stage-2 net power [W]
    mutable std::vector<double> t_pred_;  ///< predictor temperatures
    mutable std::vector<double> mf_pred_; ///< predictor melt fractions
    // Quiescent-stepper trial state (one full step vs two half steps)
    // and backward-Euler solver scratch.
    mutable std::vector<double> t_q1_;
    mutable std::vector<double> mf_q1_;
    mutable std::vector<double> t_q2_;
    mutable std::vector<double> mf_q2_;
    mutable std::vector<double> t_q3_;
    mutable std::vector<double> mf_q3_;
    mutable std::vector<std::uint8_t> q_plateau_;
    mutable std::vector<std::size_t> q_dense_index_;
    mutable std::vector<double> q_mat_;  ///< dense BE system, m*m
    mutable std::vector<double> q_rhs_;
};

} // namespace csprint

#endif // CSPRINT_THERMAL_NETWORK_HH
