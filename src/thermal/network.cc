#include "thermal/network.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "common/logging.hh"

namespace csprint {

namespace {

// Accuracy-driven sub-step fractions of the explicit stability bound.
// First-order Euler needs h = 0.01 * tau to keep step-response errors
// under ~0.2% of the driving amplitude; second-order Heun reaches the
// same accuracy with ~10x longer sub-steps (global error ~ (h/tau)^2).
constexpr double kEulerStepFraction = 0.01;
constexpr double kHeunStepFraction = 0.1;
constexpr double kHeunOverEuler = kHeunStepFraction / kEulerStepFraction;

/**
 * Apply @p joules along the piecewise enthalpy curve of a PCM node:
 * sensible heat below the melt point, latent plateau at the melt
 * point, sensible heat above. Operates on caller-supplied temperature
 * / melt-fraction storage so the predictor stage can walk scratch
 * copies. Forced inline so the package loop keeps both in registers.
 */
[[gnu::always_inline]] inline void
applyPcmHeat(double &temp, double &melt_fraction, JoulesPerKelvin cap,
             const PcmProperties &pcm, Joules joules)
{
    double remaining = joules;
    const Celsius melt = pcm.melt_temp;
    const Joules latent = pcm.latent_heat;

    // One sign of heat crosses at most three segments; the bound only
    // guards against floating-point ping-pong.
    for (int iter = 0; iter < 8 && remaining != 0.0; ++iter) {
        if (remaining > 0.0) {
            if (temp < melt) {
                const Joules to_melt_point = (melt - temp) * cap;
                if (remaining < to_melt_point) {
                    temp += remaining / cap;
                    remaining = 0.0;
                } else {
                    temp = melt;
                    remaining -= to_melt_point;
                }
            } else if (melt_fraction < 1.0) {
                const Joules to_full_melt =
                    (1.0 - melt_fraction) * latent;
                if (remaining < to_full_melt) {
                    melt_fraction += remaining / latent;
                    temp = melt;
                    remaining = 0.0;
                } else {
                    melt_fraction = 1.0;
                    temp = melt;
                    remaining -= to_full_melt;
                }
            } else {
                temp += remaining / cap;
                remaining = 0.0;
            }
        } else {
            if (temp > melt) {
                const Joules to_melt_point =
                    (melt - temp) * cap; // negative
                if (remaining > to_melt_point) {
                    temp += remaining / cap;
                    remaining = 0.0;
                } else {
                    temp = melt;
                    remaining -= to_melt_point;
                }
            } else if (melt_fraction > 0.0) {
                const Joules to_full_freeze =
                    -melt_fraction * latent; // negative
                if (remaining > to_full_freeze) {
                    melt_fraction += remaining / latent;
                    temp = melt;
                    remaining = 0.0;
                } else {
                    melt_fraction = 0.0;
                    temp = melt;
                    remaining -= to_full_freeze;
                }
            } else {
                temp += remaining / cap;
                remaining = 0.0;
            }
        }
    }
    // Energy conservation: never drop residual heat. Any leftover from
    // the guard above folds into sensible heat.
    if (remaining != 0.0)
        temp += remaining / cap;
}

} // namespace

ThermalNetwork::ThermalNetwork(Celsius ambient) : ambient_temp(ambient) {}

ThermalNodeId
ThermalNetwork::addNode(const std::string &name, JoulesPerKelvin cap,
                        Celsius t0)
{
    SPRINT_ASSERT(cap > 0.0, "node capacity must be positive");
    temp_.push_back(t0);
    injected_.push_back(0.0);
    cap_.push_back(cap);
    sens_inv_cap_.push_back(1.0 / cap);
    melt_fraction_.push_back(0.0);
    has_pcm_.push_back(0);
    pcm_.push_back({0.0, 0.0});
    names_.push_back(name);
    topology_dirty_ = true;
    return temp_.size() - 1;
}

ThermalNodeId
ThermalNetwork::addPcmNode(const std::string &name, JoulesPerKelvin cap,
                           Celsius t0, const PcmProperties &pcm)
{
    SPRINT_ASSERT(pcm.latent_heat > 0.0, "latent heat must be positive");
    const ThermalNodeId id = addNode(name, cap, t0);
    has_pcm_[id] = 1;
    pcm_[id] = pcm;
    melt_fraction_[id] = t0 > pcm.melt_temp ? 1.0 : 0.0;
    // PCM nodes take the enthalpy walk, not the sensible fast path.
    sens_inv_cap_[id] = 0.0;
    pcm_nodes_.push_back(id);
    return id;
}

void
ThermalNetwork::addResistor(ThermalNodeId a, ThermalNodeId b,
                            KelvinPerWatt r)
{
    SPRINT_ASSERT(a < temp_.size() && b < temp_.size(),
                  "resistor endpoint out of range");
    SPRINT_ASSERT(r > 0.0, "thermal resistance must be positive");
    edges.push_back({a, b, r});
    topology_dirty_ = true;
}

void
ThermalNetwork::addResistorToAmbient(ThermalNodeId node, KelvinPerWatt r)
{
    SPRINT_ASSERT(node < temp_.size(), "resistor endpoint out of range");
    SPRINT_ASSERT(r > 0.0, "thermal resistance must be positive");
    edges.push_back({node, kAmbient, r});
    topology_dirty_ = true;
}

void
ThermalNetwork::setPower(ThermalNodeId node, Watts power)
{
    SPRINT_ASSERT(node < temp_.size(), "node out of range");
    injected_[node] = power;
}

Watts
ThermalNetwork::power(ThermalNodeId node) const
{
    SPRINT_ASSERT(node < temp_.size(), "node out of range");
    return injected_[node];
}

Celsius
ThermalNetwork::temperature(ThermalNodeId node) const
{
    SPRINT_ASSERT(node < temp_.size(), "node out of range");
    return temp_[node];
}

double
ThermalNetwork::meltFraction(ThermalNodeId node) const
{
    SPRINT_ASSERT(node < temp_.size(), "node out of range");
    return melt_fraction_[node];
}

const std::string &
ThermalNetwork::name(ThermalNodeId node) const
{
    SPRINT_ASSERT(node < temp_.size(), "node out of range");
    return names_[node];
}

void
ThermalNetwork::ensureTopology() const
{
    if (!topology_dirty_)
        return;

    const std::size_t n = temp_.size();
    row_ptr_.assign(n + 1, 0);
    g_amb_.assign(n, 0.0);
    g_sum_.assign(n, 0.0);

    // Counting pass: each internal edge appears in both endpoint rows;
    // ambient edges fold into g_amb_ instead of occupying a slot.
    for (const auto &e : edges) {
        if (e.a != kAmbient && e.b != kAmbient) {
            ++row_ptr_[e.a + 1];
            ++row_ptr_[e.b + 1];
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        row_ptr_[i + 1] += row_ptr_[i];

    nbr_.assign(row_ptr_[n], 0);
    g_.assign(row_ptr_[n], 0.0);
    std::vector<std::size_t> fill(row_ptr_.begin(), row_ptr_.end() - 1);
    for (const auto &e : edges) {
        const double g = 1.0 / e.resistance;
        if (e.a != kAmbient && e.b != kAmbient) {
            nbr_[fill[e.a]] = e.b;
            g_[fill[e.a]++] = g;
            nbr_[fill[e.b]] = e.a;
            g_[fill[e.b]++] = g;
            g_sum_[e.a] += g;
            g_sum_[e.b] += g;
        } else if (e.a != kAmbient) {
            g_amb_[e.a] += g;
            g_sum_[e.a] += g;
        } else if (e.b != kAmbient) {
            g_amb_[e.b] += g;
            g_sum_[e.b] += g;
        }
    }

    // Explicit Euler on a node is stable while dt < C_i / sum_j(1/R_ij);
    // take the tightest node. (Heun shares the same real-axis bound.)
    double limit = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
        if (g_sum_[i] > 0.0)
            limit = std::min(limit, cap_[i] / g_sum_[i]);
    }
    stable_cached_ = limit;
    inv_hmax_ = std::isinf(limit)
                    ? 0.0
                    : 1.0 / (kHeunStepFraction * limit);

    // MobilePackageModel's PCM package: junction (0) and case (1) each
    // see only the PCM node (2), whose row lists the junction first.
    // Ambient edges fold into g_amb_, so any node may have one.
    static constexpr std::size_t kPackageRows[] = {0, 1, 2, 4};
    static constexpr std::size_t kPackageNbrs[] = {2, 2, 0, 1};
    package_shape_ =
        pcm_nodes_.size() == 1 && pcm_nodes_[0] == 2 &&
        std::equal(row_ptr_.begin(), row_ptr_.end(),
                   std::begin(kPackageRows), std::end(kPackageRows)) &&
        std::equal(nbr_.begin(), nbr_.end(), std::begin(kPackageNbrs),
                   std::end(kPackageNbrs));

    p1_.assign(n, 0.0);
    p2_.assign(n, 0.0);
    t_pred_.assign(n, 0.0);
    mf_pred_.assign(n, 0.0);
    topology_dirty_ = false;
}

Seconds
ThermalNetwork::maxStableStep() const
{
    ensureTopology();
    return stable_cached_;
}

void
ThermalNetwork::computeNetPower(const double *t, double *p) const
{
    const std::size_t n = temp_.size();
    const double t_amb = ambient_temp;
    for (std::size_t i = 0; i < n; ++i) {
        double acc =
            injected_[i] + g_amb_[i] * t_amb - g_sum_[i] * t[i];
        const std::size_t end = row_ptr_[i + 1];
        for (std::size_t k = row_ptr_[i]; k < end; ++k)
            acc += g_[k] * t[nbr_[k]];
        p[i] = acc;
    }
}

void
ThermalNetwork::substepEuler(Seconds h)
{
    const std::size_t n = temp_.size();
    double *const t = temp_.data();
    double *const p1 = p1_.data();
    const double *const sic = sens_inv_cap_.data();

    computeNetPower(t, p1);
    // Branch-free sensible update (sens_inv_cap_ is 0 for PCM nodes)...
    for (std::size_t i = 0; i < n; ++i)
        t[i] += h * p1[i] * sic[i];
    // ...then the enthalpy walk for the flagged PCM nodes only.
    for (const std::size_t i : pcm_nodes_)
        applyPcmHeat(t[i], melt_fraction_[i], cap_[i], pcm_[i],
                     h * p1[i]);
}

void
ThermalNetwork::substepHeun(Seconds h)
{
    const std::size_t n = temp_.size();
    double *const t = temp_.data();
    double *const tp = t_pred_.data();
    double *const p1 = p1_.data();
    double *const p2 = p2_.data();
    const double *const sic = sens_inv_cap_.data();
    const double t_amb = ambient_temp;
    const std::size_t *const rp = row_ptr_.data();
    const std::size_t *const nbr = nbr_.data();
    const double *const g = g_.data();
    const double *const g_amb = g_amb_.data();
    const double *const g_sum = g_sum_.data();
    const double *const inj = injected_.data();

    // Stage 1 at the current state, fused with the Euler predictor
    // into preallocated scratch (sens_inv_cap_ is 0 for PCM nodes).
    for (std::size_t i = 0; i < n; ++i) {
        double acc = inj[i] + g_amb[i] * t_amb - g_sum[i] * t[i];
        const std::size_t end = rp[i + 1];
        for (std::size_t k = rp[i]; k < end; ++k)
            acc += g[k] * t[nbr[k]];
        p1[i] = acc;
        tp[i] = t[i] + h * acc * sic[i];
    }
    // Enthalpy-aware predictor for the flagged PCM nodes only, so the
    // latent plateau is honoured mid-step.
    for (const std::size_t i : pcm_nodes_) {
        mf_pred_[i] = melt_fraction_[i];
        applyPcmHeat(tp[i], mf_pred_[i], cap_[i], pcm_[i], h * p1[i]);
    }

    // Stage 2 at the predicted state, fused with the corrector: apply
    // the averaged heat. Per-edge flows enter both endpoints
    // antisymmetrically, so the applied heats conserve energy to
    // rounding.
    const double hh = 0.5 * h;
    for (std::size_t i = 0; i < n; ++i) {
        double acc = inj[i] + g_amb[i] * t_amb - g_sum[i] * tp[i];
        const std::size_t end = rp[i + 1];
        for (std::size_t k = rp[i]; k < end; ++k)
            acc += g[k] * tp[nbr[k]];
        p2[i] = acc;
        t[i] += hh * (p1[i] + acc) * sic[i];
    }
    for (const std::size_t i : pcm_nodes_)
        applyPcmHeat(t[i], melt_fraction_[i], cap_[i], pcm_[i],
                     hh * (p1[i] + p2[i]));
}

void
ThermalNetwork::heunPackage(Seconds h, int substeps)
{
    // Row i's sum is inj_i + g_amb_i * T_amb - g_sum_i * T_i, then each
    // CSR slot's g * T_nbr in slot order. The first two terms are
    // constant over the step, so hoisting them changes no bit.
    const double t_amb = ambient_temp;
    const double b0 = injected_[0] + g_amb_[0] * t_amb;
    const double b1 = injected_[1] + g_amb_[1] * t_amb;
    const double b2 = injected_[2] + g_amb_[2] * t_amb;
    const double gs0 = g_sum_[0], gs1 = g_sum_[1], gs2 = g_sum_[2];
    const double g02 = g_[0], g12 = g_[1], g20 = g_[2], g21 = g_[3];
    const double sic0 = sens_inv_cap_[0], sic1 = sens_inv_cap_[1],
                 sic2 = sens_inv_cap_[2];
    const double cap2 = cap_[2];
    const PcmProperties pcm = pcm_[2];
    const double hh = 0.5 * h;

    double t0 = temp_[0], t1 = temp_[1], t2 = temp_[2];
    double mf = melt_fraction_[2];
    for (int s = 0; s < substeps; ++s) {
        // Stage 1 and the enthalpy-aware predictor (sic2 is 0).
        const double p10 = b0 - gs0 * t0 + g02 * t2;
        const double p11 = b1 - gs1 * t1 + g12 * t2;
        const double p12 = b2 - gs2 * t2 + g20 * t0 + g21 * t1;
        const double tp0 = t0 + h * p10 * sic0;
        const double tp1 = t1 + h * p11 * sic1;
        double tp2 = t2 + h * p12 * sic2;
        double mf_pred = mf;
        applyPcmHeat(tp2, mf_pred, cap2, pcm, h * p12);

        // Stage 2 at the predicted state and the corrector.
        const double p20 = b0 - gs0 * tp0 + g02 * tp2;
        const double p21 = b1 - gs1 * tp1 + g12 * tp2;
        const double p22 = b2 - gs2 * tp2 + g20 * tp0 + g21 * tp1;
        t0 += hh * (p10 + p20) * sic0;
        t1 += hh * (p11 + p21) * sic1;
        t2 += hh * (p12 + p22) * sic2;
        applyPcmHeat(t2, mf, cap2, pcm, hh * (p12 + p22));
    }
    temp_[0] = t0;
    temp_[1] = t1;
    temp_[2] = t2;
    melt_fraction_[2] = mf;
}

void
ThermalNetwork::step(Seconds dt)
{
    SPRINT_ASSERT(dt >= 0.0, "negative time step");
    if (dt == 0.0 || temp_.empty())
        return;
    ensureTopology();

    const bool heun = scheme == ThermalIntegrator::Heun;
    // ratio is 0 for an edge-free network (stable bound = infinity).
    const double ratio =
        dt * inv_hmax_ * (heun ? 1.0 : kHeunOverEuler);
    int substeps = 1;
    if (ratio > 1.0) {
        SPRINT_ASSERT(ratio <= std::numeric_limits<int>::max(),
                      "time step ", dt, " needs more than INT_MAX "
                      "stable substeps");
        substeps = static_cast<int>(std::ceil(ratio));
    }
    const Seconds h = dt / substeps;
    if (heun && package_shape_) {
        heunPackage(h, substeps);
    } else if (heun) {
        for (int i = 0; i < substeps; ++i)
            substepHeun(h);
    } else {
        for (int i = 0; i < substeps; ++i)
            substepEuler(h);
    }
}

bool
ThermalNetwork::quiescentSubstep(const double *t_in, const double *mf_in,
                                 double *t_out, double *mf_out,
                                 Seconds h) const
{
    const std::size_t n = temp_.size();
    const double t_amb = ambient_temp;

    // Partition the nodes: plateau nodes (PCM mid-transition) are
    // pinned at their melt temperature for the whole substep; the
    // rest evolve sensibly. When every sensible node's neighbors are
    // all pinned, each sensible node sees a constant boundary and its
    // trajectory is a closed-form exponential (exact); otherwise the
    // coupled sensible set is advanced by one backward-Euler step
    // (unconditionally stable, and — unlike a per-node frozen-
    // neighbor decay — faithful to the emergent slow modes of stiffly
    // coupled clusters, so the step-doubling error estimate above
    // this routine measures a real, convergent local error).
    bool coupled = false;
    for (std::size_t i = 0; i < n; ++i) {
        const bool plateau_i =
            has_pcm_[i] && mf_in[i] > 0.0 && mf_in[i] < 1.0;
        q_plateau_[i] = plateau_i ? 1 : 0;
        if (plateau_i) {
            t_out[i] = pcm_[i].melt_temp;
            mf_out[i] = mf_in[i];  // integrated after the solve
        }
    }
    for (std::size_t i = 0; i < n && !coupled; ++i) {
        if (q_plateau_[i])
            continue;
        const std::size_t end = row_ptr_[i + 1];
        for (std::size_t k = row_ptr_[i]; k < end; ++k) {
            if (!q_plateau_[nbr_[k]]) {
                coupled = true;
                break;
            }
        }
    }

    if (!coupled) {
        // Closed-form regime: every sensible node decays toward the
        // fixed point set by its pinned neighbors and the ambient.
        for (std::size_t i = 0; i < n; ++i) {
            if (q_plateau_[i])
                continue;
            double drive = injected_[i] + g_amb_[i] * t_amb;
            const std::size_t end = row_ptr_[i + 1];
            for (std::size_t k = row_ptr_[i]; k < end; ++k)
                drive += g_[k] * pcm_[nbr_[k]].melt_temp;
            const double gs = g_sum_[i];
            double t_new;
            if (gs > 0.0) {
                const double t_star = drive / gs;
                t_new = t_star + (t_in[i] - t_star) *
                                     std::exp(-h * gs / cap_[i]);
            } else {
                t_new = t_in[i] + h * drive / cap_[i];
            }
            t_out[i] = t_new;
            mf_out[i] = has_pcm_[i] ? mf_in[i] : 0.0;
        }
    } else {
        // Backward-Euler over the sensible set, plateau nodes as
        // Dirichlet boundaries:
        //   (C_i/h + g_sum_i) T_i' - sum_{j sensible} g_ij T_j' =
        //       C_i/h T_i + inj_i + g_amb_i T_amb +
        //       sum_{j plateau} g_ij melt_j
        std::size_t m = 0;
        for (std::size_t i = 0; i < n; ++i)
            q_dense_index_[i] =
                q_plateau_[i] ? static_cast<std::size_t>(-1) : m++;
        if (m > 0) {
            std::fill(q_mat_.begin(), q_mat_.begin() + m * m, 0.0);
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t r = q_dense_index_[i];
                if (r == static_cast<std::size_t>(-1))
                    continue;
                const double ch = cap_[i] / h;
                q_mat_[r * m + r] = ch + g_sum_[i];
                double rhs = ch * t_in[i] + injected_[i] +
                             g_amb_[i] * t_amb;
                const std::size_t end = row_ptr_[i + 1];
                for (std::size_t k = row_ptr_[i]; k < end; ++k) {
                    const std::size_t j = nbr_[k];
                    const std::size_t c = q_dense_index_[j];
                    if (c == static_cast<std::size_t>(-1))
                        rhs += g_[k] * pcm_[j].melt_temp;
                    else
                        q_mat_[r * m + c] -= g_[k];
                }
                q_rhs_[r] = rhs;
            }
            // Gaussian elimination with partial pivoting; the system
            // is a strictly diagonally dominant M-matrix, so it is
            // well conditioned at every h.
            for (std::size_t col = 0; col < m; ++col) {
                std::size_t piv = col;
                for (std::size_t r = col + 1; r < m; ++r) {
                    if (std::abs(q_mat_[r * m + col]) >
                        std::abs(q_mat_[piv * m + col]))
                        piv = r;
                }
                if (piv != col) {
                    for (std::size_t c = col; c < m; ++c)
                        std::swap(q_mat_[col * m + c],
                                  q_mat_[piv * m + c]);
                    std::swap(q_rhs_[col], q_rhs_[piv]);
                }
                const double d = q_mat_[col * m + col];
                for (std::size_t r = col + 1; r < m; ++r) {
                    const double f = q_mat_[r * m + col] / d;
                    if (f == 0.0)
                        continue;
                    for (std::size_t c = col + 1; c < m; ++c)
                        q_mat_[r * m + c] -= f * q_mat_[col * m + c];
                    q_rhs_[r] -= f * q_rhs_[col];
                }
            }
            for (std::size_t r = m; r-- > 0;) {
                double acc = q_rhs_[r];
                for (std::size_t c = r + 1; c < m; ++c)
                    acc -= q_mat_[r * m + c] * q_rhs_[c];
                q_rhs_[r] = acc / q_mat_[r * m + r];
            }
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t r = q_dense_index_[i];
                if (r == static_cast<std::size_t>(-1))
                    continue;
                t_out[i] = q_rhs_[r];
                mf_out[i] = has_pcm_[i] ? mf_in[i] : 0.0;
            }
        }
    }

    // Reject steps that reach a plateau boundary: a sensible PCM node
    // crossing its melt point, or a plateau node melting/freezing out.
    // The caller falls back toward plain Heun substeps there.
    for (std::size_t i = 0; i < n; ++i) {
        if (!has_pcm_[i])
            continue;
        const Celsius melt = pcm_[i].melt_temp;
        if (q_plateau_[i]) {
            // Endpoint (implicit) net inflow feeds the melt fraction.
            double p_net = injected_[i] + g_amb_[i] * (t_amb - melt);
            const std::size_t end = row_ptr_[i + 1];
            for (std::size_t k = row_ptr_[i]; k < end; ++k)
                p_net += g_[k] * (t_out[nbr_[k]] - melt);
            const double mf_new =
                mf_in[i] + h * p_net / pcm_[i].latent_heat;
            if (mf_new <= 0.0 || mf_new >= 1.0)
                return false;  // plateau exit within the step
            mf_out[i] = mf_new;
        } else if (mf_in[i] == 0.0 ? t_out[i] > melt
                                   : t_out[i] < melt) {
            return false;  // would enter the plateau
        }
    }
    return true;
}

void
ThermalNetwork::advanceQuiescent(Seconds dt, Celsius tol)
{
    SPRINT_ASSERT(dt >= 0.0, "negative time step");
    SPRINT_ASSERT(tol > 0.0, "quiescent tolerance must be positive");
    if (dt == 0.0 || temp_.empty())
        return;
    ensureTopology();

    // Quiescent-only scratch (including the O(n^2) dense solver
    // matrix) is sized here, not in ensureTopology, so networks that
    // only ever step() never allocate it.
    if (t_q1_.size() != temp_.size()) {
        const std::size_t n = temp_.size();
        t_q1_.assign(n, 0.0);
        mf_q1_.assign(n, 0.0);
        t_q2_.assign(n, 0.0);
        mf_q2_.assign(n, 0.0);
        t_q3_.assign(n, 0.0);
        mf_q3_.assign(n, 0.0);
        q_plateau_.assign(n, 0);
        q_dense_index_.assign(n, 0);
        q_mat_.assign(n * n, 0.0);
        q_rhs_.assign(n, 0.0);
    }

    // The configured integrator's plain substep is both the starting
    // step and the fallback unit near plateau boundaries, so corners
    // are integrated exactly as step() would integrate them; an
    // edge-free network has no stability bound and super-steps
    // immediately.
    const bool heun = scheme == ThermalIntegrator::Heun;
    const Seconds h_plain =
        inv_hmax_ > 0.0
            ? (heun ? 1.0 / inv_hmax_
                    : 1.0 / (inv_hmax_ * kHeunOverEuler))
            : std::numeric_limits<double>::infinity();

    const std::size_t n = temp_.size();
    Seconds remaining = dt;
    Seconds h = h_plain;
    while (remaining > 0.0) {
        const Seconds step = std::min(h, remaining);
        if (step <= h_plain * (1.0 + 1e-12)) {
            // At (or below) the plain substep: integrate with the
            // configured scheme, exactly as step() would — this is
            // the plateau-corner workhorse.
            if (heun && package_shape_)
                heunPackage(step, 1);
            else if (heun)
                substepHeun(step);
            else
                substepEuler(step);
            remaining -= step;
            h = 2.0 * step;
            continue;
        }

        // Trial: one full step vs two half steps (step doubling).
        const bool ok =
            quiescentSubstep(temp_.data(), melt_fraction_.data(),
                             t_q1_.data(), mf_q1_.data(), step) &&
            quiescentSubstep(temp_.data(), melt_fraction_.data(),
                             t_q2_.data(), mf_q2_.data(), 0.5 * step) &&
            quiescentSubstep(t_q2_.data(), mf_q2_.data(), t_q3_.data(),
                             mf_q3_.data(), 0.5 * step);
        if (!ok) {
            h = 0.5 * step;  // bottoms out at the Heun fallback
            continue;
        }

        // Local error estimate: temperature disagreement between the
        // two resolutions, with melt-fraction disagreement converted
        // to an equivalent sensible temperature via latent/C. The
        // budget is tol per accepted step: the quiescent regime decays
        // toward a fixed point, so local errors contract rather than
        // accumulate (the parity tests hold the end-to-end deviation
        // within a few multiples of tol).
        double err = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            err = std::max(err, std::abs(t_q1_[i] - t_q3_[i]));
            if (has_pcm_[i])
                err = std::max(err,
                               std::abs(mf_q1_[i] - mf_q3_[i]) *
                                   pcm_[i].latent_heat / cap_[i]);
        }
        if (err > tol) {
            h = std::max(0.5 * step, h_plain);
            continue;
        }

        // Accept: Richardson-extrapolate the two resolutions
        // (2*half - full cancels backward Euler's O(h) term) unless
        // the extrapolated state strays onto a plateau boundary, in
        // which case the plain two-half-step result is kept. Grow the
        // step by the usual proportional rule, capped at doubling so
        // one lucky step cannot overshoot.
        bool extrapolate = true;
        for (std::size_t i = 0; i < n && extrapolate; ++i) {
            const double te = 2.0 * t_q3_[i] - t_q1_[i];
            if (!has_pcm_[i])
                continue;
            const double mfe = 2.0 * mf_q3_[i] - mf_q1_[i];
            if (mf_q3_[i] > 0.0 && mf_q3_[i] < 1.0) {
                if (mfe <= 0.0 || mfe >= 1.0)
                    extrapolate = false;
            } else if (mf_q3_[i] == 0.0 ? te > pcm_[i].melt_temp
                                        : te < pcm_[i].melt_temp) {
                extrapolate = false;
            }
        }
        if (extrapolate) {
            for (std::size_t i = 0; i < n; ++i) {
                t_q3_[i] = 2.0 * t_q3_[i] - t_q1_[i];
                if (has_pcm_[i] && mf_q3_[i] > 0.0 && mf_q3_[i] < 1.0)
                    mf_q3_[i] = 2.0 * mf_q3_[i] - mf_q1_[i];
            }
        }
        std::swap(temp_, t_q3_);
        std::swap(melt_fraction_, mf_q3_);
        remaining -= step;
        const double grow =
            err > 0.0 ? std::min(2.0, 0.9 * std::sqrt(tol / err)) : 2.0;
        h = std::max(step * std::max(grow, 1.0), h_plain);
    }
}

ThermalNetworkState
ThermalNetwork::saveState() const
{
    ThermalNetworkState s;
    s.temps = temp_;
    s.melt_fractions = melt_fraction_;
    s.injected = injected_;
    return s;
}

void
ThermalNetwork::restoreState(const ThermalNetworkState &state)
{
    SPRINT_ASSERT(state.temps.size() == temp_.size() &&
                      state.melt_fractions.size() == temp_.size() &&
                      state.injected.size() == temp_.size(),
                  "thermal snapshot does not match network topology");
    temp_ = state.temps;
    melt_fraction_ = state.melt_fractions;
    injected_ = state.injected;
}

Joules
ThermalNetwork::storedEnergy() const
{
    Joules total = 0.0;
    for (std::size_t i = 0; i < temp_.size(); ++i) {
        total += cap_[i] * (temp_[i] - ambient_temp);
        if (has_pcm_[i])
            total += melt_fraction_[i] * pcm_[i].latent_heat;
    }
    return total;
}

void
ThermalNetwork::reset()
{
    for (std::size_t i = 0; i < temp_.size(); ++i) {
        temp_[i] = ambient_temp;
        melt_fraction_[i] =
            has_pcm_[i] && ambient_temp > pcm_[i].melt_temp ? 1.0 : 0.0;
        injected_[i] = 0.0;
    }
    // Drop integrator scratch and force the stability cache to be
    // re-validated, so a network reused across batched experiments can
    // never read stale state.
    std::fill(p1_.begin(), p1_.end(), 0.0);
    std::fill(p2_.begin(), p2_.end(), 0.0);
    std::fill(t_pred_.begin(), t_pred_.end(), 0.0);
    std::fill(mf_pred_.begin(), mf_pred_.end(), 0.0);
    topology_dirty_ = true;
}

} // namespace csprint
