/**
 * @file
 * Unit tests for the calibrated surrogate fidelity tier: class-key
 * encoding, the admissibility gate (calibration count + demotion),
 * seed-determinism of the audit cursor, one-strike demotion grading,
 * prediction clamping, and the streaming-quantile state that rides in
 * ServiceEstimator checkpoints.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/stats.hh"
#include "sprint/policy.hh"
#include "sprint/surrogate.hh"
#include "workloads/workload.hh"

namespace csprint {
namespace {

SurrogateObservation
obs(double service, double energy)
{
    SurrogateObservation ob;
    ob.service = service;
    ob.energy = energy;
    ob.sprint_time = service * 0.5;
    ob.sprint_energy = energy * 0.5;
    return ob;
}

TEST(SurrogateClassKey, DisjointAcrossClasses)
{
    std::set<std::uint32_t> keys;
    for (KernelId kernel : allKernels()) {
        for (InputSize size :
             {InputSize::A, InputSize::B, InputSize::C, InputSize::D}) {
            for (bool sprinted : {false, true})
                keys.insert(
                    TaskSurrogate::classKey(kernel, size, sprinted));
        }
    }
    EXPECT_EQ(keys.size(), allKernels().size() * 4 * 2);
}

TEST(SurrogateRoute, GatesOnCalibrationThenPredicts)
{
    TaskSurrogate sur;
    sur.seed(7);
    SurrogateParams params;
    params.tier = FidelityTier::Surrogate;
    params.min_calibration = 3;
    const std::uint32_t key =
        TaskSurrogate::classKey(KernelId::Sobel, InputSize::A, false);

    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(sur.route(key, params), TaskSurrogate::Route::Exact);
        sur.observeExact(key, obs(1e-3, 2e-3));
    }
    // Calibrated: the pure Surrogate tier predicts and never audits.
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(sur.route(key, params),
                  TaskSurrogate::Route::Surrogate);
    EXPECT_EQ(sur.surrogateTasks(), 16u);
    EXPECT_EQ(sur.auditTasks(), 0u);

    // An unseen class stays exact.
    const std::uint32_t other =
        TaskSurrogate::classKey(KernelId::Kmeans, InputSize::B, true);
    EXPECT_EQ(sur.route(other, params), TaskSurrogate::Route::Exact);
}

TEST(SurrogateRoute, AuditStreamIsSeedDeterministic)
{
    SurrogateParams params;
    params.tier = FidelityTier::Auto;
    params.min_calibration = 1;
    params.audit_period = 4.0;
    const std::uint32_t key =
        TaskSurrogate::classKey(KernelId::Disparity, InputSize::A,
                                false);

    auto routes = [&](std::uint64_t seed) {
        TaskSurrogate sur;
        sur.seed(seed);
        sur.observeExact(key, obs(1e-3, 2e-3));
        std::vector<TaskSurrogate::Route> out;
        for (int i = 0; i < 256; ++i)
            out.push_back(sur.route(key, params));
        return out;
    };
    const auto a = routes(12345);
    EXPECT_EQ(a, routes(12345));

    // With audit_period = 4, 256 calibrated dispatches see both kinds.
    EXPECT_TRUE(std::count(a.begin(), a.end(),
                           TaskSurrogate::Route::Audit) > 0);
    EXPECT_TRUE(std::count(a.begin(), a.end(),
                           TaskSurrogate::Route::Surrogate) > 0);
}

TEST(SurrogateAudit, OneStrikeDemotionIsSticky)
{
    TaskSurrogate sur;
    sur.seed(7);
    SurrogateParams params;
    params.tier = FidelityTier::Auto;
    params.min_calibration = 1;
    params.tolerance = 0.25;
    const std::uint32_t key =
        TaskSurrogate::classKey(KernelId::Sobel, InputSize::A, true);
    sur.observeExact(key, obs(1e-3, 2e-3));

    // Within tolerance: no demotion.
    sur.finishAudit(key, sur.predict(key), obs(1.1e-3, 2.1e-3), params);
    EXPECT_EQ(sur.demotions(), 0);

    // 2x service error: demoted, and a later good audit cannot
    // un-demote (nor a second bad one double-count).
    sur.finishAudit(key, sur.predict(key), obs(2e-3, 2e-3), params);
    EXPECT_EQ(sur.demotions(), 1);
    EXPECT_TRUE(sur.classes().at(key).demoted);
    EXPECT_GE(sur.classes().at(key).worst_audit_error, 0.5);
    sur.finishAudit(key, sur.predict(key), obs(1e-3, 2e-3), params);
    sur.finishAudit(key, sur.predict(key), obs(9e-3, 2e-3), params);
    EXPECT_EQ(sur.demotions(), 1);
    EXPECT_EQ(sur.route(key, params), TaskSurrogate::Route::Exact);
}

TEST(SurrogatePredict, TracksObservationsAndClamps)
{
    SurrogateClassModel m;
    for (int i = 0; i < 8; ++i) {
        SurrogateObservation ob = obs(1e-3, 2e-3);
        ob.sprint_exhausted = true;
        m.observe(ob);
    }
    const SurrogatePrediction p = m.predict();
    EXPECT_NEAR(p.service, 1e-3, 1e-9);
    EXPECT_NEAR(p.energy, 2e-3, 1e-9);
    EXPECT_LE(p.sprint_time, p.service);
    EXPECT_LE(p.sprint_energy, p.energy);
    EXPECT_TRUE(p.sprint_exhausted);
    EXPECT_FALSE(p.hardware_throttled);

    // EWMA follows a drift the long-run mean lags.
    for (int i = 0; i < 16; ++i)
        m.observe(obs(4e-3, 8e-3));
    EXPECT_GT(m.predict().service, 3.5e-3);
    EXPECT_NEAR(m.predict().energy, m.predict().service * 2.0, 1e-6);
}

TEST(ServiceEstimatorState, FallbackChain)
{
    ServiceEstimator est(/*prior=*/5e-3);
    TaskSnapshot task;
    task.priority = 0;

    // Nothing observed: the prior surfaces.
    EXPECT_EQ(est.estimateIf(task, true), 5e-3);
    EXPECT_EQ(est.estimateIf(task, false), 5e-3);

    // Populate the non-sprinted cell with a skewed sample set.
    TaskSnapshot done = task;
    done.started = true;
    done.sprint_granted = false;
    double sum = 0.0;
    for (int i = 0; i < 100; ++i) {
        const double service = i % 10 == 9 ? 50e-3 : 1e-3;
        est.add(done, service);
        sum += service;
    }
    EXPECT_EQ(est.estimateIf(task, false), sum / 100.0);
    // The sprint column is empty: fallback reaches the same-class
    // other-sprint cell, not the prior.
    EXPECT_EQ(est.estimateIf(task, true), est.estimateIf(task, false));
    // The other class is unobserved: the prior outranks cross-class
    // data until that class itself has been seen.
    TaskSnapshot hi;
    hi.priority = 1;
    EXPECT_EQ(est.estimateIf(hi, true), 5e-3);

    // Without a prior, the chain reaches the other class's cells.
    ServiceEstimator bare;
    EXPECT_EQ(bare.estimateIf(hi, true), 0.0);
    bare.add(done, 2e-3);
    EXPECT_EQ(bare.estimateIf(hi, true), 2e-3);
    EXPECT_EQ(bare.estimateIf(hi, false), 2e-3);

    // Remaining work never goes negative.
    TaskSnapshot running = done;
    running.service = 1.5e-3;
    EXPECT_EQ(bare.remaining(running), 2e-3 - 1.5e-3);
    running.service = 3e-3;
    EXPECT_EQ(bare.remaining(running), 0.0);
}

TEST(ServiceEstimatorState, SaveRestoreContinuesBitExactly)
{
    ServiceEstimator a(2e-3);
    TaskSnapshot task;
    task.started = true;
    for (int i = 0; i < 40; ++i) {
        task.priority = i % 2;
        task.sprint_granted = i % 3 == 0;
        a.add(task, 1e-4 * (1 + i % 7));
    }

    const std::vector<double> state = a.save();
    ASSERT_EQ(state.size(), ServiceEstimator::kStateSize);
    ServiceEstimator b(2e-3);
    b.restore(state.data());
    EXPECT_EQ(b.save(), state);

    const auto expectSame = [&] {
        for (int pri : {0, 1}) {
            for (bool spr : {false, true}) {
                TaskSnapshot probe;
                probe.priority = pri;
                EXPECT_EQ(a.estimateIf(probe, spr),
                          b.estimateIf(probe, spr));
            }
        }
    };
    expectSame();
    task.priority = 1;
    task.sprint_granted = true;
    a.add(task, 3e-4);
    b.add(task, 3e-4);
    expectSame();
}

} // namespace
} // namespace csprint
