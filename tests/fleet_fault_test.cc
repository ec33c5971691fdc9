/**
 * @file
 * Fault injection for the multi-process fleet driver (sprint/fleet.hh),
 * the one supervisor. Headline gates:
 *
 *  - a clean multi-process fleet run equals the in-process run
 *    bit-for-bit on every shared aggregate field and per-device
 *    checkpoint digest;
 *
 *  - for every FaultKind, a run whose worker crashes, corrupts its
 *    newest checkpoint, fails, is killed, stalls, or corrupts its
 *    pipe — and is then respawned from persisted checkpoints — equals
 *    the uninterrupted run bit-for-bit;
 *
 *  - a seed-randomized multi-shard plan stays bit-exact;
 *
 *  - a range that exhausts its respawns degrades instead of dropping:
 *    devices whose final checkpoints were already reaped still count,
 *    each once, even when a respawned worker re-sent them, and the
 *    other ranges are untouched;
 *
 *  - a worker that exits 0 without delivering its devices is a failure,
 *    not a finished range.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "fresh_dir.hh"
#include "sprint/checkpoint.hh"
#include "sprint/experiment.hh"
#include "sprint/fleet.hh"
#include "sprint/supervisor.hh"

namespace csprint {
namespace {

FleetSpec
faultFleet(std::uint64_t seed)
{
    FleetSpec spec;
    spec.seed = seed;
    spec.num_devices = 4;

    FleetDeviceClass a;
    a.weight = 1.0;
    a.cores = 4;
    a.pcm_mass_lo = kSmallPcm;
    a.pcm_mass_hi = 2.0 * kSmallPcm;
    a.ambient_lo = 24.0;
    a.ambient_hi = 28.0;
    a.num_tasks = 4;
    a.period = 2.5e-3;
    spec.classes.push_back(a);

    // Class b rests after its last task, so finishing a device from
    // its final checkpoint integrates the tail cooldown in the range
    // reducer both transports share.
    FleetDeviceClass b = a;
    b.cores = 8;
    b.policy = SprintPolicyKind::DutyCycle;
    b.pacing_period = 2.5e-3;
    b.tail_rest = 2e-3;
    spec.classes.push_back(b);

    return spec;
}

FleetOptions
fleetOptions(const char *tag)
{
    FleetOptions opts;
    opts.num_workers = 2;
    opts.checkpoint_every_tasks = 2;
    opts.max_retries = 3;
    opts.store_dir = freshDir(tag);
    return opts;
}

std::string
workerErrors(const FleetResult &res)
{
    std::string out;
    for (const FleetWorkerStats &w : res.workers) {
        if (w.degraded)
            out += "[" + std::to_string(w.range_begin) + "," +
                   std::to_string(w.range_end) + ") degraded: " +
                   w.last_error + "; ";
    }
    return out;
}

TEST(FleetFault, MultiProcessMatchesInProcessBitExact)
{
    const FleetSpec spec = faultFleet(51);
    bool tail_rest = false;
    for (int d = 0; d < spec.num_devices; ++d)
        tail_rest = tail_rest || fleetDeviceConfig(spec, d).tail_rest > 0.0;
    EXPECT_TRUE(tail_rest) << "no device runs the tail-rest finish path";
    const FleetResult ip =
        runFleetInProcess(spec, fleetOptions("ffip"));
    const FleetResult mp =
        runFleetMultiProcess(spec, fleetOptions("ffmp"));
    ASSERT_TRUE(ip.allOk()) << workerErrors(ip);
    ASSERT_TRUE(mp.allOk()) << workerErrors(mp);
    EXPECT_EQ(firstDifference(ip, mp), "");
    for (const FleetWorkerStats &w : mp.workers)
        EXPECT_EQ(w.respawns, 0) << w.last_error;
}

/**
 * Recovered-equals-uninterrupted for one fault kind, fired on device
 * 1 at checkpoint @p at_seq, with every persisted checkpoint audited
 * (paranoia).
 */
void
processRecoveryParity(FaultKind kind, std::uint64_t at_seq = 1)
{
    const FleetSpec spec = faultFleet(77);

    const FleetResult clean =
        runFleetMultiProcess(spec, fleetOptions("clean"));
    ASSERT_TRUE(clean.allOk());

    FleetOptions opts = fleetOptions(faultKindName(kind));
    opts.paranoia = true;
    if (kind == FaultKind::StallWorker)
        opts.watchdog_deadline = 0.3; // seconds; slices run in ms

    FaultPlan plan;
    plan.faults.push_back({1, kind, at_seq});
    const FleetResult faulted = runFleetMultiProcess(spec, opts, plan);
    ASSERT_TRUE(faulted.allOk())
        << "range degraded under " << faultKindName(kind) << ": "
        << faulted.workers[0].last_error;

    int respawns = 0;
    for (const FleetWorkerStats &w : faulted.workers)
        respawns += w.respawns;
    EXPECT_GE(respawns, 1) << "the fault never fired";

    EXPECT_EQ(firstDifference(clean, faulted), "");

    // And against the in-process run, closing the triangle.
    const FleetResult ip =
        runFleetInProcess(spec, fleetOptions("tri"));
    EXPECT_EQ(firstDifference(ip, faulted), "");
}

// These fire at checkpoint 2, so a bit-flipped or truncated newest
// checkpoint leaves a predecessor for recovery to fall back to.
TEST(FleetFault, CrashAtCheckpointRecoversBitExact)
{
    processRecoveryParity(FaultKind::CrashAtCheckpoint, 2);
}

TEST(FleetFault, BitFlipRecoversBitExact)
{
    processRecoveryParity(FaultKind::BitFlip, 2);
}

TEST(FleetFault, TruncateRecoversBitExact)
{
    processRecoveryParity(FaultKind::Truncate, 2);
}

TEST(FleetFault, WorkerExceptionRecoversBitExact)
{
    processRecoveryParity(FaultKind::WorkerException, 2);
}

TEST(FleetFault, KillWorkerRecoversBitExact)
{
    processRecoveryParity(FaultKind::KillWorker);
}

TEST(FleetFault, StallWorkerIsKilledAndRecoversBitExact)
{
    processRecoveryParity(FaultKind::StallWorker);
}

TEST(FleetFault, CorruptPipeIsRejectedAndRecoversBitExact)
{
    processRecoveryParity(FaultKind::CorruptPipe);
}

TEST(FleetFault, RandomizedMultiShardProcessPlanStaysBitExact)
{
    const FleetSpec spec = faultFleet(91);

    const FleetResult clean =
        runFleetMultiProcess(spec, fleetOptions("rclean"));
    ASSERT_TRUE(clean.allOk());

    FleetOptions opts = fleetOptions("rfault");
    opts.max_retries = 6; // every device draws one fault
    opts.watchdog_deadline = 0.5;
    const FaultPlan plan =
        FaultPlan::randomized(0xF1EE7u, spec.num_devices, 2);
    ASSERT_EQ(plan.faults.size(),
              static_cast<std::size_t>(spec.num_devices));

    const FleetResult faulted = runFleetMultiProcess(spec, opts, plan);
    ASSERT_TRUE(faulted.allOk());
    EXPECT_EQ(firstDifference(clean, faulted), "");
}

TEST(FleetFault, ExhaustedRespawnsDegradeNotDrop)
{
    const FleetSpec spec = faultFleet(33);

    FleetOptions opts = fleetOptions("degraded");
    opts.num_workers = 1;
    opts.max_retries = 0; // one attempt: the injected fault is fatal

    // Device 2 dies at its first checkpoint; devices 0 and 1 finished
    // earlier, so their final checkpoints were already reaped.
    FaultPlan plan;
    plan.faults.push_back({2, FaultKind::KillWorker, 1});

    const FleetResult res = runFleetMultiProcess(spec, opts, plan);
    EXPECT_FALSE(res.allOk());
    ASSERT_EQ(res.workers.size(), 1u);
    EXPECT_TRUE(res.workers[0].degraded);
    EXPECT_EQ(res.aggregates.devices,
              static_cast<std::uint64_t>(spec.num_devices));
    EXPECT_EQ(res.aggregates.degraded_devices, 2u); // devices 2, 3
    EXPECT_GT(res.aggregates.tasks_completed, 0u);  // devices 0, 1
    EXPECT_TRUE(res.devices[0].completed);
    EXPECT_TRUE(res.devices[1].completed);
    EXPECT_FALSE(res.devices[2].completed);
    EXPECT_FALSE(res.devices[3].completed);

    // Completed devices read back from the store; the degraded device
    // has no final checkpoint there, and says so with a typed error.
    for (int d : {0, 1})
        EXPECT_GT(loadFleetDeviceResult(spec, opts.store_dir, d)
                      .tasks_completed,
                  0u);
    try {
        loadFleetDeviceResult(spec, opts.store_dir, 2);
        FAIL() << "degraded device read back as a final result";
    } catch (const CheckpointError &e) {
        EXPECT_EQ(e.kind(), CheckpointError::Kind::Io);
    }

    // A later clean run over the same store resumes the persisted
    // devices instead of starting over, and completes the fleet.
    const FleetResult rerun = runFleetMultiProcess(spec, opts);
    ASSERT_TRUE(rerun.allOk());
    EXPECT_EQ(rerun.aggregates.degraded_devices, 0u);
    EXPECT_EQ(rerun.devices[0].checkpoint_digest,
              res.devices[0].checkpoint_digest);
}

TEST(FleetFault, DegradedRangeLeavesTheOtherRangeExact)
{
    const FleetSpec spec = faultFleet(33);
    const FleetResult clean =
        runFleetInProcess(spec, fleetOptions("okclean"));
    ASSERT_TRUE(clean.allOk()) << workerErrors(clean);

    FleetOptions opts = fleetOptions("okdegraded");
    opts.max_retries = 0; // one attempt: the injected fault is fatal

    FaultPlan plan;
    plan.faults.push_back({0, FaultKind::WorkerException, 1});

    const FleetResult res = runFleetMultiProcess(spec, opts, plan);
    EXPECT_FALSE(res.allOk());
    ASSERT_EQ(res.workers.size(), 2u);

    // The failed range keeps the worker's own error message.
    EXPECT_TRUE(res.workers[0].degraded);
    EXPECT_NE(res.workers[0].last_error.find("injected"),
              std::string::npos)
        << res.workers[0].last_error;

    // The healthy range is unaffected by its neighbour's failure.
    EXPECT_FALSE(res.workers[1].degraded) << res.workers[1].last_error;
    EXPECT_EQ(res.workers[1].respawns, 0);
    for (int d = res.workers[1].range_begin; d < res.workers[1].range_end;
         ++d) {
        const auto i = static_cast<std::size_t>(d);
        EXPECT_TRUE(res.devices[i].completed) << "device " << d;
        EXPECT_EQ(res.devices[i].checkpoint_digest,
                  clean.devices[i].checkpoint_digest)
            << "device " << d;
    }
}

TEST(FleetFault, RespawnedThenDegradedRangeFoldsEachDeviceOnce)
{
    const FleetSpec spec = faultFleet(33);

    FleetOptions opts = fleetOptions("refold");
    opts.num_workers = 1;
    opts.max_retries = 1;

    // Device 1's kill costs the one respawn, which re-sends device 0's
    // final checkpoint; device 2's kill then degrades the range.
    FaultPlan plan;
    plan.faults.push_back({1, FaultKind::KillWorker, 1});
    plan.faults.push_back({2, FaultKind::KillWorker, 1});

    const FleetResult res = runFleetMultiProcess(spec, opts, plan);
    ASSERT_EQ(res.workers.size(), 1u);
    EXPECT_TRUE(res.workers[0].degraded);
    EXPECT_EQ(res.workers[0].respawns, 1);
    ASSERT_TRUE(res.devices[0].completed);
    ASSERT_TRUE(res.devices[1].completed);
    EXPECT_FALSE(res.devices[2].completed);
    EXPECT_FALSE(res.devices[3].completed);

    FleetAggregates expect;
    for (int d : {0, 1})
        expect.foldDevice(loadFleetDeviceResult(spec, opts.store_dir, d),
                          fleetDeviceThermalLimit(
                              spec, fleetDeviceConfig(spec, d)));
    expect.foldDegradedDevice();
    expect.foldDegradedDevice();
    EXPECT_EQ(firstDifference(expect, res.aggregates), "");
}

TEST(FleetFault, ErrorFrameBelongsToItsOwnAttempt)
{
    // Attempt 0 sends an Error frame and exits 14; attempt 1 exits 13
    // after a bit flip without one. The second failure must not carry
    // the first attempt's message, and the last failure stays on
    // record after the final attempt succeeds.
    const FleetSpec spec = faultFleet(21);
    FleetOptions opts = fleetOptions("attempt");
    opts.num_workers = 1;

    FaultPlan plan;
    plan.faults.push_back({0, FaultKind::WorkerException, 1});
    plan.faults.push_back({1, FaultKind::BitFlip, 1});

    const FleetResult res = runFleetMultiProcess(spec, opts, plan);
    ASSERT_TRUE(res.allOk()) << workerErrors(res);
    ASSERT_EQ(res.workers.size(), 1u);
    EXPECT_EQ(res.workers[0].respawns, 2);
    EXPECT_EQ(res.workers[0].last_error, "worker exited with status 13");
}

TEST(FleetFault, CleanExitWithoutDevicesIsNotCompletion)
{
    // A worker that exits 0 without sending a frame delivered nothing:
    // the range is respawned like any failed worker and then degrades.
    const FleetSpec spec = faultFleet(14);
    FleetOptions opts = fleetOptions("cleanexit");
    opts.worker_path = "/bin/true";
    opts.max_retries = 2;

    const FleetResult res = runFleetMultiProcess(spec, opts);
    EXPECT_FALSE(res.allOk());
    ASSERT_EQ(res.workers.size(), 2u);
    for (const FleetWorkerStats &w : res.workers) {
        EXPECT_TRUE(w.degraded);
        EXPECT_EQ(w.respawns, opts.max_retries);
        EXPECT_NE(w.last_error, "");
    }
    EXPECT_EQ(res.aggregates.devices,
              static_cast<std::uint64_t>(spec.num_devices));
    EXPECT_EQ(res.aggregates.degraded_devices,
              static_cast<std::uint64_t>(spec.num_devices));
    EXPECT_EQ(res.aggregates.tasks_completed, 0u);
    for (const FleetDeviceOutcome &d : res.devices)
        EXPECT_FALSE(d.completed);
}

TEST(FleetFault, MissingWorkerBinaryFailsWithIoError)
{
    const FleetSpec spec = faultFleet(13);
    FleetOptions opts = fleetOptions("nobin");
    opts.worker_path = "/nonexistent/csprint-fleet-worker";
    try {
        runFleetMultiProcess(spec, opts);
        FAIL() << "missing worker binary went unnoticed";
    } catch (const CheckpointError &e) {
        EXPECT_EQ(e.kind(), CheckpointError::Kind::Io);
    }
}

} // namespace
} // namespace csprint
