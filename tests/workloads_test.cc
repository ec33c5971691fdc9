/**
 * @file
 * Tests for the kernel suite: functional correctness of the reference
 * implementations and structural properties of the simulated op-stream
 * programs (op counts, mixes, determinism, scaling with input size).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "workloads/disparity.hh"
#include "workloads/feature.hh"
#include "workloads/image.hh"
#include "workloads/kmeans.hh"
#include "workloads/segment.hh"
#include "workloads/sobel.hh"
#include "workloads/texture.hh"
#include "workloads/workload.hh"

namespace csprint {
namespace {

// --- Image substrate ---

TEST(ImageGen, DeterministicAndBounded)
{
    const Image a = makeSyntheticImage(64, 48, 7);
    const Image b = makeSyntheticImage(64, 48, 7);
    const Image c = makeSyntheticImage(64, 48, 8);
    EXPECT_EQ(a.data(), b.data());
    EXPECT_NE(a.data(), c.data());
    for (float v : a.data()) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(ImageGen, ClampedAccessor)
{
    const Image img = makeSyntheticImage(8, 8, 1);
    EXPECT_EQ(img.atClamped(-5, 3), img.at(0, 3));
    EXPECT_EQ(img.atClamped(3, 100), img.at(3, 7));
}

TEST(ImageGen, IntegralImageMatchesBruteForce)
{
    const Image img = makeSyntheticImage(20, 15, 3);
    const Image integral = integralImage(img);
    double brute = 0.0;
    for (std::size_t y = 0; y <= 9; ++y)
        for (std::size_t x = 0; x <= 12; ++x)
            brute += img.at(x, y);
    EXPECT_NEAR(boxSum(integral, 0, 0, 12, 9), brute, 1e-3);
    // Interior box.
    brute = 0.0;
    for (std::size_t y = 4; y <= 8; ++y)
        for (std::size_t x = 5; x <= 11; ++x)
            brute += img.at(x, y);
    EXPECT_NEAR(boxSum(integral, 5, 4, 11, 8), brute, 1e-3);
}

TEST(ImageGen, ShiftedImageEncodesDisparity)
{
    const Image left = makeSyntheticImage(64, 32, 5);
    std::vector<int> truth;
    const Image right = makeShiftedImage(left, 8, 6, &truth);
    ASSERT_EQ(truth.size(), 64u * 32u);
    // Away from borders, right(x) == left(x + d).
    for (std::size_t y = 2; y < 30; y += 7) {
        for (std::size_t x = 2; x + 10 < 64; x += 11) {
            const int d = truth[y * 64 + x];
            EXPECT_FLOAT_EQ(right.at(x, y), left.at(x + d, y));
        }
    }
}

// --- Reference kernels ---

TEST(SobelRef, FlatImageHasZeroGradient)
{
    Image flat(16, 16);
    for (auto &v : flat.data())
        v = 0.5f;
    const Image out = sobelReference(flat);
    for (float v : out.data())
        EXPECT_NEAR(v, 0.0f, 1e-6);
}

TEST(SobelRef, VerticalEdgeDetected)
{
    Image img(16, 16);
    for (std::size_t y = 0; y < 16; ++y)
        for (std::size_t x = 0; x < 16; ++x)
            img.set(x, y, x < 8 ? 0.0f : 1.0f);
    const Image out = sobelReference(img);
    // Strong response at the edge columns, zero far away.
    EXPECT_GT(out.at(7, 8), 1.0f);
    EXPECT_GT(out.at(8, 8), 1.0f);
    EXPECT_NEAR(out.at(2, 8), 0.0f, 1e-6);
    EXPECT_NEAR(out.at(13, 8), 0.0f, 1e-6);
}

TEST(KmeansRef, RecoversPlantedClusters)
{
    KmeansConfig cfg;
    cfg.num_points = 2000;
    cfg.seed = 11;
    const KmeansResult r = kmeansReference(cfg);
    EXPECT_GE(r.iterations, 2u);
    EXPECT_LE(r.iterations, cfg.max_iters);
    // Every point lands within a sane distance of its centroid.
    for (int a : r.assignment) {
        EXPECT_GE(a, 0);
        EXPECT_LT(a, static_cast<int>(cfg.clusters));
    }
}

TEST(KmeansRef, DeterministicForSeed)
{
    KmeansConfig cfg;
    cfg.num_points = 1500;
    const KmeansResult a = kmeansReference(cfg);
    const KmeansResult b = kmeansReference(cfg);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.assignment, b.assignment);
}

TEST(DisparityRef, RecoversPlantedShift)
{
    DisparityConfig cfg;
    cfg.width = 96;
    cfg.height = 64;
    cfg.seed = 9;
    const DisparityResult r = disparityReference(cfg);
    // Block matching on clean synthetic shifts should be mostly right.
    EXPECT_GT(r.accuracy, 0.6);
}

TEST(TextureRef, OutputBoundedAndDeterministic)
{
    TextureConfig cfg;
    cfg.width = 64;
    cfg.height = 64;
    const Image a = textureReference(cfg);
    const Image b = textureReference(cfg);
    EXPECT_EQ(a.data(), b.data());
    for (float v : a.data()) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(SegmentRef, LabelsValidAndTilesWeighted)
{
    SegmentConfig cfg;
    cfg.width = 96;
    cfg.height = 96;
    const SegmentResult r = segmentReference(cfg);
    for (int l : r.labels) {
        EXPECT_GE(l, 0);
        EXPECT_LT(l, static_cast<int>(cfg.classes));
    }
    // Detail-driven refinement must produce non-uniform tile weights.
    int lo = 100, hi = 0;
    for (int it : r.tile_iters) {
        lo = std::min(lo, it);
        hi = std::max(hi, it);
        EXPECT_GE(it, 1);
        EXPECT_LE(it, cfg.max_refine);
    }
    EXPECT_GT(hi, lo);
}

TEST(FeatureRef, FindsKeypointsWithDescriptors)
{
    FeatureConfig cfg;
    cfg.width = 128;
    cfg.height = 128;
    const FeatureResult r = featureReference(cfg);
    EXPECT_GT(r.keypoints.size(), 10u);
    for (const auto &kp : r.keypoints) {
        EXPECT_LT(kp.x, cfg.width);
        EXPECT_LT(kp.y, cfg.height);
        EXPECT_EQ(kp.descriptor.size(), 16u);
        EXPECT_GT(kp.response, cfg.threshold);
    }
}

TEST(FeatureRef, ThresholdMonotone)
{
    FeatureConfig loose;
    loose.width = 96;
    loose.height = 96;
    loose.threshold = 0.01;
    FeatureConfig tight = loose;
    tight.threshold = 0.05;
    EXPECT_GE(featureReference(loose).keypoints.size(),
              featureReference(tight).keypoints.size());
}

// --- Simulated programs ---

TEST(Programs, AllKernelsBuildAndHaveWork)
{
    for (KernelId id : allKernels()) {
        const ParallelProgram prog =
            buildKernelProgram(id, InputSize::A, 42);
        EXPECT_EQ(prog.name(), kernelName(id));
        EXPECT_FALSE(prog.phases().empty()) << kernelName(id);
        const std::uint64_t ops = countProgramOps(prog);
        EXPECT_GT(ops, 50000u) << kernelName(id);
        EXPECT_LT(ops, 80000000u) << kernelName(id);
    }
}

TEST(Programs, OpCountGrowsWithInputSize)
{
    for (KernelId id : allKernels()) {
        const std::uint64_t small = countProgramOps(
            buildKernelProgram(id, InputSize::A, 42));
        const std::uint64_t large = countProgramOps(
            buildKernelProgram(id, InputSize::C, 42));
        EXPECT_GT(large, 2 * small) << kernelName(id);
    }
}

TEST(Programs, TaskStreamsAreDeterministic)
{
    for (KernelId id : allKernels()) {
        const ParallelProgram p1 =
            buildKernelProgram(id, InputSize::A, 7);
        const ParallelProgram p2 =
            buildKernelProgram(id, InputSize::A, 7);
        EXPECT_EQ(countProgramOps(p1), countProgramOps(p2))
            << kernelName(id);
    }
}

TEST(Programs, SobelOpMixMatchesStencil)
{
    const SobelConfig cfg;
    const ParallelProgram prog = sobelProgram(cfg);
    std::map<OpKind, std::uint64_t> mix;
    forEachOp(prog, [&](const Phase &, std::size_t, const MicroOp &op) {
        ++mix[op.kind()];
    });
    const std::uint64_t pixels = cfg.width * cfg.height;
    EXPECT_EQ(mix[OpKind::Load], pixels * 8);   // 8 neighbours
    EXPECT_EQ(mix[OpKind::Store], pixels);      // 1 output
    EXPECT_EQ(mix[OpKind::Branch], pixels);     // loop branch
    EXPECT_EQ(mix[OpKind::IntAlu], pixels * 8);
    EXPECT_EQ(mix[OpKind::FpAlu], pixels * 3);
}

TEST(Programs, KmeansHasLockProtectedReduction)
{
    KmeansConfig cfg;
    cfg.num_points = 1024;
    const ParallelProgram prog = kmeansProgram(cfg);
    std::uint64_t acquires = 0, releases = 0;
    forEachOp(prog, [&](const Phase &, std::size_t, const MicroOp &op) {
        acquires += op.kind() == OpKind::LockAcquire;
        releases += op.kind() == OpKind::LockRelease;
    });
    bool has_serial = false;
    for (const auto &phase : prog.phases())
        has_serial |= phase.kind == PhaseKind::Serial;
    EXPECT_GT(acquires, 0u);
    EXPECT_EQ(acquires, releases);
    EXPECT_TRUE(has_serial);  // the re-centering phases
}

TEST(Programs, TextureHasSerialFractionUnderTenPercent)
{
    const TextureConfig cfg;
    const ParallelProgram prog = textureProgram(cfg);
    std::uint64_t serial_ops = 0, parallel_ops = 0;
    forEachOp(prog, [&](const Phase &phase, std::size_t, const MicroOp &) {
        ++(phase.kind == PhaseKind::Serial ? serial_ops : parallel_ops);
    });
    const double frac =
        static_cast<double>(serial_ops) / (serial_ops + parallel_ops);
    EXPECT_GT(frac, 0.005);  // a real Amdahl term...
    EXPECT_LT(frac, 0.10);   // ...but not a dominant one
}

TEST(Programs, SegmentTasksAreImbalanced)
{
    SegmentConfig cfg;
    const ParallelProgram prog = segmentProgram(cfg);
    ASSERT_EQ(prog.phases().size(), 1u);
    const Phase &phase = prog.phases()[0];
    EXPECT_EQ(phase.kind, PhaseKind::ParallelDynamic);
    std::vector<std::uint64_t> ops(phase.num_tasks, 0);
    forEachOp(prog, [&](const Phase &, std::size_t task, const MicroOp &) {
        ++ops[task];
    });
    const auto [min_ops, max_ops] = std::minmax_element(ops.begin(),
                                                        ops.end());
    EXPECT_GT(*max_ops, *min_ops * 3 / 2);  // data-dependent weights
}

TEST(Programs, FeatureDescriptorTasksMatchKeypoints)
{
    FeatureConfig cfg;
    cfg.width = 128;
    cfg.height = 128;
    const FeatureResult ref = featureReference(cfg);
    const ParallelProgram prog = featureProgram(cfg);
    const Phase &desc = prog.phases().back();
    EXPECT_EQ(desc.kind, PhaseKind::ParallelDynamic);
    EXPECT_EQ(desc.num_tasks, ref.keypoints.size());
}

TEST(Programs, Table1HasSixKernels)
{
    const auto table = kernelTable();
    EXPECT_EQ(table.size(), 6u);
    EXPECT_EQ(allKernels().size(), 6u);
}

} // namespace
} // namespace csprint
