#include "workloads/workload.hh"

#include "common/logging.hh"
#include "workloads/disparity.hh"
#include "workloads/feature.hh"
#include "workloads/kmeans.hh"
#include "workloads/segment.hh"
#include "workloads/sobel.hh"
#include "workloads/texture.hh"

namespace csprint {

const std::vector<KernelId> &
allKernels()
{
    static const std::vector<KernelId> kernels = {
        KernelId::Feature, KernelId::Disparity, KernelId::Sobel,
        KernelId::Texture, KernelId::Segment,   KernelId::Kmeans,
    };
    return kernels;
}

std::string
kernelName(KernelId id)
{
    switch (id) {
      case KernelId::Sobel:
        return "sobel";
      case KernelId::Feature:
        return "feature";
      case KernelId::Kmeans:
        return "kmeans";
      case KernelId::Disparity:
        return "disparity";
      case KernelId::Texture:
        return "texture";
      case KernelId::Segment:
        return "segment";
    }
    SPRINT_PANIC("unknown kernel");
}

std::vector<KernelInfo>
kernelTable()
{
    return {
        {KernelId::Sobel, "sobel",
         "Edge detection filter",
         "OpenMP-style static rows"},
        {KernelId::Feature, "feature",
         "Feature extraction (SURF)",
         "static pixel phases + dynamic descriptor tasks"},
        {KernelId::Kmeans, "kmeans",
         "Partition based clustering",
         "OpenMP-style static blocks + locked reduction"},
        {KernelId::Disparity, "disparity",
         "Stereo image disparity detection (SD-VBS)",
         "static rows per candidate disparity"},
        {KernelId::Texture, "texture",
         "Image composition (SD-VBS)",
         "static rows + serial tone pass per layer"},
        {KernelId::Segment, "segment",
         "Image feature classification (SD-VBS)",
         "dynamic tiles with data-dependent weights"},
    };
}

std::string
inputSizeName(InputSize size)
{
    switch (size) {
      case InputSize::A:
        return "A";
      case InputSize::B:
        return "B";
      case InputSize::C:
        return "C";
      case InputSize::D:
        return "D";
    }
    SPRINT_PANIC("unknown input size");
}

double
inputSizeScale(InputSize size)
{
    switch (size) {
      case InputSize::A:
        return 0.5;
      case InputSize::B:
        return 1.0;
      case InputSize::C:
        return 1.4;
      case InputSize::D:
        return 1.6;
    }
    SPRINT_PANIC("unknown input size");
}

ParallelProgram
buildKernelProgram(KernelId kernel, InputSize size, std::uint64_t seed)
{
    switch (kernel) {
      case KernelId::Sobel:
        return sobelProgram(SobelConfig::forSize(size, seed));
      case KernelId::Feature:
        return featureProgram(FeatureConfig::forSize(size, seed));
      case KernelId::Kmeans:
        return kmeansProgram(KmeansConfig::forSize(size, seed));
      case KernelId::Disparity:
        return disparityProgram(DisparityConfig::forSize(size, seed));
      case KernelId::Texture:
        return textureProgram(TextureConfig::forSize(size, seed));
      case KernelId::Segment:
        return segmentProgram(SegmentConfig::forSize(size, seed));
    }
    SPRINT_PANIC("unknown kernel");
}

ParallelProgram
buildMicroProgram(std::uint64_t seed, int num_ops)
{
    ParallelProgram prog("micro");
    Phase phase;
    phase.name = "work";
    phase.kind = PhaseKind::ParallelStatic;
    phase.num_tasks = 2;
    phase.make_task = [seed, num_ops](std::size_t t) {
        // Filled, then every fourth op overwritten. A micro train
        // rebuilds these ops for every task, and a push_back loop over
        // a run-time length made its exact engine ~40% slower (4-vCPU
        // host, Release build).
        std::vector<MicroOp> ops(static_cast<std::size_t>(num_ops),
                                 MicroOp::intAlu());
        const std::uint64_t base =
            0x10000000ULL + (seed % 64) * 4096 + t * 8192;
        for (std::size_t i = 0; i < ops.size(); i += 4)
            ops[i] = MicroOp::load(base + (i % 32) * 64);
        return std::make_unique<VectorOpStream>(std::move(ops));
    };
    prog.addPhase(std::move(phase));
    return prog;
}

std::uint64_t
countProgramOps(const ParallelProgram &program)
{
    std::uint64_t total = 0;
    forEachOp(program, [&](const Phase &, std::size_t, const MicroOp &) {
        ++total;
    });
    return total;
}

namespace {

/** Fold @p value into the FNV-1a state @p h. */
void
fnv1a(std::uint64_t &h, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (value >> (8 * byte)) & 0xFF;
        h *= 1099511628211ULL;
    }
}

/** Fold a string into the FNV-1a state @p h, length included. */
void
fnv1a(std::uint64_t &h, const std::string &s)
{
    fnv1a(h, static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
}

} // namespace

std::uint64_t
programDigest(const ParallelProgram &program)
{
    std::uint64_t h = 14695981039346656037ULL;
    fnv1a(h, program.name());
    fnv1a(h, static_cast<std::uint64_t>(program.phases().size()));
    for (const auto &phase : program.phases()) {
        fnv1a(h, phase.name);
        fnv1a(h, static_cast<std::uint64_t>(phase.kind));
        fnv1a(h, static_cast<std::uint64_t>(phase.num_tasks));
    }
    forEachOp(program, [&](const Phase &, std::size_t, const MicroOp &op) {
        fnv1a(h, op.bits);
    });
    return h;
}

} // namespace csprint
