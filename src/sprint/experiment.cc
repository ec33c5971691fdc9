#include "sprint/experiment.hh"

#include "common/logging.hh"

namespace csprint {

namespace {

/** Apply the bandwidth and LLC multipliers to a machine config. */
void
applyBandwidth(MachineConfig &machine, double mult)
{
    machine.memory.channel_bytes_per_sec *= mult;
}

/** Apply the spec's spot-configurable machine knobs. */
void
applyMachineKnobs(MachineConfig &machine, const ExperimentSpec &spec)
{
    machine.loop = spec.loop;
    applyBandwidth(machine, spec.bandwidth_mult);
}

void
applyL2Scale(MachineConfig &machine, double scale)
{
    if (scale == 1.0)
        return;
    // Keep associativity and line size; round capacity down to a
    // power-of-two set count.
    std::size_t bytes = static_cast<std::size_t>(
        static_cast<double>(machine.l2.size_bytes) * scale);
    std::size_t sets = bytes / (machine.l2.line_bytes *
                                static_cast<std::size_t>(
                                    machine.l2.assoc));
    std::size_t pow2 = 1;
    while (pow2 * 2 <= sets)
        pow2 *= 2;
    machine.l2.size_bytes = pow2 * machine.l2.line_bytes *
                            static_cast<std::size_t>(machine.l2.assoc);
}

} // namespace

RunResult
runBaselineExperiment(const ExperimentSpec &spec)
{
    const ParallelProgram program =
        buildKernelProgram(spec.kernel, spec.size, spec.seed);
    SprintConfig cfg = SprintConfig::baseline();
    applyMachineKnobs(cfg.machine, spec);
    applyL2Scale(cfg.machine, spec.l2_scale);
    return runSprint(program, cfg);
}

RunResult
runParallelSprintExperiment(const ExperimentSpec &spec)
{
    const ParallelProgram program =
        buildKernelProgram(spec.kernel, spec.size, spec.seed);
    SprintConfig cfg = SprintConfig::parallelSprint(
        spec.cores, spec.pcm_mass, spec.time_scale);
    applyMachineKnobs(cfg.machine, spec);
    applyL2Scale(cfg.machine, spec.l2_scale);
    return runSprint(program, cfg);
}

RunResult
runDvfsSprintExperiment(const ExperimentSpec &spec)
{
    const ParallelProgram program =
        buildKernelProgram(spec.kernel, spec.size, spec.seed);
    SprintConfig cfg = SprintConfig::dvfsSprint(
        kPowerHeadroom, spec.pcm_mass, spec.time_scale);
    applyMachineKnobs(cfg.machine, spec);
    applyL2Scale(cfg.machine, spec.l2_scale);
    return runSprint(program, cfg);
}

double
speedupOver(const RunResult &baseline, const RunResult &run)
{
    SPRINT_ASSERT(run.task_time > 0.0 && baseline.task_time > 0.0,
                  "zero task time");
    return baseline.task_time / run.task_time;
}

double
energyRatio(const RunResult &baseline, const RunResult &run)
{
    SPRINT_ASSERT(baseline.dynamic_energy > 0.0, "zero baseline energy");
    return run.dynamic_energy / baseline.dynamic_energy;
}

} // namespace csprint
