#include "sprint/simulation.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "sprint/tallies.hh"

namespace csprint {

MobilePackageParams
SprintConfig::scaledPackage(Grams pcm_mass, double time_scale)
{
    SPRINT_ASSERT(time_scale > 0.0, "bad time scale");
    MobilePackageParams p = MobilePackageParams::phonePcm(pcm_mass);
    p.c_junction *= time_scale;
    p.c_case *= time_scale;
    p.pcm_mass *= time_scale;
    return p;
}

SprintConfig
SprintConfig::parallelSprint(int cores, Grams pcm_mass,
                             double time_scale)
{
    SprintConfig cfg;
    cfg.sprint_cores = cores;
    cfg.num_threads = cores;
    cfg.dvfs_boost = 1.0;
    cfg.package = scaledPackage(pcm_mass, time_scale);
    // The physical ramp is 128 us; in the time-scaled universe the
    // equivalent delay shrinks with the same factor as the thermal
    // transients and the workload (paper Section 5.3: the ramp is
    // negligible against the sprint duration).
    cfg.activation_ramp = 128e-6 * time_scale;
    cfg.machine = MachineConfig();
    cfg.machine.num_cores = cores;
    cfg.machine.num_threads = cores;
    return cfg;
}

SprintConfig
SprintConfig::dvfsSprint(double power_headroom, Grams pcm_mass,
                         double time_scale)
{
    SprintConfig cfg;
    cfg.sprint_cores = 1;
    cfg.num_threads = 1;
    cfg.dvfs_boost = dvfsBoostFromHeadroom(power_headroom);
    cfg.package = scaledPackage(pcm_mass, time_scale);
    // A voltage ramp rather than a core-activation ramp; same scaled
    // order of magnitude.
    cfg.activation_ramp = 128e-6 * time_scale;
    cfg.machine = MachineConfig();
    cfg.machine.num_cores = 1;
    cfg.machine.num_threads = 1;
    cfg.machine.freq_mult = cfg.dvfs_boost;
    cfg.machine.energy =
        InstructionEnergyModel().boosted(cfg.dvfs_boost);
    return cfg;
}

SprintConfig
SprintConfig::baseline()
{
    SprintConfig cfg;
    cfg.sprint_cores = 1;
    cfg.num_threads = 1;
    cfg.activation_ramp = 0.0;
    // The baseline never exceeds TDP, so the package barely matters;
    // use the unscaled no-PCM package.
    cfg.package = MobilePackageParams::phoneNoPcm();
    cfg.machine = MachineConfig();
    cfg.machine.num_cores = 1;
    cfg.machine.num_threads = 1;
    return cfg;
}

MachineConfig
SprintConfig::machineConfig() const
{
    SPRINT_ASSERT(sprint_cores >= 1, "need at least one core");
    MachineConfig mcfg = machine;
    mcfg.num_cores = sprint_cores;
    mcfg.num_threads = num_threads;
    if (dvfs_boost != 1.0) {
        // The dvfsSprint factory wired the boost into the machine
        // template; re-deriving it here would be a second source of
        // truth, so verify instead. The boosted energy model scales
        // its tech clock with the boost, which is the observable that
        // distinguishes a boosted model from the nominal one.
        SPRINT_ASSERT(mcfg.freq_mult == dvfs_boost,
                      "dvfs_boost set but machine.freq_mult not wired "
                      "by the config factory");
        SPRINT_ASSERT(std::abs(mcfg.energy.tech().clock -
                               dvfs_boost * mcfg.nominal_clock) <=
                          1e-9 * mcfg.nominal_clock,
                      "dvfs_boost set but machine.energy not boosted "
                      "by the config factory");
    }
    return mcfg;
}

std::unique_ptr<Machine>
prepareMachine(const ParallelProgram &program, const SprintConfig &cfg)
{
    return std::make_unique<Machine>(cfg.machineConfig(), program);
}

void
pumpTaskSlice(Machine &machine, const SprintConfig &cfg,
              MobilePackageModel &package, SprintPolicy &policy,
              PumpState &st, const PumpObserver &observe)
{
    const Watts sustainable = package.sustainableTdp();
    const bool is_sprinting_config =
        cfg.sprint_cores > 1 || cfg.dvfs_boost > 1.0;

    // The hook stays installed on the machine across slices; capture
    // the observer by value so a caller's temporary cannot dangle.
    machine.setSampleHook(
        [&, observe](Machine &m, Seconds dt, Joules energy) {
            st.elapsed += dt;
            const Watts power = energy / dt;
            // Traces record the pre-sample thermal state; the policy
            // advances the package below (see policy.hh's contract).
            const Celsius junction = package.junctionTemp();
            const double melt = package.meltFraction();
            st.junction_trace.add(st.elapsed, junction);
            st.power_trace.add(st.elapsed, power);
            st.melt_trace.add(st.elapsed, melt);
            if (power > sustainable) {
                st.above_tdp_time += dt;
                st.above_tdp_energy += energy;
            }
            st.sampled_time += dt;
            st.sampled_energy += energy;

            const SprintDecision decision =
                policy.onSample(package, dt, energy);
            st.peak_junction =
                std::max(st.peak_junction, package.junctionTemp());
            if (decision == SprintDecision::Throttle)
                st.policy_throttled = true;
            // The baseline config never reconfigures the machine.
            if (is_sprinting_config) {
                switch (decision) {
                  case SprintDecision::Continue:
                    break;
                  case SprintDecision::StopSprint:
                    st.sprint_exhausted = true;
                    if (cfg.software_migration_fails)
                        break;  // OS hung: leave it to the throttle
                    if (cfg.dvfs_boost > 1.0) {
                        m.setFrequencyMult(1.0);
                        m.setEnergyModel(InstructionEnergyModel());
                    } else {
                        m.consolidateToSingleCore();
                    }
                    break;
                  case SprintDecision::Throttle:
                    st.hardware_throttled = true;
                    // Throttle frequency by at least the number of
                    // active cores so dynamic power falls below TDP
                    // (Section 7).
                    m.setFrequencyMult(
                        std::min(1.0, 1.0 / m.activeCores()) /
                        std::max(1.0, cfg.dvfs_boost));
                    m.setEnergyModel(InstructionEnergyModel());
                    break;
                }
            }
            if (observe && observe(st.elapsed, junction, power, melt))
                m.suspend();
        },
        1000);  // the paper samples energy every 1000 cycles

    if (machine.suspended())
        machine.resume();
    else
        machine.run();
    // The lambda above references this call's stack frame (and the
    // caller's package/policy); a suspended machine can be parked
    // long past both, so drop the hook — the next slice installs a
    // fresh one before running.
    if (machine.suspended())
        machine.setSampleHook(nullptr);
}

RunResult
finalizePump(PumpState &&st, Machine &machine, const SprintConfig &cfg,
             MobilePackageModel &package)
{
    RunResult result;
    result.sprint_cores = cfg.sprint_cores;
    result.num_threads = cfg.num_threads;
    result.dvfs_boost = cfg.dvfs_boost;
    result.task_time = st.ramp_time + machine.simTime();
    result.machine = machine.stats();
    result.dynamic_energy = machine.stats().dynamic_energy;
    result.peak_junction = st.peak_junction;
    result.final_melt_fraction = package.meltFraction();
    result.sprint_exhausted = st.sprint_exhausted;
    result.sprint_duration = st.above_tdp_time;
    result.sprint_energy = st.above_tdp_energy;
    result.sampled_time = st.sampled_time;
    result.sampled_energy = st.sampled_energy;
    result.avg_power =
        result.task_time > 0.0 ? result.dynamic_energy / result.task_time
                               : 0.0;
    if (st.above_tdp_time > 0.0) {
        result.cooldown_estimate = package.approxCooldown(
            st.above_tdp_time, st.above_tdp_energy / st.above_tdp_time);
    }
    result.hardware_throttled =
        st.hardware_throttled || st.policy_throttled;
    result.junction_trace = std::move(st.junction_trace);
    result.power_trace = std::move(st.power_trace);
    result.melt_trace = std::move(st.melt_trace);
    return result;
}

RunResult
samplePumpObserved(Machine &machine, const SprintConfig &cfg,
                   MobilePackageModel &package, SprintPolicy &policy,
                   const PumpObserver &observe, Seconds start_time)
{
    PumpState st;
    st.elapsed = start_time + cfg.activation_ramp;
    st.ramp_time = cfg.activation_ramp;
    st.peak_junction = package.junctionTemp();
    do {
        pumpTaskSlice(machine, cfg, package, policy, st, observe);
        // suspended() distinguishes an observer pause (resume and
        // carry on) from completion or an abort() (stop either way).
    } while (machine.suspended());
    return finalizePump(std::move(st), machine, cfg, package);
}

RunResult
samplePump(Machine &machine, const SprintConfig &cfg,
           MobilePackageModel &package, SprintPolicy &policy,
           Seconds start_time)
{
    return samplePumpObserved(machine, cfg, package, policy, nullptr,
                              start_time);
}

RunResult
runSprint(const ParallelProgram &program, const SprintConfig &cfg)
{
    std::unique_ptr<Machine> machine = prepareMachine(program, cfg);
    MobilePackageModel package(cfg.package);
    package.reset();

    // The activation ramp heats nothing appreciable (cores are still
    // power-gated) but delays the start of useful computation.
    package.step(cfg.activation_ramp);

    // The seed decision logic as a policy: activity budget by
    // default, thermometer ground truth when the governor config asks
    // for it.
    std::unique_ptr<SprintPolicy> policy;
    if (cfg.governor.use_activity_estimate)
        policy = std::make_unique<GreedyActivityPolicy>(cfg.governor);
    else
        policy = std::make_unique<ThermometerPolicy>(cfg.governor);
    policy->beginTask(package);

    RunResult result = samplePump(*machine, cfg, package, *policy);
    result.program_name = program.name();
    return result;
}

std::string
firstDifference(const RunResult &a, const RunResult &b)
{
    FieldDiff d;
    d("program_name", a.program_name, b.program_name);
    d("sprint_cores", a.sprint_cores, b.sprint_cores);
    d("num_threads", a.num_threads, b.num_threads);
    d("dvfs_boost", a.dvfs_boost, b.dvfs_boost);
    d("task_time", a.task_time, b.task_time);
    d("dynamic_energy", a.dynamic_energy, b.dynamic_energy);
    d("peak_junction", a.peak_junction, b.peak_junction);
    d("final_melt_fraction", a.final_melt_fraction, b.final_melt_fraction);
    d("sprint_exhausted", a.sprint_exhausted, b.sprint_exhausted);
    d("hardware_throttled", a.hardware_throttled, b.hardware_throttled);
    d("sprint_duration", a.sprint_duration, b.sprint_duration);
    d("sprint_energy", a.sprint_energy, b.sprint_energy);
    d("cooldown_estimate", a.cooldown_estimate, b.cooldown_estimate);
    d("avg_power", a.avg_power, b.avg_power);
    d("sampled_time", a.sampled_time, b.sampled_time);
    d("sampled_energy", a.sampled_energy, b.sampled_energy);
    d("junction_trace", a.junction_trace, b.junction_trace);
    d("power_trace", a.power_trace, b.power_trace);
    d("melt_trace", a.melt_trace, b.melt_trace);
    const MachineStats &m = a.machine;
    const MachineStats &n = b.machine;
    d("machine.cycles", m.cycles, n.cycles);
    d("machine.seconds", m.seconds, n.seconds);
    d("machine.ops_retired", m.ops_retired, n.ops_retired);
    d("machine.ops_by_kind", m.ops_by_kind, n.ops_by_kind);
    d("machine.l1_hits", m.l1_hits, n.l1_hits);
    d("machine.l1_misses", m.l1_misses, n.l1_misses);
    d("machine.idle_cycles", m.idle_cycles, n.idle_cycles);
    d("machine.sleep_cycles", m.sleep_cycles, n.sleep_cycles);
    d("machine.barrier_arrivals", m.barrier_arrivals, n.barrier_arrivals);
    d("machine.dynamic_energy", m.dynamic_energy, n.dynamic_energy);
    return d.first();
}

} // namespace csprint
