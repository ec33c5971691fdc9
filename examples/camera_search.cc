/**
 * @file
 * Camera-based visual search, the motivating application of the
 * paper's introduction: a user takes photos; for each one the device
 * sprints through SURF-style feature extraction, transmits a compact
 * descriptor vector, then must cool before the next sprint. The
 * example walks a burst of photos through the sprint/cooldown pacing
 * loop and reports per-photo responsiveness.
 *
 *   ./camera_search --photos 4 --gap 5
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/args.hh"
#include "sprint/experiment.hh"
#include "sprint/simulation.hh"
#include "workloads/feature.hh"

using namespace csprint;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv, {"photos", "gap", "cores"});
    const int photos = static_cast<int>(args.getInt("photos", 4));
    const double gap = args.getDouble("gap", 5.0);  // s between shots
    const int cores = static_cast<int>(args.getInt("cores", 16));

    std::cout << "camera-based visual search: " << photos
              << " photos, " << gap << " s apart, " << cores
              << "-core sprints\n\n";

    // Feature extraction on each photo (different seed per shot).
    const SprintConfig sprint_cfg =
        SprintConfig::parallelSprint(cores, kFullPcm);
    const SprintConfig base_cfg = SprintConfig::baseline();

    const char *header = "photo  keypoints  sprint (ms)  1-core (ms)  "
                         "speedup  cooldown need (ms)  ready for next?";
    std::printf("== per-photo responsiveness ==\n%s\n%s\n", header,
                std::string(std::strlen(header), '-').c_str());

    for (int p = 0; p < photos; ++p) {
        FeatureConfig fcfg =
            FeatureConfig::forSize(InputSize::B, 1000 + p);
        const FeatureResult ref = featureReference(fcfg);
        const ParallelProgram prog = featureProgram(fcfg);

        const RunResult sprint = runSprint(prog, sprint_cfg);
        const RunResult base = runSprint(prog, base_cfg);

        // The device is ready for the next shot when the estimated
        // cooldown fits inside the user's think time.
        const bool ready = sprint.cooldown_estimate < gap;

        std::printf("%-5d  %-9zu  %-11.2f  %-11.2f  %-7.2f  %-18.1f  %s\n",
                    p + 1, ref.keypoints.size(), sprint.task_time * 1e3,
                    base.task_time * 1e3, base.task_time / sprint.task_time,
                    sprint.cooldown_estimate * 1e3,
                    ready ? "yes" : "NO (pace sprints)");
    }

    std::cout << "\nSprinting turns a sluggish feature-extraction "
                 "pass into a sub-interactive burst;\nthe cooldown "
                 "estimate (sprint time x sprint power / TDP, paper "
                 "Section 4.5) bounds\nhow often the user can "
                 "re-trigger full-intensity sprints.\n";
    return 0;
}
