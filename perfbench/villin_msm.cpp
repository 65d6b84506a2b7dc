/// villin_msm: the paper's adaptive MSM villin study (Figs. 2-5, 8) in the
/// configuration of bench/villin_study.cpp — 9 unfolded starts x 5 tasks,
/// 100 microstates, adaptive weighting, 8 single-core workers split
/// between a project server and a relay — run until its answer: the
/// generation whose prediction first meets the 2.0 A target. `mdrun` and
/// the MSM generation steps take nearly all of the run; the control plane
/// is a few percent.

#include <cstdio>

#include "core/backends.hpp"
#include "core/msm_controller.hpp"
#include "harness.hpp"
#include "mdlib/proteins.hpp"
#include "mdlib/units.hpp"
#include "perfmodel/mdperf.hpp"

namespace perfbench {

namespace md = cop::md;
namespace msm = cop::msm;
namespace perf = cop::perf;

namespace {

constexpr int kStarts = 9;
constexpr int kTasksPerStart = 5;
/// The study ends with the generation whose predicted-state RMSD first
/// meets the target, which at kStudySeed is generation 3, so
/// time_to_prediction_s spans nearly the whole run phase and a timed run
/// holds about twice as many studies as with bench/villin_study.cpp's 6.
/// A change that delays the prediction fails the "answer reached" check.
constexpr int kGenerations = 3;
constexpr std::size_t kClusters = 100;
constexpr int kWorkers = 8;
/// The paper's blind-prediction target (§3.2).
constexpr double kPredictionTargetAngstrom = 2.0;
constexpr double kBestRmsdLimitAngstrom = 1.0;
/// The study's own seed (starting conformations, MD and MSM random
/// streams) is the paper configuration's, fixed: which generation first
/// meets the prediction target is a property of the study's seed, and it
/// moves time_to_prediction_s by whole generations. The run's seed draws
/// the deployment's inputs (node keys, worker poll jitter, link latencies).
constexpr std::uint64_t kStudySeed = 2011;

std::uint64_t stateDigest(const core::MsmController& msm) {
    std::uint64_t h = kFnvOffset;
    for (const auto& g : msm.history()) {
        h = fnvValue(h, g.generation);
        h = fnvValue(h, g.totalSnapshots);
        h = fnvValue(h, g.numClusters);
        h = fnvValue(h, g.minRmsdAngstrom);
        h = fnvValue(h, g.predictedRmsdAngstrom);
        h = fnvValue(h, g.seedsSpawned);
    }
    for (const auto& [id, traj] : msm.trajectories()) {
        h = fnvValue(h, id);
        for (const auto& f : traj.frames()) {
            h = fnvValue(h, f.step);
            h = fnv(h, f.positions.data(),
                    f.positions.size() * sizeof(f.positions[0]));
        }
    }
    return h;
}

} // namespace

EpisodeOutcome runVillinMsm(const EpisodeContext& ctx) {
    EpisodeOutcome out;
    Probe probe;
    probe.tracer = ctx.tracer;

    const double t0 = wallNow();
    core::MsmController* msm = nullptr;
    auto dep = std::make_unique<core::Deployment>(ctx.seed);
    probe.deployment = dep.get();
    {
        Tracer::Scope span(ctx.tracer, "setup");
        cop::Rng rng(ctx.seed ^ 0x5eedf1ee7ull);
        auto& projectServer = dep->addServer("project-server");
        auto& relay = dep->addServer("cluster1-head");
        dep->connectServers(projectServer, relay, core::links::dataCenter());

        const perf::MdPerfModel perfModel;
        const double cmdSeconds = perfModel.commandSeconds(
            md::stepsToNs(double(md::kSegmentSteps)), 24);
        const double secondsPerStep = cmdSeconds / double(md::kSegmentSteps);
        for (int w = 0; w < kWorkers; ++w) {
            core::ExecutableRegistry reg;
            reg.add("mdrun",
                    timedMdrun(core::makeMdrunExecutable(
                                   core::linearDurationModel(secondsPerStep)),
                               probe));
            core::WorkerConfig wc;
            wc.platform = "OpenMPI";
            wc.cores = 1;
            dep->addWorker("worker" + std::to_string(w),
                           (w % 2 == 0) ? projectServer : relay, wc,
                           std::move(reg),
                           jittered(core::links::intraCluster(), rng));
        }
        observeClaims(*dep, probe);

        auto model = md::villinGoModel();
        core::MsmControllerParams mp;
        mp.model = model;
        mp.startingConformations = md::makeUnfoldedConformations(
            model, std::size_t(kStarts), kStudySeed * 7919 + 1);
        mp.tasksPerStart = kTasksPerStart;
        mp.segmentSteps = md::kSegmentSteps;
        mp.maxGenerations = kGenerations;
        mp.pipeline.numClusters = kClusters;
        mp.pipeline.snapshotStride = 3;
        mp.pipeline.lag = 1;
        mp.pipeline.medoidSweeps = 1;
        mp.weighting = msm::WeightingScheme::Adaptive;
        mp.evenGenerations = 1;
        mp.simulation = md::villinSimulationConfig();
        mp.seed = kStudySeed;

        auto controller = std::make_unique<core::MsmController>(mp);
        msm = controller.get();
        probe.answered = [msm] {
            return !msm->history().empty() &&
                   msm->history().back().predictedRmsdAngstrom <=
                       kPredictionTargetAngstrom;
        };
        projectServer.createProject(
            "msm_villin",
            std::make_unique<TimedController>(
                std::move(controller), probe,
                [msm] { return msm->history().size(); }));
    }
    out.setupSeconds = wallNow() - t0;
    if (ctx.setupOnly) return out;

    runTimed(*dep, probe, out);

    check(out, msm->minRmsdAngstrom() <= kBestRmsdLimitAngstrom,
          "best RMSD <= 1.0 A");
    check(out, int(msm->history().size()) == kGenerations,
          "all generations clustered");
    for (const auto& g : msm->history())
        std::printf("  generation %d: predicted %.3f A, best %.3f A\n",
                    g.generation, g.predictedRmsdAngstrom, g.minRmsdAngstrom);
    out.digest = fnvValue(stateDigest(*msm), dep->network().traceHash());
    finishEpisode(*dep, probe, md::stepsToNs(double(probe.mdrunSteps)), out);

    if (ctx.tracer->enabled()) {
        double cluster = 0.0, assign = 0.0, estimate = 0.0;
        std::uint64_t evals = 0, pruned = 0, full = 0;
        for (const auto& g : msm->history()) {
            cluster += g.msmStats.clusterSeconds;
            assign += g.msmStats.assignSeconds;
            estimate += g.msmStats.countSeconds + g.msmStats.estimateSeconds;
            evals += g.msmStats.rmsd.calls;
            pruned += g.msmStats.rmsd.pruned;
            full += g.msmStats.fullRebuild ? 1 : 0;
        }
        out.layers["msm.cluster_s"] = cluster;
        out.layers["msm.assign_s"] = assign;
        out.layers["msm.estimate_s"] = estimate;
        out.layers["msm.rmsd_evals"] = double(evals);
        out.layers["msm.rmsd_pruned_frac"] =
            evals + pruned > 0 ? double(pruned) / double(evals + pruned)
                               : 0.0;
        out.layers["msm.full_rebuilds"] = double(full);
    }
    return out;
}

} // namespace perfbench
