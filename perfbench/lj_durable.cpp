/// lj_durable: an ensemble of periodic Lennard-Jones + reaction-field
/// systems the size of the paper's solvated villin (9,864 atoms), run as
/// chained `mdrun` segments on four single-core workers with the default
/// ForceFieldParams kernel flavour. The project server keeps a WAL and a
/// store RAM cap below the live checkpoint bytes, and the plane is rebuilt
/// from the log several times mid-run. This is the large-N cell-list path
/// and moves MB-size checkpoints through wire, WAL, store and codec.

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/backends.hpp"
#include "harness.hpp"
#include "mdlib/simulation.hpp"
#include "mdlib/units.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace md = cop::md;
using cop::Rng;
using cop::Vec3;

namespace {

constexpr std::size_t kAtoms = 9864;
constexpr int kMembers = 4;
constexpr int kWorkers = 4;
constexpr int kSegments = 5;
constexpr std::int64_t kSegmentSteps = 8;
constexpr double kTemperature = 1.0;
/// Virtual seconds per step on one core; a segment takes 8 sim-s.
constexpr double kStepSimSeconds = 1.0;
/// Mid-run WAL recoveries, in sim seconds (the run spans ~40 sim-s).
constexpr double kRecoveries[] = {9.5, 19.5, 29.5};
/// Below the ~4.4 MB of checkpoints live at once, above one checkpoint.
constexpr std::size_t kStoreRamBytes = std::size_t(2) << 20;
constexpr double kTemperatureTolerance = 0.1;

md::ForceFieldParams forceFieldParams() {
    md::ForceFieldParams p; // default kernel flavour
    p.kind = md::NonbondedKind::LennardJonesRF;
    p.cutoff = 2.5;
    p.useCoulombRF = true;
    return p;
}

md::SimulationConfig simulationConfig(std::uint64_t seed) {
    md::SimulationConfig c;
    c.integrator.kind = md::IntegratorKind::LangevinBAOAB;
    c.integrator.dt = 0.005;
    c.integrator.temperature = kTemperature;
    c.integrator.friction = 10.0;
    c.sampleInterval = kSegmentSteps;
    c.seed = seed;
    return c;
}

/// A jittered simple-cubic lattice of alternately charged LJ atoms at
/// reduced density ~0.58.
md::Simulation makeMember(std::uint64_t seed) {
    md::Topology top;
    for (std::size_t i = 0; i < kAtoms; ++i)
        top.addParticle(1.0, i % 2 ? 0.2 : -0.2);
    top.finalize();
    const auto side = int(std::ceil(std::cbrt(double(kAtoms))));
    const double spacing = 1.2;
    const auto box = md::Box::cubic(side * spacing);
    Rng rng(seed);
    std::vector<Vec3> pos;
    pos.reserve(kAtoms);
    for (int x = 0; x < side && pos.size() < kAtoms; ++x)
        for (int y = 0; y < side && pos.size() < kAtoms; ++y)
            for (int z = 0; z < side && pos.size() < kAtoms; ++z)
                pos.push_back({(x + 0.5) * spacing + rng.uniform(-0.05, 0.05),
                               (y + 0.5) * spacing + rng.uniform(-0.05, 0.05),
                               (z + 0.5) * spacing + rng.uniform(-0.05, 0.05)});
    md::Simulation sim(std::move(top), box, forceFieldParams(),
                       simulationConfig(seed), std::move(pos));
    sim.initializeVelocities();
    return sim;
}

/// Extends every member by kSegments chained segments, each resubmitted
/// from the previous segment's checkpoint.
class EnsembleController : public core::Controller {
public:
    explicit EnsembleController(std::vector<std::vector<std::uint8_t>> starts)
        : latest_(std::move(starts)), done_(latest_.size(), 0) {}

    void onProjectStart(core::ProjectContext& ctx) override {
        for (std::size_t m = 0; m < latest_.size(); ++m) submit(ctx, int(m));
    }
    void onCommandFinished(core::ProjectContext& ctx,
                           const core::CommandResult& result) override {
        auto out = core::MdrunOutput::decode(result.output);
        const auto m = std::size_t(result.trajectoryId);
        latest_[m] = std::move(out.checkpoint);
        if (++done_[m] < kSegments) submit(ctx, int(m));
    }
    bool isDone(const core::ProjectContext& ctx) const override {
        for (int d : done_)
            if (d < kSegments) return false;
        return ctx.outstandingCommands() == 0;
    }
    const std::vector<std::vector<std::uint8_t>>& latest() const {
        return latest_;
    }

private:
    void submit(core::ProjectContext& ctx, int member) {
        core::CommandSpec spec;
        spec.executable = "mdrun";
        spec.steps = kSegmentSteps;
        spec.trajectoryId = member;
        spec.generation = done_[std::size_t(member)];
        spec.input = latest_[std::size_t(member)];
        ctx.submitCommand(std::move(spec));
    }

    std::vector<std::vector<std::uint8_t>> latest_;
    std::vector<int> done_;
};

} // namespace

EpisodeOutcome runLjDurable(const EpisodeContext& ctx) {
    namespace fs = std::filesystem;
    EpisodeOutcome out;
    Probe probe;
    probe.tracer = ctx.tracer;
    fs::remove_all(ctx.workDir);
    fs::create_directories(ctx.workDir);

    const double t0 = wallNow();
    EnsembleController* ensemble = nullptr;
    core::Server* server = nullptr;
    auto dep = std::make_unique<core::Deployment>(ctx.seed);
    probe.deployment = dep.get();
    {
        Tracer::Scope span(ctx.tracer, "setup");
        Rng rng(ctx.seed ^ 0x5eedf1ee7ull);
        core::ServerConfig sc;
        sc.durability.walEnabled = true;
        sc.durability.walDir = ctx.workDir + "/wal";
        sc.durability.snapshotEveryRecords = 40;
        sc.durability.storeRamBytes = kStoreRamBytes;
        sc.durability.storeDir = ctx.workDir + "/store";
        server = &dep->addServer("project", sc);
        for (int w = 0; w < kWorkers; ++w) {
            core::ExecutableRegistry reg;
            reg.add("mdrun", timedMdrun(core::makeMdrunExecutable(
                                            core::linearDurationModel(
                                                kStepSimSeconds)),
                                        probe));
            dep->addWorker("worker" + std::to_string(w), *server,
                           core::WorkerConfig{}, std::move(reg),
                           jittered(core::links::intraCluster(), rng));
        }
        observeClaims(*dep, probe);

        std::vector<std::vector<std::uint8_t>> starts;
        for (int m = 0; m < kMembers; ++m)
            starts.push_back(
                makeMember(ctx.seed * 1000003ull + std::uint64_t(m))
                    .checkpoint());
        auto ctrl = std::make_unique<EnsembleController>(std::move(starts));
        ensemble = ctrl.get();
        server->createProject("lj_ensemble",
                              std::make_unique<TimedController>(
                                  std::move(ctrl), probe));
        for (double at : kRecoveries)
            scheduleRecovery(*dep, *server, at, probe);
    }
    out.setupSeconds = wallNow() - t0;
    if (ctx.setupOnly) {
        dep.reset();
        fs::remove_all(ctx.workDir);
        return out;
    }

    runTimed(*dep, probe, out);

    const auto m = server->metricsSnapshot();
    check(out, m.recoveries == std::size(kRecoveries),
          "recoveries match the scheduled count");
    check(out, probe.maxStoreRam <= kStoreRamBytes,
          "store RAM tier within its cap");
    std::uint64_t h = dep->network().traceHash();
    for (const auto& cp : ensemble->latest()) {
        h = fnv(h, cp.data(), cp.size());
        const double t = md::Simulation::restore(cp).temperature();
        std::printf("  final temperature %.4f\n", t);
        check(out,
              std::isfinite(t) &&
                  std::abs(t - kTemperature) <=
                      kTemperatureTolerance * kTemperature,
              "final temperature finite and near target");
    }
    out.digest = h;
    finishEpisode(*dep, probe, md::stepsToNs(double(probe.mdrunSteps)), out);
    dep.reset();
    fs::remove_all(ctx.workDir);
    return out;
}

} // namespace perfbench
