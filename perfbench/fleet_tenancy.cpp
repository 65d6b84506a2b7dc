/// fleet_tenancy: the control plane alone, after the macro_tenancy smoke
/// configuration. 1000 single-core workers behind four edge servers claim
/// echo commands (no MD, no MSM) from 16 tenants on one project server,
/// under a seeded 2% drop/duplicate/reorder fault plan. Each tenant keeps
/// a window of commands queued and submits the next one from its
/// completion callback, so controller pushes run beside worker claims.
/// Routing, wire and scheduler do nearly all the work.

#include <cstdio>

#include "harness.hpp"
#include "mdlib/units.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace md = cop::md;
using cop::Rng;

namespace {

constexpr int kEdges = 4;
constexpr int kWorkersPerEdge = 250;
constexpr int kTenants = 16;
/// Claim latencies are sums of batch flush delays, so they fall into
/// narrow clusters. The median claim must sit inside one cluster, not at
/// the edge between two, or claim_p50_sim_s jumps between seeds. With the
/// default 20 ms server flush delay and 250 commands per tenant it sat at
/// an edge; a 5 ms server flush delay and enough steady-state claims to
/// outweigh the 1000 start-up claims put it inside the ~30 ms cluster.
constexpr int kCommandsPerTenant = 500;
constexpr double kServerFlushDelay = 0.005;
/// Commands each tenant queues up front; with 16 tenants that is more than
/// the fleet can claim in one wave, so every shard stays backlogged until
/// the fairness probe.
constexpr int kInitialWindow = 100;
constexpr double kCommandSeconds = 30.0;
/// Nominal segment length an echo command carries (nothing integrates it).
constexpr std::int64_t kEchoSteps = 10;
/// Mid second wave: every tenant still has pending commands.
constexpr double kProbeAt = 45.0;
constexpr double kFaultProbability = 0.02;
constexpr double kMinJain = 0.99;
constexpr std::size_t kOutputBytes = 128;
constexpr std::size_t kCheckpointBytes = 256;

core::ExecutableRegistry echoRegistry() {
    core::ExecutableRegistry reg;
    reg.add("echo", [](const core::CommandSpec& cmd, int) {
        core::Execution e;
        e.result.commandId = cmd.id;
        e.result.projectId = cmd.projectId;
        e.result.trajectoryId = cmd.trajectoryId;
        e.result.generation = cmd.generation;
        e.result.success = true;
        e.result.output.assign(kOutputBytes, std::uint8_t(cmd.trajectoryId));
        e.simSeconds = kCommandSeconds;
        e.checkpoints.emplace_back(
            0.5, std::vector<std::uint8_t>(kCheckpointBytes, 0xcc));
        return e;
    });
    return reg;
}

/// Queues a window of echo commands, then one more per completion until
/// its total is submitted.
class PumpController : public core::Controller {
public:
    void onProjectStart(core::ProjectContext& ctx) override {
        while (submitted_ < kInitialWindow) submit(ctx);
    }
    void onCommandFinished(core::ProjectContext& ctx,
                           const core::CommandResult& result) override {
        ++finished_;
        digest_ = fnvValue(digest_, result.trajectoryId);
        digest_ = fnvValue(digest_, ctx.now());
        if (submitted_ < kCommandsPerTenant) submit(ctx);
    }
    bool isDone(const core::ProjectContext& ctx) const override {
        return finished_ >= kCommandsPerTenant &&
               ctx.outstandingCommands() == 0;
    }
    int finished() const { return finished_; }
    std::uint64_t digest() const { return digest_; }

private:
    void submit(core::ProjectContext& ctx) {
        core::CommandSpec spec;
        spec.executable = "echo";
        spec.steps = kEchoSteps;
        spec.trajectoryId = submitted_++;
        ctx.submitCommand(std::move(spec));
    }

    int submitted_ = 0;
    int finished_ = 0;
    std::uint64_t digest_ = kFnvOffset;
};

/// Jain index (sum x)^2 / (n sum x^2): 1 = even, 1/n = one tenant took all.
double jainIndex(const std::vector<double>& xs) {
    double sum = 0.0, sumSq = 0.0;
    for (double x : xs) {
        sum += x;
        sumSq += x * x;
    }
    return sumSq > 0.0 ? sum * sum / (double(xs.size()) * sumSq) : 0.0;
}

} // namespace

EpisodeOutcome runFleetTenancy(const EpisodeContext& ctx) {
    EpisodeOutcome out;
    Probe probe;
    probe.tracer = ctx.tracer;
    std::vector<PumpController*> tenants;
    std::vector<double> midrun(kTenants, 0.0);

    const double t0 = wallNow();
    auto dep = std::make_unique<core::Deployment>(ctx.seed);
    probe.deployment = dep.get();
    {
        Tracer::Scope span(ctx.tracer, "setup");
        Rng rng(ctx.seed ^ 0x5eedf1ee7ull);
        core::ServerConfig sc;
        sc.heartbeatInterval = 60.0;
        sc.batch.maxEnvelopes = 64;
        sc.batch.maxBytes = 1 << 20;
        sc.batch.flushDelay = kServerFlushDelay;
        auto& project = dep->addServer("project", sc);
        std::vector<core::Server*> edges;
        for (int e = 0; e < kEdges; ++e) {
            auto& edge = dep->addServer("edge" + std::to_string(e), sc);
            // Uplinks stay identical: their latency order decides how much of
            // the fleet each route lookup explores, which would make the
            // workload's cost depend on the seed.
            dep->connectServers(project, edge, core::links::dataCenter());
            edges.push_back(&edge);
        }

        core::WorkerConfig wc;
        wc.cores = 1;
        wc.heartbeatInterval = 60.0;
        wc.batch.maxEnvelopes = 64;
        wc.batch.maxBytes = 1 << 20;
        for (int e = 0; e < kEdges; ++e)
            for (int w = 0; w < kWorkersPerEdge; ++w)
                dep->addWorker(
                    "w" + std::to_string(e) + "_" + std::to_string(w),
                    *edges[std::size_t(e)], wc, echoRegistry(),
                    jittered(core::links::intraCluster(), rng));
        observeClaims(*dep, probe);

        net::FaultPlan plan;
        plan.seed = ctx.seed * 2654435761ull + 20110617;
        plan.defaultProfile.dropProbability = kFaultProbability;
        plan.defaultProfile.duplicateProbability = kFaultProbability;
        plan.defaultProfile.reorderProbability = kFaultProbability;
        dep->setFaultPlan(plan);

        for (int p = 0; p < kTenants; ++p) {
            auto ctrl = std::make_unique<PumpController>();
            tenants.push_back(ctrl.get());
            core::ProjectSpec spec;
            spec.name = "tenant" + std::to_string(p);
            // Equal weights: single-core offers degrade DRR to round-robin
            // (core/scheduler.hpp), so equal shares are the fair outcome
            // the Jain probe below can check.
            spec.weight = 1.0;
            project.createProject(std::move(spec),
                                  std::make_unique<TimedController>(
                                      std::move(ctrl), probe));
        }
        dep->loop().schedule(kProbeAt, [&] {
            for (std::size_t i = 0; i < tenants.size(); ++i)
                midrun[i] = double(tenants[i]->finished());
        });
    }
    out.setupSeconds = wallNow() - t0;
    if (ctx.setupOnly) return out;

    runTimed(*dep, probe, out);

    const double jain = jainIndex(midrun);
    std::printf("  mid-run Jain fairness %.6f\n", jain);
    check(out, jain >= kMinJain, "mid-run Jain fairness >= 0.99");
    check(out, dep->network().faultStats().deadLetters == 0,
          "zero dead letters");
    std::uint64_t deliveriesFailed = 0;
    for (const auto& s : dep->servers())
        deliveriesFailed += s->metricsSnapshot().wire.deliveriesFailed;
    for (const auto& w : dep->workers())
        deliveriesFailed += w->wireStats().deliveriesFailed;
    check(out, deliveriesFailed == 0, "zero failed deliveries");
    std::uint64_t h = dep->network().traceHash();
    for (const auto* t : tenants) h = fnvValue(h, t->digest());
    out.digest = h;
    // Echo commands carry a nominal step count and run no MD; their mapped
    // trajectory length keeps ns_per_day defined on every workload.
    finishEpisode(*dep, probe,
                  md::stepsToNs(double(probe.finished.size() * kEchoSteps)), out);
    return out;
}

} // namespace perfbench
