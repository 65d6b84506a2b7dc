#pragma once

/// \file harness.hpp
/// What the three workloads share: the per-episode context and outcome,
/// the wrappers that time the `mdrun` handler and the project controller
/// from outside, and the read-out of every layer's public counters.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/copernicus.hpp"
#include "core/executable.hpp"
#include "trace.hpp"
#include "util/random.hpp"

namespace perfbench {

namespace core = cop::core;
namespace net = cop::net;

using Metrics = std::map<std::string, double>;

struct EpisodeContext {
    std::uint64_t seed = 0;
    Tracer* tracer = nullptr;  ///< spans are recorded when it is enabled
    std::string workDir;       ///< per-episode scratch directory (WAL, store)
    bool setupOnly = false;    ///< return right after the set-up is timed
};

struct EpisodeOutcome {
    double setupSeconds = 0.0;
    double runSeconds = 0.0;
    double simSeconds = 0.0;     ///< virtual time the run took
    std::uint64_t attempted = 0; ///< commands submitted
    std::uint64_t failed = 0;    ///< commands not completed exactly once,
                                 ///< plus one per failed output check
    std::vector<std::string> failures;
    std::uint64_t digest = 0;
    Metrics endToEnd;
    Metrics layers; ///< filled only when the episode was traced
};

/// Everything the wrappers observe during one episode.
struct Probe {
    Tracer* tracer = nullptr;
    double runStart = 0.0;
    /// Wall seconds from runStart until answered() first held, -1 before.
    double answeredAt = -1.0;
    std::function<bool()> answered;

    std::uint64_t mdrunCalls = 0;
    std::uint64_t mdrunSteps = 0;
    std::vector<double> checkpointBytes;

    std::set<core::CommandId> submitted;
    std::map<core::CommandId, int> finished;
    std::uint64_t commandFailures = 0;
    std::vector<double> claimLatencies;

    /// Counter values a WAL recovery reset, carried so totals cover the
    /// whole run (see scheduleRecovery).
    Metrics carried;
    std::vector<double> recoverSeconds;
    /// Largest RAM-tier footprint of any server's store seen after a
    /// controller call or recovery.
    std::size_t maxStoreRam = 0;
    core::Deployment* deployment = nullptr;
    /// Set while commands the finished project left behind are drained:
    /// their execution is neither counted nor traced.
    bool draining = false;

    void noteControllerCall();
};

/// Wraps a worker-side handler in an `mdlib.mdrun` span with the command
/// id as request id, counting calls, steps and checkpoint bytes.
core::ExecutableHandler timedMdrun(core::ExecutableHandler inner,
                                   Probe& probe);

/// Controller wrapper: every callback is a `core.controller.ingest` span,
/// renamed `msm.generation` when it appended a generation record (as told
/// by `generations`, which may be null). Submissions and completions are
/// counted for the exactly-once check.
class TimedController : public core::Controller {
public:
    TimedController(std::unique_ptr<core::Controller> inner, Probe& probe,
                    std::function<std::size_t()> generations = nullptr);

    void onProjectStart(core::ProjectContext& ctx) override;
    void onCommandFinished(core::ProjectContext& ctx,
                           const core::CommandResult& result) override;
    void onCommandFailed(core::ProjectContext& ctx,
                         const core::CommandSpec& spec) override;
    bool isDone(const core::ProjectContext& ctx) const override;
    std::string statusReport(const core::ProjectContext& ctx) const override;

private:
    template <typename Fn> void timed(std::uint64_t request, Fn&& fn);

    std::unique_ptr<core::Controller> inner_;
    Probe& probe_;
    std::function<std::size_t()> generations_;
};

/// Schedules `server.recoverFromWal()` at sim time `at`, inside a
/// `core.wal.recover` span, carrying the counters the recovery resets.
void scheduleRecovery(core::Deployment& dep, core::Server& server,
                      double at, Probe& probe);

/// `props` with its latency scaled by a seeded factor in [0.95, 1.05].
/// Worker links get it: their latencies are workload inputs drawn from the
/// seed, so sim-time latencies differ between seeds instead of being
/// constants.
net::LinkProperties jittered(net::LinkProperties props, cop::Rng& rng);

/// Attaches the claim-latency observer to every worker.
void observeClaims(core::Deployment& dep, Probe& probe);

/// Runs the deployment to completion inside the `run` span, then (untimed,
/// uncounted) lets the commands a finished project left queued or in
/// flight complete, so that exactly-once delivery can be checked for every
/// submitted command.
bool runTimed(core::Deployment& dep, Probe& probe, EpisodeOutcome& out);

/// Exactly-once check, end-to-end metrics every workload reports, and the
/// per-layer read-out (when traced). `trajectoryNs` is the mapped
/// trajectory length of the episode in ns.
void finishEpisode(core::Deployment& dep, Probe& probe, double trajectoryNs,
                   EpisodeOutcome& out);

/// Records a failed output check.
void check(EpisodeOutcome& out, bool ok, const std::string& what);

/// 64-bit FNV-1a, chained through `h`.
std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n);
template <typename T> std::uint64_t fnvValue(std::uint64_t h, const T& v) {
    return fnv(h, &v, sizeof v);
}
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// Nearest-rank percentile (q in [0, 1]); 0 for no samples.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// VmHWM of this process in MiB.
double peakRssMb();

EpisodeOutcome runVillinMsm(const EpisodeContext& ctx);
EpisodeOutcome runFleetTenancy(const EpisodeContext& ctx);
EpisodeOutcome runLjDurable(const EpisodeContext& ctx);

} // namespace perfbench
