#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

/// Forwards to the server's context, recording every submitted id.
class CountingContext : public core::ProjectContext {
public:
    CountingContext(core::ProjectContext& inner, Probe& probe)
        : inner_(inner), probe_(probe) {}

    core::ProjectId projectId() const override { return inner_.projectId(); }
    net::SimTime now() const override { return inner_.now(); }
    core::CommandId submitCommand(core::CommandSpec spec) override {
        const auto id = inner_.submitCommand(std::move(spec));
        probe_.submitted.insert(id);
        return id;
    }
    SubmitResult trySubmitCommand(core::CommandSpec spec) override {
        const auto r = inner_.trySubmitCommand(std::move(spec));
        if (r.admitted) probe_.submitted.insert(r.id);
        return r;
    }
    std::size_t outstandingCommands() const override {
        return inner_.outstandingCommands();
    }

private:
    core::ProjectContext& inner_;
    Probe& probe_;
};

/// Monotone counters of one server that a WAL recovery may reset.
Metrics serverCounters(const core::Server& server) {
    const auto m = server.metricsSnapshot();
    return {
        {"scheduler.claims", double(m.scheduler.claims)},
        {"scheduler.scan_steps", double(m.scheduler.claimScanSteps)},
        {"scheduler.requeues", double(m.scheduler.commandsRequeued)},
        {"scheduler.has_work_probes", double(m.scheduler.hasWorkProbes)},
        {"store.puts", double(m.store.puts)},
        {"store.gets", double(m.store.gets)},
        {"store.hits", double(m.store.hits)},
        {"store.spills", double(m.store.spills)},
        {"store.spilled_raw", double(m.store.spilledRawBytes)},
        {"store.spilled_compressed", double(m.store.spilledCompressedBytes)},
        {"wal.records", double(m.wal.records)},
        {"wal.bytes", double(m.wal.bytesWritten)},
        {"wal.syncs", double(m.wal.syncs)},
        {"wal.snapshots", double(m.wal.snapshots)},
        {"wal.replayed", double(m.wal.replayedRecords)},
    };
}

void addWire(Metrics& c, const core::wire::EndpointStats& w) {
    c["wire.sent"] += double(w.sent);
    c["wire.retransmits"] += double(w.retransmits);
    c["wire.acks_piggybacked"] += double(w.acksPiggybacked);
    c["wire.deliveries_failed"] += double(w.deliveriesFailed);
    c["wire.malformed_dropped"] += double(w.malformedDropped);
    c["wire.batched"] += double(w.envelopesBatched);
    c["wire.batches"] += double(w.batchesSent);
    c["wire.singletons"] += double(w.singletonsSent);
}

/// Sim-time budget for draining left-over commands after a run.
constexpr double kDrainHorizonSimSeconds = 1e6;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

} // namespace

void Probe::noteControllerCall() {
    if (answeredAt < 0.0 && answered && answered())
        answeredAt = wallNow() - runStart;
    for (const auto& s : deployment->servers())
        maxStoreRam =
            std::max(maxStoreRam, s->segmentStore().stats().ramBytesUsed);
}

core::ExecutableHandler timedMdrun(core::ExecutableHandler inner,
                                   Probe& probe) {
    return [inner = std::move(inner), &probe](const core::CommandSpec& cmd,
                                              int cores) {
        if (probe.draining) return inner(cmd, cores);
        core::Execution exec;
        {
            Tracer::Scope span(probe.tracer, "mdlib.mdrun", cmd.id);
            exec = inner(cmd, cores);
        }
        ++probe.mdrunCalls;
        probe.mdrunSteps += std::uint64_t(cmd.steps);
        if (!exec.checkpoints.empty())
            probe.checkpointBytes.push_back(
                double(exec.checkpoints.back().second.size()));
        return exec;
    };
}

TimedController::TimedController(std::unique_ptr<core::Controller> inner,
                                 Probe& probe,
                                 std::function<std::size_t()> generations)
    : inner_(std::move(inner)), probe_(probe),
      generations_(std::move(generations)) {}

template <typename Fn>
void TimedController::timed(std::uint64_t request, Fn&& fn) {
    if (probe_.draining) return fn();
    const std::size_t before = generations_ ? generations_() : 0;
    {
        Tracer::Scope span(probe_.tracer, "core.controller.ingest", request);
        fn();
        if (generations_ && generations_() > before)
            span.rename("msm.generation");
    }
    probe_.noteControllerCall();
}

void TimedController::onProjectStart(core::ProjectContext& ctx) {
    timed(0, [&] {
        CountingContext counting(ctx, probe_);
        inner_->onProjectStart(counting);
    });
}

void TimedController::onCommandFinished(core::ProjectContext& ctx,
                                        const core::CommandResult& result) {
    ++probe_.finished[result.commandId];
    timed(result.commandId, [&] {
        CountingContext counting(ctx, probe_);
        inner_->onCommandFinished(counting, result);
    });
}

void TimedController::onCommandFailed(core::ProjectContext& ctx,
                                      const core::CommandSpec& spec) {
    ++probe_.commandFailures;
    timed(spec.id, [&] {
        CountingContext counting(ctx, probe_);
        inner_->onCommandFailed(counting, spec);
    });
}

bool TimedController::isDone(const core::ProjectContext& ctx) const {
    return inner_->isDone(ctx);
}

std::string
TimedController::statusReport(const core::ProjectContext& ctx) const {
    return inner_->statusReport(ctx);
}

void scheduleRecovery(core::Deployment& dep, core::Server& server,
                      double at, Probe& probe) {
    dep.loop().schedule(at, [&server, &probe] {
        const Metrics before = serverCounters(server);
        const double t0 = wallNow();
        {
            Tracer::Scope span(probe.tracer, "core.wal.recover");
            server.recoverFromWal();
        }
        probe.recoverSeconds.push_back(wallNow() - t0);
        const Metrics after = serverCounters(server);
        for (const auto& [k, v] : before)
            if (after.at(k) < v) probe.carried[k] += v - after.at(k);
        probe.maxStoreRam = std::max(
            probe.maxStoreRam, server.segmentStore().stats().ramBytesUsed);
    });
}

net::LinkProperties jittered(net::LinkProperties props, cop::Rng& rng) {
    props.latency *= rng.uniform(0.95, 1.05);
    return props;
}

void observeClaims(core::Deployment& dep, Probe& probe) {
    for (const auto& w : dep.workers())
        w->onAssignLatency(
            [&probe](double s) { probe.claimLatencies.push_back(s); });
}

bool runTimed(core::Deployment& dep, Probe& probe, EpisodeOutcome& out) {
    probe.runStart = wallNow();
    bool done = false;
    {
        Tracer::Scope span(probe.tracer, "run");
        done = dep.runUntilDone(1e12);
    }
    out.runSeconds = wallNow() - probe.runStart;
    out.simSeconds = dep.loop().now();
    // Workloads without a separate answer are answered when the last
    // result is in.
    if (!probe.answered) probe.answeredAt = out.runSeconds;
    check(out, done, "every project completed");

    return done;
}

void check(EpisodeOutcome& out, bool ok, const std::string& what) {
    if (ok) return;
    out.failures.push_back(what);
    ++out.failed;
}

namespace {

/// End-to-end metrics, and per-layer ones when traced, as they stand when
/// the run ends.
void readMetrics(core::Deployment& dep, const Probe& probe,
                 double trajectoryNs, EpisodeOutcome& out) {
    auto& overlay = dep.network();
    const auto total = overlay.totalStats();
    // Commands whose result reached the controller during the run.
    const double completed = double(probe.finished.size());

    out.endToEnd["setup_s"] = out.setupSeconds;
    out.endToEnd["ns_per_day"] =
        ratio(trajectoryNs, out.runSeconds) * 86400.0;
    out.endToEnd["time_to_prediction_s"] = probe.answeredAt;
    out.endToEnd["commands_per_s"] = ratio(completed, out.runSeconds);
    out.endToEnd["claim_p50_sim_s"] = percentile(probe.claimLatencies, 0.50);
    out.endToEnd["claim_p99_sim_s"] = percentile(probe.claimLatencies, 0.99);
    out.endToEnd["wire_bytes_per_command"] =
        ratio(double(total.bytes), completed);
    out.endToEnd["peak_rss_mb"] = peakRssMb();

    if (!probe.tracer->enabled()) return;

    // --- Per-layer read-out from the spans and public counters ----------
    const Tracer& tr = *probe.tracer;
    Metrics c = probe.carried;
    for (const auto& s : dep.servers()) {
        for (const auto& [k, v] : serverCounters(*s)) c[k] += v;
        addWire(c, s->metricsSnapshot().wire);
    }
    for (const auto& w : dep.workers()) addWire(c, w->wireStats());

    const int run = tr.find("run");
    const double runSpan =
        run >= 0 ? tr.spans()[std::size_t(run)].end -
                       tr.spans()[std::size_t(run)].start
                 : 0.0;
    auto& L = out.layers;
    const auto mdrun = tr.durations("mdlib.mdrun");
    L["mdlib.mdrun_calls"] = double(probe.mdrunCalls);
    L["mdlib.mdrun_busy_s"] = tr.busy("mdlib.mdrun");
    L["mdlib.mdrun_share"] = ratio(tr.busy("mdlib.mdrun"), runSpan);
    L["mdlib.mdrun_p50_ms"] = percentile(mdrun, 0.50) * 1e3;
    L["mdlib.mdrun_p90_ms"] = percentile(mdrun, 0.90) * 1e3;
    L["mdlib.us_per_step"] =
        ratio(tr.busy("mdlib.mdrun"), double(probe.mdrunSteps)) * 1e6;
    L["mdlib.checkpoint_bytes"] = median(probe.checkpointBytes);

    const auto gens = tr.durations("msm.generation");
    L["msm.generation_calls"] = double(gens.size());
    L["msm.generation_busy_s"] = tr.busy("msm.generation");
    L["msm.generation_max_s"] =
        gens.empty() ? 0.0 : *std::max_element(gens.begin(), gens.end());
    // GenerationRecord::msmStats, read by the MSM workload; zero elsewhere.
    for (const char* k : {"msm.cluster_s", "msm.assign_s", "msm.estimate_s",
                          "msm.rmsd_evals", "msm.rmsd_pruned_frac",
                          "msm.full_rebuilds"})
        L[k] = 0.0;

    L["core.controller.ingest_calls"] =
        double(tr.durations("core.controller.ingest").size());
    L["core.controller.ingest_busy_s"] = tr.busy("core.controller.ingest");

    L["core.scheduler.claims"] = c["scheduler.claims"];
    L["core.scheduler.scan_steps_per_claim"] =
        ratio(c["scheduler.scan_steps"], c["scheduler.claims"]);
    L["core.scheduler.requeues"] = c["scheduler.requeues"];
    L["core.scheduler.has_work_probes"] = c["scheduler.has_work_probes"];

    L["core.wire.envelopes"] = c["wire.sent"];
    L["core.wire.envelopes_per_frame"] =
        ratio(c["wire.batched"] + c["wire.singletons"],
              c["wire.batches"] + c["wire.singletons"]);
    L["core.wire.retransmit_frac"] =
        ratio(c["wire.retransmits"], c["wire.sent"]);
    L["core.wire.acks_piggybacked"] = c["wire.acks_piggybacked"];
    L["core.wire.deliveries_failed"] = c["wire.deliveries_failed"];
    L["core.wire.malformed_dropped"] = c["wire.malformed_dropped"];

    const auto& faults = overlay.faultStats();
    L["net.overlay.frames"] = double(total.messages);
    L["net.overlay.bytes"] = double(total.bytes);
    L["net.overlay.dead_letters"] = double(faults.deadLetters);
    L["net.overlay.faults_injected"] =
        double(faults.dropped + faults.duplicated + faults.delayed);

    const double loopSelf =
        run >= 0 ? tr.selfTimes()[std::size_t(run)] : 0.0;
    L["net.event_loop.self_s"] = loopSelf;
    L["net.event_loop.self_share"] = ratio(loopSelf, runSpan);

    L["core.wal.records"] = c["wal.records"];
    L["core.wal.bytes"] = c["wal.bytes"];
    L["core.wal.syncs"] = c["wal.syncs"];
    L["core.wal.records_per_sync"] =
        ratio(c["wal.records"], c["wal.syncs"]);
    L["core.wal.snapshots"] = c["wal.snapshots"];
    L["core.wal.replayed_records"] = c["wal.replayed"];
    L["core.wal.recover_ms"] = median(probe.recoverSeconds) * 1e3;

    L["core.store.puts"] = c["store.puts"];
    L["core.store.hit_frac"] = ratio(c["store.hits"], c["store.gets"]);
    L["core.store.spills"] = c["store.spills"];
    L["core.store.spill_ratio"] =
        ratio(c["store.spilled_raw"], c["store.spilled_compressed"]);
    L["core.store.ram_bytes_used"] = double(probe.maxStoreRam);
    double coldLive = 0.0;
    for (const auto& s : dep.servers())
        coldLive += double(s->segmentStore().stats().coldBytesLive);
    L["core.store.cold_bytes_live"] = coldLive;
}

} // namespace

void finishEpisode(core::Deployment& dep, Probe& probe, double trajectoryNs,
                   EpisodeOutcome& out) {
    readMetrics(dep, probe, trajectoryNs, out);

    // A project may declare itself done with commands outstanding (the MSM
    // study ends at its last clustering step while extensions are still
    // queued); the fleet keeps executing them, and each must still be
    // delivered exactly once.
    auto allFinished = [&probe] {
        for (const auto id : probe.submitted)
            if (probe.finished.count(id) == 0) return false;
        return true;
    };
    probe.draining = true;
    auto& loop = dep.loop();
    const double horizon = loop.now() + kDrainHorizonSimSeconds;
    while (!allFinished() && !loop.empty() && loop.now() < horizon)
        loop.run(1);
    probe.draining = false;

    // Exactly-once: every submitted command finished once, nothing else.
    std::uint64_t once = 0;
    for (const auto id : probe.submitted) {
        const auto it = probe.finished.find(id);
        if (it != probe.finished.end() && it->second == 1) ++once;
    }
    std::uint64_t stray = 0;
    for (const auto& [id, n] : probe.finished)
        if (probe.submitted.count(id) == 0) stray += std::uint64_t(n);
    out.attempted += probe.submitted.size();
    out.failed += probe.submitted.size() - once;
    if (stray != 0 || probe.commandFailures != 0)
        check(out, false, "no stray or failed completions");
    if (once != probe.submitted.size())
        out.failures.push_back("every submitted command completed once");
    check(out, probe.answeredAt >= 0.0, "answer reached");
}

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

double percentile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto idx = std::size_t(std::ceil(q * double(samples.size())));
    return samples[std::min(idx == 0 ? 0 : idx - 1, samples.size() - 1)];
}

double median(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double peakRssMb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) throw std::runtime_error("perfbench: no /proc/self");
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kb / 1024.0;
}

} // namespace perfbench
