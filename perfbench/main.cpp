/// The repo benchmark program (see README.md in this directory).
///
///   perfbench --workload villin_msm|fleet_tenancy|lj_durable --seed N
///             --seconds S --trace 0|1 --out DIR [--commit SHA]
///
/// Repeats one workload's episode (set up a deployment, run it to
/// completion, check its outputs) until S seconds have passed, and prints
/// the medians over episodes as one JSON line. Untraced runs first time a
/// few set-ups alone, for a steadier setup_s. With --trace 1 the episodes
/// alternate untraced and traced; the traced ones give the per-layer
/// numbers, and the run-phase wall of the two kinds gives the tracing
/// overhead.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "harness.hpp"
#include "mdlib/forcefield.hpp"
#include "mdlib/simd_dispatch.hpp"
#include "util/logging.hpp"

using namespace perfbench;

namespace {

/// Untraced runs time set-up alone before the episodes: at least
/// kMinSetups times and for at least kSetupSeconds, at most kMaxSetups
/// times.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 50;
constexpr double kSetupSeconds = 1.0;

struct Args {
    std::string workload;
    std::uint64_t seed = 2011;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    std::string commit = "unknown";
};

Args parseArgs(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value: " + key);
        const std::string val = argv[++i];
        if (key == "--workload") a.workload = val;
        else if (key == "--seed") a.seed = std::stoull(val);
        else if (key == "--seconds") a.seconds = std::stod(val);
        else if (key == "--trace") a.trace = val == "1";
        else if (key == "--out") a.out = val;
        else if (key == "--commit") a.commit = val;
        else throw std::invalid_argument("unknown argument: " + key);
    }
    if (a.out.empty()) throw std::invalid_argument("--out is required");
    return a;
}

std::string provenance(const Args& a) {
    // The ISA the default kernel flavour runs (the lj_durable path), and
    // what runtime dispatch would pick for SimdAuto on this host.
    cop::md::Topology top(2);
    top.finalize();
    const cop::md::ForceField ff(top, cop::md::Box::cubic(10.0),
                                 cop::md::ForceFieldParams{});
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"build_type\": \"%s\", \"simd_isa_default\": \"%s\", "
                  "\"simd_isa_detected\": \"%s\", \"nproc\": %u, "
                  "\"compiler\": \"%s\", \"commit\": \"%s\", "
                  "\"workload\": \"%s\", \"seed\": %llu}",
                  PERFBENCH_BUILD_TYPE,
                  cop::md::simdIsaName(ff.activeSimdIsa()),
                  cop::md::simdIsaName(cop::md::detectSimdIsa()),
                  std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                  a.commit.c_str(), a.workload.c_str(),
                  (unsigned long long)a.seed);
    return buf;
}

void printShares(const Tracer& tr, std::size_t episode) {
    const int run = tr.find("run");
    if (run < 0) return;
    const Span& r = tr.spans()[std::size_t(run)];
    const double span = r.end - r.start;
    const char* layers[] = {"mdlib.mdrun", "msm.generation",
                            "core.controller.ingest", "core.wal.recover"};
    const double loopSelf = tr.selfTimes()[std::size_t(run)];
    double sum = loopSelf;
    std::printf("self-time shares, episode %zu: run span %.4f s;", episode,
                span);
    for (const char* l : layers) {
        const double b = tr.selfBusy(l, run);
        sum += b;
        std::printf(" %s %.2f%%;", l, 100.0 * b / span);
    }
    std::printf(" net.event_loop.self %.2f%%; sum %.4f%%\n",
                100.0 * loopSelf / span, 100.0 * sum / span);
}

} // namespace

int main(int argc, char** argv) {
    try {
        const Args args = parseArgs(argc, argv);
        if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
            std::fprintf(stderr,
                         "perfbench: refusing a '%s' build; benchmark "
                         "numbers need a Release build\n",
                         PERFBENCH_BUILD_TYPE);
            return 2;
        }
        std::function<EpisodeOutcome(const EpisodeContext&)> episodeFn;
        if (args.workload == "villin_msm") episodeFn = runVillinMsm;
        else if (args.workload == "fleet_tenancy") episodeFn = runFleetTenancy;
        else if (args.workload == "lj_durable") episodeFn = runLjDurable;
        else throw std::invalid_argument("unknown workload: " + args.workload);

        cop::Logger::instance().setLevel(cop::LogLevel::Warn);
        std::filesystem::create_directories(args.out);
        const std::string tracePath = args.out + "/spans-" + args.workload +
                                      "-seed" + std::to_string(args.seed) +
                                      ".jsonl";
        std::filesystem::remove(tracePath);
        std::printf("provenance: %s\n", provenance(args).c_str());

        Tracer tracer;
        EpisodeContext ctx;
        ctx.seed = args.seed;
        ctx.tracer = &tracer;
        ctx.workDir = args.out + "/work-" + args.workload + "-" +
                      std::to_string(::getpid());

        // setup_s is the median over these set-ups and every episode's, so
        // one slow set-up does not move it.
        const double start = wallNow();
        std::vector<double> setups;
        if (!args.trace) {
            ctx.setupOnly = true;
            while (setups.size() < std::size_t(kMaxSetups) &&
                   (setups.size() < std::size_t(kMinSetups) ||
                    wallNow() - start < kSetupSeconds))
                setups.push_back(episodeFn(ctx).setupSeconds);
            ctx.setupOnly = false;
            std::printf("set-up alone: %zu times, median %.6f s\n",
                        setups.size(), median(setups));
        }

        std::vector<EpisodeOutcome> plain, traced;
        std::vector<double> episodeWall;
        std::uint64_t attempted = 0, failed = 0;
        std::uint64_t digest = 0;
        bool digestStable = true;
        const std::size_t minEpisodes = args.trace ? 2 : 1;
        for (std::size_t i = 0;; ++i) {
            const bool traceThis = args.trace && i % 2 == 1;
            tracer.clear();
            tracer.setEnabled(traceThis);
            const double e0 = wallNow();
            EpisodeOutcome o = episodeFn(ctx);
            episodeWall.push_back(wallNow() - e0);
            tracer.setEnabled(false);

            attempted += o.attempted;
            failed += o.failed;
            if (i == 0) digest = o.digest;
            digestStable = digestStable && o.digest == digest;
            std::printf("episode %zu: traced=%d setup_s=%.4f run_s=%.4f sim_s=%.3f "
                        "attempted=%llu failed=%llu digest=%016llx\n",
                        i, int(traceThis), o.setupSeconds, o.runSeconds, o.simSeconds,
                        (unsigned long long)o.attempted,
                        (unsigned long long)o.failed,
                        (unsigned long long)o.digest);
            for (const auto& f : o.failures)
                std::printf("  check failed: %s\n", f.c_str());
            if (traceThis) {
                printShares(tracer, i);
                tracer.writeJsonl(tracePath, args.workload + "#" +
                                                 std::to_string(i));
                traced.push_back(std::move(o));
            } else {
                plain.push_back(std::move(o));
            }
            const double elapsed = wallNow() - start;
            if (i + 1 >= minEpisodes &&
                elapsed + median(episodeWall) > args.seconds)
                break;
        }
        if (!digestStable) {
            std::printf("  check failed: digest differs between repeats\n");
            ++failed;
        }
        std::printf("digest: %016llx\n", (unsigned long long)digest);

        // Medians over episodes.
        Metrics metrics;
        auto medianOf = [](const std::vector<EpisodeOutcome>& eps,
                           bool layers) {
            std::map<std::string, std::vector<double>> samples;
            for (const auto& e : eps)
                for (const auto& [k, v] : layers ? e.layers : e.endToEnd)
                    samples[k].push_back(v);
            Metrics m;
            for (auto& [k, v] : samples) m[k] = median(v);
            return m;
        };
        if (args.trace) {
            metrics = medianOf(traced, true);
            // Each traced episode against the untraced one just before it,
            // so slow drift in the host's speed cancels.
            std::vector<double> ratios;
            for (std::size_t k = 0; k < traced.size(); ++k)
                ratios.push_back(traced[k].runSeconds / plain[k].runSeconds);
            metrics["trace.overhead_frac"] = median(ratios) - 1.0;
            std::printf("trace.overhead_frac: %.6f (median over %zu "
                        "traced/untraced episode pairs of run-phase wall)\n",
                        metrics["trace.overhead_frac"], ratios.size());
        } else {
            metrics = medianOf(plain, false);
            for (const auto& e : plain) setups.push_back(e.setupSeconds);
            metrics["setup_s"] = median(setups);
        }

        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": {",
                    failed == 0 ? "true" : "false",
                    (unsigned long long)attempted,
                    (unsigned long long)failed);
        bool first = true;
        for (const auto& [k, v] : metrics) {
            std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
            first = false;
        }
        std::printf("}}\n");
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
