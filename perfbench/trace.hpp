#pragma once

/// \file trace.hpp
/// In-memory span recorder for the repo benchmark. Spans are opened by the
/// benchmark around its calls into each layer (the registered `mdrun`
/// handler, the project controller, scheduled WAL recoveries, the event
/// loop run), so the program under test is timed from outside. Nothing is
/// recorded while the tracer is disabled; spans are written out after the
/// run ends.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock since the first call in this process.
double wallNow();

struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;            ///< index into Tracer::spans(), -1 = root
    std::uint64_t request = 0;  ///< command id, 0 when not per command
};

class Tracer {
public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /// Opens a span; returns its index, or -1 when tracing is off.
    int begin(const char* name, std::uint64_t request = 0);
    void end(int id);
    /// Renames an open span (a controller call becomes an MSM generation
    /// once it is seen to have appended a GenerationRecord).
    void rename(int id, const char* name);

    const std::vector<Span>& spans() const { return spans_; }
    void clear();

    /// Total duration of spans named `name`.
    double busy(const std::string& name) const;
    /// Durations of spans named `name`, in recording order.
    std::vector<double> durations(const std::string& name) const;
    /// Per span: its duration minus the time its direct children cover.
    std::vector<double> selfTimes() const;
    /// Sum of the self times of the spans named `name` that descend from
    /// span `root`.
    double selfBusy(const std::string& name, int root) const;
    /// Index of the first span named `name`, -1 if none.
    int find(const std::string& name) const;

    /// Appends every span as one JSON object per line.
    void writeJsonl(const std::string& path, const std::string& episode) const;

    /// RAII span; a no-op when the tracer is null or disabled.
    class Scope {
    public:
        Scope(Tracer* tracer, const char* name, std::uint64_t request = 0)
            : tracer_(tracer),
              id_(tracer != nullptr ? tracer->begin(name, request) : -1) {}
        ~Scope() {
            if (id_ >= 0) tracer_->end(id_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        void rename(const char* name) {
            if (id_ >= 0) tracer_->rename(id_, name);
        }

    private:
        Tracer* tracer_;
        int id_;
    };

private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace perfbench
