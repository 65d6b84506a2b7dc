#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double wallNow() {
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

int Tracer::begin(const char* name, std::uint64_t request) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.start = wallNow();
    spans_.push_back(s);
    open_.push_back(int(spans_.size()) - 1);
    return open_.back();
}

void Tracer::end(int id) {
    spans_[std::size_t(id)].end = wallNow();
    // Spans nest strictly (single-threaded event loop), so the span being
    // closed is the innermost open one.
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("perfbench: spans closed out of order");
    open_.pop_back();
}

void Tracer::rename(int id, const char* name) {
    spans_[std::size_t(id)].name = name;
}

void Tracer::clear() {
    spans_.clear();
    open_.clear();
}

double Tracer::busy(const std::string& name) const {
    double total = 0.0;
    for (const auto& s : spans_)
        if (name == s.name) total += s.end - s.start;
    return total;
}

std::vector<double> Tracer::durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_)
        if (name == s.name) out.push_back(s.end - s.start);
    return out;
}

std::vector<double> Tracer::selfTimes() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    // Children of one parent never overlap (one thread), so the time they
    // cover is the sum of their durations.
    for (const auto& s : spans_)
        if (s.parent >= 0) self[std::size_t(s.parent)] -= s.end - s.start;
    return self;
}

double Tracer::selfBusy(const std::string& name, int root) const {
    const auto self = selfTimes();
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (name != spans_[i].name) continue;
        int p = spans_[i].parent;
        while (p >= 0 && p != root) p = spans_[std::size_t(p)].parent;
        if (p == root) total += self[i];
    }
    return total;
}

int Tracer::find(const std::string& name) const {
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (name == spans_[i].name) return int(i);
    return -1;
}

void Tracer::writeJsonl(const std::string& path,
                        const std::string& episode) const {
    std::FILE* f = std::fopen(path.c_str(), "a");
    if (f == nullptr)
        throw std::runtime_error("perfbench: cannot write " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"episode\":\"%s\",\"id\":%zu,\"name\":\"%s\","
                     "\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                     "\"request\":%llu}\n",
                     episode.c_str(), i, s.name, s.start, s.end, s.parent,
                     (unsigned long long)s.request);
    }
    std::fclose(f);
}

} // namespace perfbench
