#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.hpp"
#include "util/json.hpp"

namespace perfbench {

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpu_s()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

void
Ledger::fail(const std::string& why)
{
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

// --- Spans -------------------------------------------------------------

SpanRecorder&
spans()
{
    static SpanRecorder recorder;
    return recorder;
}

int
SpanRecorder::begin(const char* name)
{
    if (!enabled_)
        return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_s(), 0.0, open_.empty() ? -1 : open_.back(),
                      run_});
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].end_s = now_s();
    // Spans close in LIFO order (RAII scopes on one thread).
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

namespace {

std::string
layer_of(const char* name)
{
    std::string s(name);
    return s.substr(0, s.find('.'));
}

}  // namespace

std::vector<std::pair<std::string, double>>
SpanRecorder::self_time_by_layer() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        by_layer[layer_of(spans_[i].name)] +=
            spans_[i].end_s - spans_[i].start_s - child[i];
    return {by_layer.begin(), by_layer.end()};
}

bool
SpanRecorder::write_chrome(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const std::string layer = layer_of(s.name);
        std::fprintf(f,
                     "%s\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,"
                     "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,"
                     "\"parent\":%d,\"run\":%d}}",
                     i ? "," : "", hivemind::util::quote(s.name).c_str(),
                     hivemind::util::quote(layer).c_str(),
                     (s.start_s - t0) * 1e6, (s.end_s - s.start_s) * 1e6, i,
                     s.parent, s.run);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

}  // namespace perfbench
