#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace cdvm::perfbench
{

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

SpanLog::Scope::Scope(SpanLog *l, const char *name, int vm,
                      int program)
    : log(l)
{
    if (log)
        id = log->open(name, vm, program);
}

SpanLog::Scope::~Scope()
{
    if (log)
        log->close(id, work);
}

int
SpanLog::open(const char *name, int vm, int program)
{
    Span s;
    s.name = name;
    s.parent = openStack.empty() ? -1 : openStack.back();
    // Children inherit the VM and program of the span that caused them.
    if (s.parent >= 0) {
        const Span &p = all[static_cast<std::size_t>(s.parent)];
        s.vm = vm >= 0 ? vm : p.vm;
        s.program = program >= 0 ? program : p.program;
    } else {
        s.vm = vm;
        s.program = program;
    }
    s.startNs = nowNs();
    all.push_back(s);
    const int id = static_cast<int>(all.size() - 1);
    openStack.push_back(id);
    return id;
}

void
SpanLog::close(int id, u64 work)
{
    Span &s = all[static_cast<std::size_t>(id)];
    s.endNs = nowNs();
    s.work = work;
    if (!openStack.empty() && openStack.back() == id)
        openStack.pop_back();
}

bool
SpanLog::write(const std::string &path,
               const std::string &extra_json) const
{
    // Self time: a span's duration minus the union of its children's
    // intervals (children of one parent never overlap here, but the
    // union keeps the definition exact if they ever do).
    std::vector<std::vector<std::pair<u64, u64>>> kids(all.size());
    for (const Span &s : all)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].push_back(
                {s.startNs, s.endNs});
    std::vector<u64> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        u64 covered = 0, curLo = 0, curHi = 0;
        bool have = false;
        for (auto [lo, hi] : iv) {
            if (have && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (have)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            have = true;
        }
        if (have)
            covered += curHi - curLo;
        const u64 dur = all[i].endNs - all[i].startNs;
        self[i] = dur > covered ? dur - covered : 0;
    }

    struct Total
    {
        u64 count = 0;
        u64 totalNs = 0;
        u64 selfNs = 0;
        u64 work = 0;
    };
    std::map<std::string, Total> byName;
    for (std::size_t i = 0; i < all.size(); ++i) {
        Total &t = byName[all[i].name];
        ++t.count;
        t.totalNs += all[i].endNs - all[i].startNs;
        t.selfNs += self[i];
        t.work += all[i].work;
    }

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const u64 base = all.empty() ? 0 : all.front().startNs;
    std::fprintf(f, "{\n\"summary\": {");
    if (!extra_json.empty())
        std::fprintf(f, "%s,", extra_json.c_str());
    std::fprintf(f, "\n \"layers\": {");
    bool first = true;
    for (const auto &[name, t] : byName) {
        std::fprintf(f,
                     "%s\n  \"%s\": {\"count\": %llu, \"total_ms\": "
                     "%.6f, \"self_ms\": %.6f, \"work\": %llu}",
                     first ? "" : ",", name.c_str(),
                     static_cast<unsigned long long>(t.count),
                     static_cast<double>(t.totalNs) / 1e6,
                     static_cast<double>(t.selfNs) / 1e6,
                     static_cast<unsigned long long>(t.work));
        first = false;
    }
    std::fprintf(f, "}},\n\"spans\": [");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_ns\": "
                     "%llu, \"end_ns\": %llu, \"self_ns\": %llu, "
                     "\"parent\": %d, \"vm\": %d, \"program\": %d, "
                     "\"work\": %llu}",
                     i ? "," : "", i, s.name,
                     static_cast<unsigned long long>(s.startNs - base),
                     static_cast<unsigned long long>(s.endNs - base),
                     static_cast<unsigned long long>(self[i]), s.parent,
                     s.vm, s.program,
                     static_cast<unsigned long long>(s.work));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace cdvm::perfbench
