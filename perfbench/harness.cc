#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "fuzz/corpus.hh"

namespace perfbench
{

namespace
{

thread_local int32_t currentSpan = -1;
thread_local uint64_t currentRequest = 0;

} // namespace

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

void
setRequest(uint64_t request)
{
    currentRequest = request;
}

int32_t
Tracer::open(const char *name, uint64_t request)
{
    int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch)
                      .count();
    std::lock_guard lk(mu);
    all.push_back({ name, now, -1, currentSpan, request });
    return int32_t(all.size() - 1);
}

void
Tracer::close(int32_t id)
{
    int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch)
                      .count();
    std::lock_guard lk(mu);
    all[size_t(id)].endNs = now;
}

std::vector<double>
Tracer::durationsNs(const std::string &name) const
{
    std::lock_guard lk(mu);
    std::vector<double> out;
    for (const Span &s : all) {
        if (s.endNs >= 0 && name == s.name)
            out.push_back(double(s.endNs - s.startNs));
    }
    return out;
}

double
Tracer::totalNs(const std::string &name) const
{
    double sum = 0;
    for (double d : durationsNs(name))
        sum += d;
    return sum;
}

ScopedSpan::ScopedSpan(const char *name)
{
    Tracer &t = tracer();
    if (!t.enabled)
        return;
    id = t.open(name, currentRequest);
    saved = currentSpan;
    currentSpan = id;
}

ScopedSpan::~ScopedSpan()
{
    if (id < 0)
        return;
    tracer().close(id);
    currentSpan = saved;
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    s.median = n % 2 ? samples[n / 2]
                     : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
    // Highest percentile on the ladder with at least ten samples
    // strictly beyond it (nearest-rank).
    for (double p : { 99.9, 99.0, 95.0, 90.0, 75.0, 50.0 }) {
        size_t rank = size_t(std::ceil(p / 100.0 * double(n)));
        if (rank >= 1 && n - rank >= 10) {
            s.tailPct = p;
            s.tail = samples[rank - 1];
            break;
        }
    }
    return s;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    size_t rank = size_t(std::ceil(p / 100.0 * double(samples.size())));
    return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

std::string
quantiles(const std::vector<double> &samples)
{
    std::string out;
    for (double p : { 10.0, 25.0, 50.0, 75.0, 90.0 }) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%sp%g %.6g", out.empty() ? "" : ", ",
                      p, percentile(samples, p));
        out += buf;
    }
    return out;
}

void
Result::setTiming(const std::string &name,
                  const std::vector<double> &samples,
                  const std::string &unit)
{
    Metric m;
    m.timing = true;
    m.summary = summarize(samples);
    m.value = m.summary.median;
    m.unit = unit;
    metrics[name] = m;
}

void
Result::setRatio(const std::string &name, double num, double den,
                 const std::string &baseUnit)
{
    Metric m;
    m.ratio = true;
    m.value = den != 0 ? num / den : 0;
    m.unit = "ratio";
    m.base = den;
    m.baseUnit = baseUnit;
    metrics[name] = m;
}

std::vector<int>
allowedCores()
{
    std::vector<int> cores;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return cores;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set))
            cores.push_back(c);
    }
    return cores;
}

void
pinThread(pid_t tid, const std::vector<int> &cores)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cores)
        CPU_SET(c, &set);
    sched_setaffinity(tid, sizeof(set), &set);
}

CoreRotation::CoreRotation() : tid(gettid()), cores(allowedCores())
{
    if (cores.size() < 2)
        return;
    rotor = std::thread([this] {
        std::unique_lock lk(mu);
        for (size_t step = 0; !stop; ++step) {
            pinThread(tid, { cores[step % cores.size()] });
            cv.wait_for(lk, std::chrono::milliseconds(100),
                        [this] { return stop; });
        }
    });
}

CoreRotation::~CoreRotation()
{
    if (!rotor.joinable())
        return;
    {
        std::lock_guard lk(mu);
        stop = true;
    }
    cv.notify_all();
    rotor.join();
    pinThread(tid, cores);
}

void
reportFinding(const Args &args, const std::string &what,
              const std::vector<uint32_t> *image)
{
    static std::mutex mu;
    std::lock_guard lk(mu);
    std::string saved;
    if (image)
        saved = zarf::fuzz::saveCorpusEntry(args.outDir + "/findings",
                                            *image);
    std::fprintf(stderr, "perfbench: %s failed op: %s%s%s\n",
                 args.workload.c_str(), what.c_str(),
                 saved.empty() ? "" : "; input saved to ", saved.c_str());
}

double
peakRssMib()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB.
}

std::string
fmtDouble(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace perfbench
