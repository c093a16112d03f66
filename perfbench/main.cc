/**
 * @file
 * The repository benchmark's driver binary (run it through
 * perfbench/run.py, which builds it first):
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--commit C] [--out DIR] [--defect D]
 *
 * --trace 0 measures the end-to-end metrics with tracing off;
 * --trace 1 is the separate traced run giving the per-layer
 * metrics. The last stdout line is the result JSON; the same result
 * plus the host fingerprint and, when traced, every span goes to
 * DIR/<workload>-seed<N>-trace<T>.json. --defect switches on a
 * seeded defect for the self-tests (perfbench/test_checks.py).
 */

#include <malloc.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.hh"

// The one sanitizer probe of the benchmark: timing an instrumented
// build measures the sanitizer, not the code.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ZARF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ZARF_SANITIZED 1
#endif
#endif
#ifndef ZARF_SANITIZED
#define ZARF_SANITIZED 0
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace
{

/** Set-up runs at least kSetupRuns times per untraced run (forked
 *  children plus the measuring process), and more while the forked
 *  ones have taken under kSetupSeconds, up to kMaxSetupRuns; setup_s
 *  is their median. Cheap set-ups are the noisiest. */
constexpr int kSetupRuns = 5;
constexpr int kMaxSetupRuns = 15;
constexpr double kSetupSeconds = 2.0;

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return unsigned(CPU_COUNT(&set));
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t c = line.find(':');
            if (c != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", c + 1));
        }
    }
    return "unknown";
}

std::string
jsonStr(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (uint8_t(c) < 0x20) {
            char b[8];
            std::snprintf(b, sizeof(b), "\\u%04x", unsigned(c));
            o += b;
        } else {
            o += c;
        }
    }
    return o + "\"";
}

bool
parseDefect(const std::string &s, Defect &d)
{
    static const std::pair<const char *, Defect> names[] = {
        { "none", Defect::None },
        { "poisoned-operand", Defect::PoisonedOperand },
        { "ir-alloc-charge", Defect::IrAllocCharge },
        { "sym-mul", Defect::SymMul },
        { "slow-lambda", Defect::SlowLambda },
        { "silent-fault", Defect::SilentFault },
        { "tiny-budget", Defect::TinyBudget },
    };
    for (const auto &[n, v] : names) {
        if (s == n) {
            d = v;
            return true;
        }
    }
    return false;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "icd-cosim|fault-campaign|oracle-fuzz|concolic "
                 "--seed N --seconds S --trace 0|1 [--commit C] "
                 "[--out DIR] [--defect NAME]\n",
                 why);
    return 2;
}

std::unique_ptr<Workload>
makeWorkload(const Args &args)
{
    if (args.workload == "icd-cosim")
        return makeIcdCosim(args);
    if (args.workload == "fault-campaign")
        return makeFaultCampaign(args);
    if (args.workload == "oracle-fuzz")
        return makeOracleFuzz(args);
    return makeConcolic(args);
}

/** Time one set-up of the not-yet-set-up `w` in a forked child (no
 *  thread exists yet in this process, so the fork is safe); negative
 *  on failure. */
double
forkedSetup(Workload &w)
{
    int fd[2];
    if (pipe(fd) != 0)
        return -1;
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid < 0) {
        close(fd[0]);
        close(fd[1]);
        return -1;
    }
    if (pid == 0) {
        close(fd[0]);
        Clock::time_point t0 = Clock::now();
        w.setup();
        double s = secondsSince(t0);
        ssize_t n = write(fd[1], &s, sizeof(s));
        _exit(n == ssize_t(sizeof(s)) ? 0 : 1);
    }
    close(fd[1]);
    double s = -1;
    ssize_t n = read(fd[0], &s, sizeof(s));
    close(fd[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (n != ssize_t(sizeof(s)) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return -1;
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string commit = "unknown";
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            args.workload = v;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = end && *end == '\0' && !v.empty();
        } else if (a == "--seconds") {
            args.seconds = std::strtod(v.c_str(), &end);
            haveSeconds = end && *end == '\0' && args.seconds > 0 &&
                          args.seconds <= 120;
        } else if (a == "--trace") {
            haveTrace = v == "0" || v == "1";
            args.trace = v == "1";
        } else if (a == "--commit") {
            commit = v;
        } else if (a == "--out") {
            args.outDir = v;
        } else if (a == "--defect") {
            if (!parseDefect(v, args.defect))
                return usage(("unknown defect " + v).c_str());
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage("--seed, --seconds (0 < S <= 120) and --trace "
                     "are required");
    if (args.workload != "icd-cosim" &&
        args.workload != "fault-campaign" &&
        args.workload != "oracle-fuzz" && args.workload != "concolic")
        return usage("unknown workload");

#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing to time an unoptimised "
                         "build\n");
    return 3;
#endif
    if (ZARF_SANITIZED) {
        std::fprintf(stderr, "perfbench: refusing to time a sanitizer "
                             "build\n");
        return 3;
    }

    // A traced run compares one worker against tracedWorkers; fewer
    // cores than that are refused rather than oversubscribed.
    unsigned cpus = hostCpus();
    unsigned need = args.trace ? args.tracedWorkers : args.workers;
    if (need > cpus) {
        std::fprintf(stderr,
                     "perfbench: %u workers need %u cores, host has "
                     "%u\n",
                     need, need, cpus);
        return 3;
    }

    // glibc raises its mmap threshold the first time it frees a large
    // mmapped block, and from then on serves the machines' semispaces
    // from its arenas instead of fresh zero pages: construction gets
    // ~2.5x cheaper at a content-dependent moment (one run measured
    // 2.2k and 7.3k execs/s on either side of it). Pin the thresholds
    // at the dynamic maximum so every run measures the steady state a
    // long-running process reaches.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);

    std::unique_ptr<Workload> w = makeWorkload(args);

    Result r;
    std::vector<double> setups;
    if (!args.trace) {
        // Each forked set-up on the next core, as the timed loop below
        // rotates over them.
        std::vector<int> cores = allowedCores();
        Clock::time_point t0 = Clock::now();
        for (int k = 1; k < kMaxSetupRuns &&
                        (k < kSetupRuns || secondsSince(t0) < kSetupSeconds);
             ++k) {
            if (!cores.empty())
                pinThread(0, { cores[size_t(k) % cores.size()] });
            double s = forkedSetup(*w);
            if (!cores.empty())
                pinThread(0, cores);
            if (s < 0) {
                std::fprintf(stderr, "perfbench: forked set-up failed\n");
                return 4;
            }
            setups.push_back(s);
        }
    }
    Clock::time_point t0 = Clock::now();
    w->setup();
    setups.push_back(secondsSince(t0));

    if (args.trace) {
        tracer().enabled = true;
        w->traced(r);
        tracer().enabled = false;
    } else {
        CoreRotation rotation;
        w->measure(r);
        r.set("setup_s", summarize(setups).median, "s");
        // Shown, not a metric: the peak follows the rare candidate that
        // allocates most, so it is bimodal across seeds.
        r.show("peak_rss_mib", fmtDouble(peakRssMib()) + " MiB");
    }

    // Human-readable block, then the fingerprint, then the result.
    std::string fp =
        "{\"compiler\": " +
        jsonStr(std::string(
#if defined(__clang__)
            "clang "
#elif defined(__GNUC__)
            "gcc "
#endif
            __VERSION__)) +
        ", \"build_type\": " + jsonStr(PERFBENCH_BUILD_TYPE) +
        ", \"cpu\": " + jsonStr(cpuModel()) +
        ", \"nproc\": " + std::to_string(cpus) +
        ", \"workers\": " + std::to_string(args.workers) +
        ", \"traced_workers\": " + std::to_string(args.tracedWorkers) +
        ", \"seed\": " + std::to_string(args.seed) +
        ", \"seconds\": " + fmtDouble(args.seconds) +
        ", \"commit\": " + jsonStr(commit) + "}";

    std::printf("workload %s seed %llu workers %u trace %d\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                args.workers, int(args.trace));
    for (const auto &[k, v] : r.display)
        std::printf("  %-28s %s\n", k.c_str(), v.c_str());
    for (const auto &[name, m] : r.metrics) {
        if (m.timing)
            std::printf("  %-28s median %s %s, p%g %s, n=%zu\n",
                        name.c_str(), fmtDouble(m.value).c_str(),
                        m.unit.c_str(), m.summary.tailPct,
                        fmtDouble(m.summary.tail).c_str(),
                        m.summary.n);
        else if (m.ratio)
            std::printf("  %-28s %s (base %s %s)\n", name.c_str(),
                        fmtDouble(m.value).c_str(),
                        fmtDouble(m.base).c_str(), m.baseUnit.c_str());
        else
            std::printf("  %-28s %s %s\n", name.c_str(),
                        fmtDouble(m.value).c_str(), m.unit.c_str());
    }
    for (const std::string &n : r.notes)
        std::printf("  CHECK FAILED: %s\n", n.c_str());
    std::printf("fingerprint %s\n", fp.c_str());

    // Result: every metric by name; a timing adds its tail and sample
    // count, a ratio its base.
    std::string metrics;
    auto add = [&](const std::string &name, double v,
                   const std::string &unit) {
        if (!metrics.empty())
            metrics += ", ";
        metrics += jsonStr(name) + ": {\"value\": " + fmtDouble(v) +
                   ", \"unit\": " + jsonStr(unit) + "}";
    };
    for (const auto &[name, m] : r.metrics) {
        add(name, m.value, m.unit);
        if (m.timing) {
            add(name + ".tail", m.summary.tail, m.unit);
            add(name + ".n", double(m.summary.n), "count");
        }
        if (m.ratio)
            add(name + ".base", m.base, m.baseUnit);
    }
    std::string result =
        std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(r.attempted) +
        ", \"failed\": " + std::to_string(r.failed) +
        ", \"metrics\": {" + metrics + "}}";

    std::error_code ec;
    std::filesystem::create_directories(args.outDir, ec);
    std::string path = args.outDir + "/" + args.workload + "-seed" +
                       std::to_string(args.seed) + "-trace" +
                       std::to_string(int(args.trace)) + ".json";
    if (FILE *f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "{\"fingerprint\": %s,\n \"result\": %s,\n",
                     fp.c_str(), result.c_str());
        std::fprintf(f, " \"tails\": {");
        bool first = true;
        for (const auto &[name, m] : r.metrics) {
            if (!m.timing)
                continue;
            std::fprintf(f, "%s\n  %s: {\"n\": %zu, \"median\": %s, "
                            "\"pct\": %g, \"tail\": %s}",
                         first ? "" : ",", jsonStr(name).c_str(),
                         m.summary.n, fmtDouble(m.summary.median).c_str(),
                         m.summary.tailPct,
                         fmtDouble(m.summary.tail).c_str());
            first = false;
        }
        std::fprintf(f, "},\n \"spans\": [");
        const std::vector<Span> &spans = tracer().spans();
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(f,
                         "%s\n  {\"id\": %zu, \"name\": \"%s\", "
                         "\"start_ns\": %lld, \"end_ns\": %lld, "
                         "\"parent\": %d, \"request\": %llu}",
                         i ? "," : "", i, s.name, (long long)s.startNs,
                         (long long)s.endNs, s.parent,
                         (unsigned long long)s.request);
        }
        std::fprintf(f, "]}\n");
        std::fclose(f);
        std::printf("report %s\n", path.c_str());
    } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }

    std::printf("%s\n", result.c_str());
    return 0;
}
