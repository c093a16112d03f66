/**
 * @file
 * Shared scaffolding of the repository benchmark: the run's
 * arguments and result, the in-memory span recorder of the traced
 * run, and the order statistics every per-layer timing is reported
 * with. See perfbench/README.md for the method.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Seeded defects the self-tests switch on (perfbench/test_checks.py).
 *  Each must make its workload report failed operations. */
enum class Defect
{
    None,
    PoisonedOperand, ///< machine: testhooks::poisonedOperandDefect.
    IrAllocCharge,   ///< ir: testhooks::irBrokenAllocCharge.
    SymMul,          ///< sym: testhooks::symBrokenMulTransfer.
    SlowLambda,      ///< icd-cosim: slowed SystemConfig::lambdaTiming.
    SilentFault,     ///< icd-cosim: a campaign-reported silent
                     ///< corruption plan applied to the co-sim.
    TinyBudget,      ///< fault-campaign: scenarioBudget too small.
};

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    /** Closed-loop clients of the timed loop: one for every
     *  workload (README, "Noise"). */
    unsigned workers = 1;
    /** The N the traced runs compare one worker against (pool
     *  scaling, and 1-vs-N agreement of the results). */
    unsigned tracedWorkers = 2;
    Defect defect = Defect::None;
    /** Report directory; failing inputs go to <outDir>/findings. */
    std::string outDir = ".bench_out";
};

/** One span: a timed call into a layer from the benchmark's code. */
struct Span
{
    const char *name;
    int64_t startNs;
    int64_t endNs;
    int32_t parent;  ///< Index of the enclosing span, -1 at top level.
    uint64_t request; ///< The operation the span served.
};

/**
 * In-memory span store. Spans are appended under a mutex (the
 * parallel phases record from worker threads) and written out once
 * when the run ends. Disabled, a ScopedSpan costs one branch.
 */
class Tracer
{
  public:
    bool enabled = false;

    int32_t open(const char *name, uint64_t request);
    void close(int32_t id);

    /** Durations (ns) of every closed span called `name`. */
    std::vector<double> durationsNs(const std::string &name) const;
    /** Sum of durations of spans called `name` (ns). */
    double totalNs(const std::string &name) const;

    const std::vector<Span> &spans() const { return all; }

  private:
    mutable std::mutex mu;
    std::vector<Span> all;
    Clock::time_point epoch = Clock::now();
};

Tracer &tracer();

/** The request id spans opened on this thread are attributed to. */
void setRequest(uint64_t request);

class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int32_t id = -1;
    int32_t saved = -1;
};

/** Median and the highest percentile with at least ten samples
 *  beyond it (0 when fewer than 20 samples leave none). */
struct Summary
{
    size_t n = 0;
    double median = 0;
    double tailPct = 0;
    double tail = 0;
};
Summary summarize(std::vector<double> samples);
/** Nearest-rank p-th percentile (0 for no samples). */
double percentile(std::vector<double> samples, double p);
/** "p10 a, p25 b, p50 c, p75 d, p90 e" of the samples. */
std::string quantiles(const std::vector<double> &samples);

/** The cores this thread may run on. */
std::vector<int> allowedCores();
/** Restrict thread `tid` (0: the calling thread) to `cores`. */
void pinThread(pid_t tid, const std::vector<int> &cores);

/**
 * While alive, moves the thread that made it to the next of the
 * cores it may run on every 100 ms, round robin; the destructor
 * restores the original mask. On a shared host each core is
 * contended on its own schedule, so a run that rotates samples every
 * core's state instead of being decided by the one it landed on.
 */
class CoreRotation
{
  public:
    CoreRotation();
    ~CoreRotation();
    CoreRotation(const CoreRotation &) = delete;
    CoreRotation &operator=(const CoreRotation &) = delete;

  private:
    pid_t tid;
    std::vector<int> cores;
    std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    std::thread rotor;
};

/** What a pass over a fixed pool of blocks produced. */
template <typename Out>
struct PoolRun
{
    std::vector<Out> first;  ///< Block outcomes of the first pass.
    std::vector<double> rates; ///< Ops per second, every block run.
    uint64_t ops = 0;        ///< Ops over every block run.
    size_t blocks = 0;       ///< Blocks run, repeats included.
    /** Repeats whose outcome differed from the block's first run,
     *  and the first-pass ops of those blocks. */
    size_t mismatchedBlocks = 0;
    uint64_t mismatchedOps = 0;
    double seconds = 0;
};

/**
 * The closed loop over a fixed pool of `poolSize` blocks drawn from
 * the seed: blocks 0, 1, ... poolSize-1, then again from 0, until
 * `seconds` have passed — and never before the whole pool has run
 * once, so what is checked is a function of the seed alone. `run(i)`
 * runs block i and returns {outcome, ops}; the outcome type has
 * operator== and a repeat must reproduce the first run exactly.
 */
template <typename Out, typename Fn>
PoolRun<Out>
cyclePool(size_t poolSize, double seconds, Fn &&run)
{
    PoolRun<Out> pr;
    pr.first.reserve(poolSize);
    std::vector<uint64_t> firstOps;
    Clock::time_point start = Clock::now();
    for (size_t b = 0; b < poolSize || secondsSince(start) < seconds; ++b) {
        size_t i = b % poolSize;
        Clock::time_point t0 = Clock::now();
        auto [out, ops] = run(i);
        pr.rates.push_back(double(ops) / secondsSince(t0));
        pr.ops += ops;
        ++pr.blocks;
        if (b < poolSize) {
            pr.first.push_back(std::move(out));
            firstOps.push_back(ops);
        } else if (!(out == pr.first[i])) {
            ++pr.mismatchedBlocks;
            pr.mismatchedOps += firstOps[i];
        }
    }
    pr.seconds = secondsSince(start);
    return pr;
}

/** One reported metric. For timings `summary` is set and `value` is
 *  the median; for ratios `base` (with `baseUnit`) is the
 *  denominator the ratio was taken over. */
struct Metric
{
    double value = 0;
    std::string unit;
    bool timing = false;
    Summary summary;
    bool ratio = false;
    double base = 0;
    std::string baseUnit;
};

struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> notes; ///< Why `correct` went false.
    std::map<std::string, Metric> metrics;
    /** Workload-specific figures for the human-readable block (the
     *  names the benchmark doc uses, e.g. sim_s_per_host_s). */
    std::vector<std::pair<std::string, std::string>> display;

    void
    fail(const std::string &why)
    {
        correct = false;
        notes.push_back(why);
    }
    void
    set(const std::string &name, double v, const std::string &unit)
    {
        Metric m;
        m.value = v;
        m.unit = unit;
        metrics[name] = m;
    }
    /** Timing from a sample vector (value = median). */
    void setTiming(const std::string &name,
                   const std::vector<double> &samples,
                   const std::string &unit);
    /** Timing from the spans called `span`, scaled by `div` ns. */
    void
    setSpanTiming(const std::string &name, const std::string &span,
                  double div, const std::string &unit)
    {
        std::vector<double> v = tracer().durationsNs(span);
        for (double &x : v)
            x /= div;
        setTiming(name, v, unit);
    }
    void setRatio(const std::string &name, double num, double den,
                  const std::string &baseUnit);
    void
    show(const std::string &k, const std::string &v)
    {
        display.emplace_back(k, v);
    }
};

/** Peak resident set of this process (ru_maxrss), MiB. */
double peakRssMib();

std::string fmtDouble(double v);

/**
 * A workload: set-up (timed as setup_s, before the timed region),
 * the untraced closed loop that gives the end-to-end metrics, and
 * the traced run that gives the per-layer metrics.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build everything the timed region needs and run an untimed
     *  warm-up slice. Called once per process. */
    virtual void setup() = 0;
    /** The end-to-end closed loop, for about args.seconds. */
    virtual void measure(Result &r) = 0;
    /** The traced run: per-layer metrics only. */
    virtual void traced(Result &r) = 0;
};

std::unique_ptr<Workload> makeIcdCosim(const Args &args);
std::unique_ptr<Workload> makeFaultCampaign(const Args &args);
std::unique_ptr<Workload> makeOracleFuzz(const Args &args);
std::unique_ptr<Workload> makeConcolic(const Args &args);

/** Report a failing input on stderr, with its image saved under
 *  <outDir>/findings when there is one. Thread-safe. */
void reportFinding(const Args &args, const std::string &what,
                   const std::vector<uint32_t> *image = nullptr);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
