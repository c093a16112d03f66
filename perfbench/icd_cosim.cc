/**
 * @file
 * Workload `icd-cosim`: the paper's flagship two-layer system
 * (examples/icd_demo.cpp) — the ICD kernel on the λ-layer, the
 * monitor on the MicroBlaze core, the default SystemConfig (µop tier,
 * 2000-cycle slices) — driving a ResponsiveHeart whose VT onset,
 * detection and ATP burst all fall inside one episode. One thread.
 * λ dispatch, the mblaze core and the system loop do nearly all the
 * work here, so a change to any of them shows.
 *
 * One op is a 5 ms tick. A tick passes when the pacing word it
 * carries equals icd::IcdSpec stepped over the samples the system
 * actually read, and was written before the next tick was due.
 */

#include <algorithm>
#include <cstdio>
#include <optional>

#include "fault/campaign.hh"
#include "fault/plan.hh"
#include "harness.hh"
#include "icd/baseline.hh"
#include "icd/params.hh"
#include "icd/spec.hh"
#include "icd/zarf_icd.hh"
#include "machine/loaded_image.hh"
#include "mblaze/cpu.hh"
#include "sem/io.hh"
#include "support/random.hh"
#include "system/system.hh"

namespace perfbench
{

using namespace zarf;

namespace
{

constexpr Cycles kWindowCycles = sys::kLambdaHz / 10; // 100 ms
constexpr double kTicksPerSimSecond =
    double(sys::kLambdaHz) / double(sys::kTickCycles);
/** Untimed warm-up slice at the start of every episode. */
constexpr Cycles kWarmupCycles = 2 * kWindowCycles;

/** The campaign's sinus flavor (fault/campaign.cc): its heart and
 *  fault window, for the silent-corruption self-test. */
constexpr uint64_t kCampaignSinusHeartSeed = 42;
constexpr fault::FaultWindow kCampaignSinusWindow{ 15'000'000,
                                                   75'000'000 };

/** Wraps the heart and records every sample the system reads. */
class RecordingHeart : public ecg::Heart
{
  public:
    explicit RecordingHeart(std::shared_ptr<ecg::Heart> h)
        : heart(std::move(h))
    {}
    SWord
    nextSample() override
    {
        SWord s = heart->nextSample();
        samples.push_back(s);
        return s;
    }
    void onShock(SWord v) override { heart->onShock(v); }
    const std::vector<uint64_t> &
    rPeaks() const override
    {
        return heart->rPeaks();
    }
    /** Deep copy, recorded prefix included. */
    RecordingHeart
    fork() const
    {
        RecordingHeart c(std::shared_ptr<ecg::Heart>(heart->clone()));
        c.samples = samples;
        return c;
    }
    std::shared_ptr<ecg::Heart> heart;
    std::vector<SWord> samples;
};

/** Replays the co-simulation's device schedule to the λ-machine
 *  alone: the timer fires on the machine's own clock exactly as
 *  TwoLayerSystem::timerRead does, the ECG port returns the recorded
 *  samples, pacing/comm writes go nowhere. */
class ReplayBus : public IoBus
{
  public:
    explicit ReplayBus(const std::vector<SWord> &samples)
        : samples(samples)
    {}
    SWord
    getInt(SWord port) override
    {
        if (port == sys::kPortEcgIn)
            return next < samples.size() ? samples[next++] : 0;
        if (port == sys::kPortTimer && machine->cycles() >= nextDue) {
            nextDue += sys::kTickCycles;
            return 1;
        }
        return 0;
    }
    void putInt(SWord, SWord) override {}
    const Machine *machine = nullptr;

  private:
    const std::vector<SWord> &samples;
    size_t next = 0;
    Cycles nextDue = sys::kTickCycles;
};

/** Check every tick in [fromTick, ...) whose pacing word has been
 *  written; returns the number checked and adds failures. */
uint64_t
checkTicks(const sys::TwoLayerSystem &system,
           const std::vector<SWord> &samples, uint64_t fromTick,
           uint64_t &failed)
{
    const auto &log = system.shocks();
    icd::IcdSpec spec;
    std::vector<SWord> want;
    want.reserve(samples.size());
    for (SWord s : samples)
        want.push_back(spec.step(s));
    // shock[0] is the kernel's initial lastOut (0); shock[k] carries
    // the output for sample k-1 and belongs in tick k's slot: after
    // tick k fired, before tick k+1 is due.
    uint64_t checked = 0, bad = 0;
    for (uint64_t k = std::max<uint64_t>(fromTick, 1); k < log.size();
         ++k) {
        ++checked;
        Cycles t = log[k].lambdaCycle;
        bool ok = k - 1 < want.size() && log[k].value == want[k - 1] &&
                  t >= (k + 1) * sys::kTickCycles &&
                  t < (k + 2) * sys::kTickCycles;
        bad += ok ? 0 : 1;
    }
    // One sample per tick (a tick's sample may still be in flight).
    uint64_t ticks = system.ticksConsumed();
    if (samples.size() != system.samplesRead() ||
        samples.size() > ticks || ticks > samples.size() + 1 ||
        (log.size() > 0 && log[0].value != 0))
        bad = std::max<uint64_t>(bad, 1);
    // System-level detectors: a miss or a restart fails at least one
    // op even when every written word happened to be right.
    if (system.deadlineMissed() || system.watchdogRestarts() > 0)
        bad = std::max<uint64_t>(bad, 1);
    failed += std::min(bad, std::max<uint64_t>(checked, 1));
    return std::max<uint64_t>(checked, bad ? 1 : 0);
}

class IcdCosim : public Workload
{
  public:
    explicit IcdCosim(const Args &a) : args(a)
    {
        // Found once, before set-up is timed (and forked).
        if (args.defect == Defect::SilentFault)
            silentPlan = silentCorruptionPlan();
    }

    void
    setup() override
    {
        // Inputs: the heart's rhythm, drawn from the seed. VT at
        // 180-200 bpm is always fast enough to detect (RR < 360 ms).
        Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 1);
        double onset = 1.0 + rng.real();
        double sinus = 60.0 + 30.0 * rng.real();
        double vt = 180.0 + 20.0 * rng.real();
        uint64_t heartSeed = rng.next();
        // Detection takes 6-8 s of VT, the burst and conversion ~2 s.
        endCycles = Cycles((onset + 11.0) * double(sys::kLambdaHz));
        endCycles = (endCycles / kWindowCycles + 1) * kWindowCycles;

        sys::SystemConfig cfg;
        std::shared_ptr<ecg::Heart> heart =
            std::make_shared<ecg::ResponsiveHeart>(onset, sinus, vt,
                                                   int(icd::kAtpPulses),
                                                   heartSeed);
        if (args.defect == Defect::SlowLambda) {
            // An iteration takes ~2.5k of its 250k-cycle budget; this
            // pushes it past the deadline without hanging the kernel.
            cfg.lambdaTiming.letBase = 1000;
            cfg.lambdaTiming.caseBase = 1000;
            cfg.lambdaTiming.whnfCheck = 1000;
        } else if (args.defect == Defect::SilentFault) {
            cfg.faultPlan = silentPlan;
            heart = std::make_shared<ecg::ScriptedHeart>(
                std::vector<ecg::ScriptedHeart::Segment>{
                    { 600.0, 75.0 } },
                kCampaignSinusHeartSeed);
            endCycles = 2 * sys::kLambdaHz;
            expectTherapy = false;
        }
        config = cfg;

        kernel = icd::buildKernelImage();
        li = LoadedImage::load(kernel);
        monitor = icd::monitorProgram();
        warmHeart.emplace(heart);
        warm.emplace(li, monitor, *warmHeart, config);
        warm->runUntil(kWarmupCycles);
        warmSnap = warm->snapshot();
    }

    void
    measure(Result &r) override
    {
        // The seed's episode, pass after pass from the warm snapshot.
        // The first pass always runs to the end and is the one checked
        // against the spec, so attempted and failed depend on the seed
        // alone; every later pass, the last one cut short at the
        // deadline included, must reproduce its pacing stream.
        std::vector<sys::ShockEvent> firstLog;
        uint64_t passes = 0, failed = 0, attempted = 0, mismatched = 0;
        double hostS = 0;
        Cycles simCycles = 0;
        std::vector<double> tickRates; // per 100 ms window
        Clock::time_point start = Clock::now();
        while (passes == 0 || secondsSince(start) < args.seconds) {
            Episode ep = startEpisode();
            Cycles from = ep.system->lambdaCycles();
            uint64_t fromTick = ep.system->shocks().size();
            while (ep.system->lambdaCycles() < endCycles &&
                   (passes == 0 || secondsSince(start) < args.seconds)) {
                Cycles target = std::min(
                    ep.system->lambdaCycles() + kWindowCycles, endCycles);
                Cycles c0 = ep.system->lambdaCycles();
                Clock::time_point t0 = Clock::now();
                ep.system->runUntil(target);
                double dt = secondsSince(t0);
                hostS += dt;
                tickRates.push_back(double(ep.system->lambdaCycles() - c0) /
                                    double(sys::kTickCycles) / dt);
            }
            simCycles += ep.system->lambdaCycles() - from;
            const std::vector<sys::ShockEvent> &log = ep.system->shocks();
            if (passes++ == 0) {
                attempted = checkTicks(*ep.system, ep.heart->samples,
                                       fromTick, failed);
                checkTherapy(*ep.heart, r);
                firstLog = log;
                continue;
            }
            for (size_t k = fromTick; k < log.size(); ++k) {
                if (k >= firstLog.size() ||
                    log[k].value != firstLog[k].value ||
                    log[k].lambdaCycle != firstLog[k].lambdaCycle)
                    ++mismatched;
            }
        }
        if (mismatched)
            reportFinding(args, std::to_string(mismatched) +
                                    " ticks of a repeated episode differ "
                                    "from its first pass");
        r.attempted = attempted;
        r.failed = std::min(attempted, failed + mismatched);
        double simS = double(simCycles) / double(sys::kLambdaHz);
        r.set("ops_per_s", simS * kTicksPerSimSecond / hostS, "1/s");
        r.show("window_rates", quantiles(tickRates));
        r.show("sim_s_per_host_s",
               fmtDouble(simS / hostS) + " simulated s per host s (" +
                   std::to_string(tickRates.size()) +
                   " 100 ms windows over " + std::to_string(passes) +
                   " passes)");
        r.show("ticks", std::to_string(attempted) +
                            " checked in the first pass");
        r.show("fail_frac", fmtDouble(attempted ? double(r.failed) /
                                                      double(attempted)
                                                : 0.0));
    }

    void
    traced(Result &r) override
    {
        // Four runs over the same simulated interval, advanced window
        // by window in lockstep so host drift hits all alike: the
        // co-simulation untraced and traced (their difference is the
        // tracing overhead), the λ-layer alone fed the samples the
        // co-simulation read, and the monitor alone, channel empty.
        Episode plain = startEpisode();
        Episode ep = startEpisode();
        Cycles from = ep.system->lambdaCycles();
        uint64_t fromTick = ep.system->shocks().size();

        ReplayBus bus(ep.heart->samples);
        MachineConfig mc;
        mc.semispaceWords = config.semispaceWords;
        mc.timing = config.lambdaTiming;
        mc.tier = config.lambdaTier;
        mc.gcOnExhaustion = true;
        Machine m(li, bus, mc);
        bus.machine = &m;
        while (m.cycles() < from)
            m.advance(config.sliceCycles);

        zarf::NullBus empty;
        mblaze::MbCpu cpu(monitor, empty);
        const Cycles mbSlice =
            config.sliceCycles * sys::kMbCyclesPerLambdaCycle;
        while (cpu.cycles() < from * sys::kMbCyclesPerLambdaCycle)
            cpu.advance(mbSlice);

        double plainS = 0, tracedS = 0, lambdaS = 0, mbS = 0;
        std::vector<double> lambdaNs, mbNs;
        uint64_t win = 0;
        while (ep.system->lambdaCycles() < endCycles) {
            Cycles target = std::min(ep.system->lambdaCycles() + kWindowCycles,
                                     endCycles);
            setRequest(++win);
            tracer().enabled = false;
            Clock::time_point t0 = Clock::now();
            plain.system->runUntil(target);
            plainS += secondsSince(t0);
            tracer().enabled = true;

            t0 = Clock::now();
            {
                ScopedSpan s("system.window");
                ep.system->runUntil(target);
            }
            tracedS += secondsSince(t0);

            Cycles c0 = m.cycles();
            t0 = Clock::now();
            {
                ScopedSpan s("machine.lambda_window");
                while (m.cycles() < target)
                    m.advance(config.sliceCycles);
            }
            double dt = secondsSince(t0);
            lambdaS += dt;
            lambdaNs.push_back(dt * 1e9 / double(m.cycles() - c0));

            Cycles mb0 = cpu.cycles();
            t0 = Clock::now();
            {
                ScopedSpan s("mblaze.window");
                while (cpu.cycles() < target * sys::kMbCyclesPerLambdaCycle)
                    cpu.advance(mbSlice);
            }
            dt = secondsSince(t0);
            mbS += dt;
            mbNs.push_back(dt * 1e9 / double(cpu.cycles() - mb0));
        }
        setRequest(0);

        uint64_t failed = 0;
        r.attempted = checkTicks(*ep.system, ep.heart->samples, fromTick,
                                 failed);
        r.failed = failed;
        checkTherapy(*ep.heart, r);
        if (plain.system->shocks().size() != ep.system->shocks().size())
            r.fail("traced and untraced co-simulations disagree");
        r.setRatio("bench.trace_overhead_frac", tracedS - plainS, plainS,
                   "s");
        r.setSpanTiming("system.window_ms", "system.window", 1e6, "ms");
        r.setTiming("machine.lambda_ns_per_cycle", lambdaNs, "ns");
        r.setTiming("mblaze.ns_per_cycle", mbNs, "ns");
        r.setRatio("system.loop_share", tracedS - lambdaS - mbS, tracedS,
                   "s");

        const sys::TwoLayerSystem &cs = *ep.system;
        MachineStats cst = cs.aggregatedLambdaStats();
        r.set("machine.lambda_cycles", double(cs.lambdaCycles()), "count");
        r.set("machine.dyn_instrs", double(cst.dynamicInstructions()),
              "count");
        r.set("machine.alloc_words", double(cst.allocatedWords), "count");
        r.set("machine.gc_runs", double(cst.gcRuns), "count");
        r.set("mblaze.cycles", double(cs.mbCycles()), "count");
        r.set("system.ticks", double(cs.ticksConsumed()), "count");
        r.set("system.max_iter_cycles", double(cs.maxIterationCycles()),
              "count");
        uint64_t pulses = 0;
        for (const auto &e : cs.shocks())
            pulses += e.value != icd::kOutNone;
        r.set("system.pacing_pulses", double(pulses), "count");

        const MachineStats &ms = m.stats();
        if (m.cycles() != cs.lambdaCycles() ||
            ms.dynamicInstructions() != cst.dynamicInstructions() ||
            ms.gcRuns != cst.gcRuns ||
            ms.allocatedWords != cst.allocatedWords)
            r.fail("λ-alone run did not reproduce the co-simulation's "
                   "cycle/instruction/GC counts (" +
                   std::to_string(m.cycles()) + "/" +
                   std::to_string(ms.dynamicInstructions()) + "/" +
                   std::to_string(ms.gcRuns) + " vs " +
                   std::to_string(cs.lambdaCycles()) + "/" +
                   std::to_string(cst.dynamicInstructions()) + "/" +
                   std::to_string(cst.gcRuns) + ")");

        // Collection of the kernel's live heap, in isolation.
        for (int i = 0; i < 200; ++i) {
            ScopedSpan s("machine.gc");
            m.collectNow();
        }
        r.setSpanTiming("machine.gc_us", "machine.gc", 1e3, "us");

        // Build and load, repeated for a distribution.
        for (int i = 0; i < 100; ++i) {
            ScopedSpan s("icd.build");
            Image k = icd::buildKernelImage();
            if (k != kernel)
                r.fail("icd::buildKernelImage is not deterministic");
        }
        for (int i = 0; i < 100; ++i) {
            ScopedSpan s("machine.load");
            LoadedImage::load(kernel);
        }
        r.setSpanTiming("icd.build_ms", "icd.build", 1e6, "ms");
        r.setSpanTiming("machine.load_ms", "machine.load", 1e6, "ms");
    }

  private:
    struct Episode
    {
        std::unique_ptr<RecordingHeart> heart;
        std::unique_ptr<sys::TwoLayerSystem> system;
    };

    /** A fresh episode at the end of the warm-up slice. */
    Episode
    startEpisode()
    {
        Episode ep;
        ep.heart = std::make_unique<RecordingHeart>(warmHeart->fork());
        ep.system = std::make_unique<sys::TwoLayerSystem>(
            li, monitor, *ep.heart, config);
        ep.system->restore(*warmSnap);
        return ep;
    }

    void
    checkTherapy(const RecordingHeart &h, Result &r)
    {
        if (!expectTherapy)
            return;
        auto *rh = dynamic_cast<const ecg::ResponsiveHeart *>(h.heart.get());
        if (!rh || rh->inVt() || rh->pulsesReceived() < icd::kAtpPulses)
            r.fail("episode ended without VT detection, ATP burst and "
                   "conversion");
    }

    /** A single-kind plan the fault campaign classifies as a silent
     *  corruption of the sinus flavor (unprotected memory). */
    fault::FaultPlan
    silentCorruptionPlan()
    {
        fault::CampaignConfig cc;
        // Scenarios 22..32 are sinus with protection off; the VT
        // flavor (11..21) is cut short, its window never opens.
        cc.scenarios = 33;
        cc.vtSeconds = 0.5;
        cc.seedBase = args.seed;
        cc.threads = args.tracedWorkers; // untimed
        fault::CampaignReport rep = fault::runCampaign(cc);
        for (const fault::ScenarioResult &s : rep.results) {
            if (s.outcome == fault::Outcome::SilentCorruption &&
                !s.vtFlavor && !s.protectedMemory) {
                fault::FaultPlan p = fault::singleKindPlan(
                    s.kind, s.seed, kCampaignSinusWindow, 1);
                p.heapEcc = false;
                p.operandParity = false;
                std::fprintf(stderr,
                             "perfbench: silent-fault plan: scenario %zu "
                             "(%s, seed %llu)\n",
                             s.index, fault::faultKindName(s.kind),
                             (unsigned long long)s.seed);
                return p;
            }
        }
        std::fprintf(stderr, "perfbench: no silent corruption found in "
                             "the campaign; running fault-free\n");
        return {};
    }

    Args args;
    fault::FaultPlan silentPlan;
    sys::SystemConfig config;
    Cycles endCycles = 0;
    bool expectTherapy = true;
    Image kernel;
    std::shared_ptr<const LoadedImage> li;
    mblaze::MbProgram monitor;
    /** The warm-up slice's heart and system; every episode forks
     *  from them. The heart outlives the system that reads it. */
    std::optional<RecordingHeart> warmHeart;
    std::optional<sys::TwoLayerSystem> warm;
    std::shared_ptr<const sys::SystemSnapshot> warmSnap;
};

} // namespace

std::unique_ptr<Workload>
makeIcdCosim(const Args &args)
{
    return std::make_unique<IcdCosim>(args);
}

} // namespace perfbench
