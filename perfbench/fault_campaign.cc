/**
 * @file
 * Workload `fault-campaign`: fault::runCampaign with the Fork
 * strategy over the scenario prefix that covers all 11 fault kinds
 * (indices 0..10: every kind, sinus rhythm, protected memory), over
 * a pool of campaigns whose seed bases are drawn from the run's
 * seed, cycled for the whole run on one client. It uses the
 * co-simulation layers differently from `icd-cosim`:
 * many short runs forked from a warm snapshot, faults applied,
 * watchdog restarts. A change that helps steady-state co-simulation
 * but hurts restore or recovery shows here; pool scaling shows in the
 * traced run.
 *
 * One op is a scenario. It fails when it is a protected-memory
 * silent corruption or ends BudgetExceeded.
 */

#include "ecg/synth.hh"
#include "fault/campaign.hh"
#include "harness.hh"
#include "icd/baseline.hh"
#include "icd/zarf_icd.hh"
#include "machine/loaded_image.hh"
#include "system/system.hh"
#include "verify/parallel.hh"

namespace perfbench
{

using namespace zarf;

namespace
{

/** The prefix of the scenario space holding each fault kind once. */
constexpr size_t kScenarios = fault::kNumFaultKinds;
/** Campaigns in the timed loop's pool (seed bases drawn from the
 *  run's seed). */
constexpr size_t kPoolCampaigns = 2;

/** A campaign's report, as a repeat must reproduce it, and its
 *  failed scenarios. */
struct Campaign
{
    std::string json;
    uint64_t failed = 0;
    bool
    operator==(const Campaign &o) const
    {
        return json == o.json;
    }
};

/** The campaign's VT flavor (fault/campaign.cc): heart and the start
 *  of its fault window, where system.restore_us is taken. */
constexpr uint64_t kCampaignVtHeartSeed = 5;
constexpr Cycles kCampaignVtWindowBegin = 75'000'000;

class FaultCampaign : public Workload
{
  public:
    explicit FaultCampaign(const Args &a) : args(a) {}

    void
    setup() override
    {
        // Fill the process-wide golden cache; a zero-scenario campaign
        // runs exactly the golden (the untimed warm-up slice of the
        // co-simulation).
        fault::runCampaign(config(0, 0));
    }

    void
    measure(Result &r) override
    {
        // A pool of kPoolCampaigns campaigns, cycled; a repeat must
        // reproduce its first run's report byte for byte.
        std::vector<bool> ran(kPoolCampaigns, false);
        PoolRun<Campaign> pr = cyclePool<Campaign>(
            kPoolCampaigns, args.seconds, [&](size_t round) {
                fault::CampaignReport rep =
                    fault::runCampaign(config(round, args.workers));
                Campaign c{ rep.toJson(), failures(rep, !ran[round]) };
                ran[round] = true;
                return std::pair(std::move(c),
                                 uint64_t(rep.results.size()));
            });
        uint64_t failed = 0;
        for (const Campaign &c : pr.first)
            failed += c.failed;
        if (pr.mismatchedBlocks)
            reportFinding(args, std::to_string(pr.mismatchedBlocks) +
                                    " repeated campaigns differ from "
                                    "their first run");
        r.attempted = kPoolCampaigns * kScenarios;
        r.failed = std::min(r.attempted, failed + pr.mismatchedOps);
        double rate = double(pr.ops) / pr.seconds;
        r.set("ops_per_s", rate, "1/s");
        r.show("block_rates", quantiles(pr.rates));
        r.show("scenarios_per_s", fmtDouble(rate) + " scenarios/s (" +
                                      std::to_string(pr.blocks) +
                                      " campaigns)");
        r.show("fail_frac",
               fmtDouble(double(r.failed) / double(r.attempted)));
    }

    void
    traced(Result &r) override
    {
        // tracedWorkers untraced, then traced, then one worker on the
        // same seed base: overhead, determinism and pool scaling.
        tracer().enabled = false;
        Clock::time_point t0 = Clock::now();
        fault::CampaignReport plain =
            fault::runCampaign(config(0, args.tracedWorkers));
        double plainS = secondsSince(t0);

        tracer().enabled = true;
        setRequest(1);
        t0 = Clock::now();
        fault::CampaignReport rep;
        {
            ScopedSpan s("fault.campaign");
            rep = fault::runCampaign(config(0, args.tracedWorkers));
        }
        double tracedS = secondsSince(t0);
        setRequest(2);
        t0 = Clock::now();
        fault::CampaignReport one;
        {
            ScopedSpan s("fault.campaign");
            one = fault::runCampaign(config(0, 1));
        }
        double oneS = secondsSince(t0);
        setRequest(0);

        r.attempted = rep.results.size();
        r.failed = failures(rep, true);
        if (rep.toJson() != one.toJson() || rep.toJson() != plain.toJson())
            r.fail("campaign report JSON differs between 1 and " +
                   std::to_string(args.tracedWorkers) + " workers");
        r.setRatio("bench.trace_overhead_frac", tracedS - plainS, plainS,
                   "s");
        r.setRatio("verify.parallel_efficiency", oneS,
                   double(args.tracedWorkers) * tracedS, "s");
        r.set("fault.masked", double(rep.count(fault::Outcome::Masked)),
              "count");
        r.set("fault.detected_recovered",
              double(rep.count(fault::Outcome::DetectedRecovered)),
              "count");
        r.set("fault.missed_deadline",
              double(rep.count(fault::Outcome::MissedDeadline)), "count");
        r.set("fault.silent_corruption",
              double(rep.count(fault::Outcome::SilentCorruption)),
              "count");
        uint64_t restarts = 0;
        for (const fault::ScenarioResult &s : rep.results)
            restarts += s.restarts;
        r.set("system.watchdog_restarts", double(restarts), "count");

        // Snapshot + restore at the VT flavor's fault-window start.
        Image kernel = icd::buildKernelImage();
        auto li = LoadedImage::load(kernel);
        mblaze::MbProgram monitor = icd::monitorProgram();
        sys::SystemConfig sc;
        sc.fallbackProgram = icd::baselineIcdProgram();
        ecg::ResponsiveHeart heart(1.0, 75.0, 190.0, 8,
                                   kCampaignVtHeartSeed);
        sys::TwoLayerSystem system(li, monitor, heart, sc);
        system.runUntil(kCampaignVtWindowBegin);
        sys::TwoLayerSystem fork(li, monitor, heart, sc);
        for (int i = 0; i < 200; ++i) {
            ScopedSpan s("system.restore");
            auto snap = system.snapshot();
            fork.restore(*snap);
        }
        if (fork.lambdaCycles() != system.lambdaCycles() ||
            fork.shocks().size() != system.shocks().size())
            r.fail("restored system differs from its source");
        r.setSpanTiming("system.restore_us", "system.restore", 1e3, "us");
    }

  private:
    fault::CampaignConfig
    config(uint64_t round, unsigned threads) const
    {
        fault::CampaignConfig c;
        c.scenarios = threads ? kScenarios : 0;
        c.threads = threads ? threads : 1;
        c.seedBase = verify::shardSeed(args.seed, size_t(round));
        c.strategy = fault::LoadStrategy::Fork;
        if (args.defect == Defect::TinyBudget)
            c.scenarioBudget.maxLambdaCycles = 20'000'000;
        return c;
    }

    /** Failed scenarios of `rep`, each reported when `report`. */
    uint64_t
    failures(const fault::CampaignReport &rep, bool report) const
    {
        uint64_t n = 0;
        for (const fault::ScenarioResult &s : rep.results) {
            bool silent = s.protectedMemory &&
                          s.outcome == fault::Outcome::SilentCorruption;
            if (!silent && s.outcome != fault::Outcome::BudgetExceeded)
                continue;
            ++n;
            if (report)
                reportFinding(args,
                              "seed base " +
                                  std::to_string(rep.config.seedBase) +
                                  " scenario " + std::to_string(s.index) +
                                  " (" + fault::faultKindName(s.kind) +
                                  "): " + fault::outcomeName(s.outcome));
        }
        return n;
    }

    Args args;
};

} // namespace

std::unique_ptr<Workload>
makeFaultCampaign(const Args &args)
{
    return std::make_unique<FaultCampaign>(args);
}

} // namespace perfbench
