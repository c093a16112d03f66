/**
 * @file
 * Workload `oracle-fuzz`: fuzz::runFuzz with the library's default
 * campaign (4 rounds of 64 candidates, full evaluator rotation, no
 * seed corpus), over a pool of campaigns whose seeds are drawn from
 * the run's seed, cycled for the whole run on one client (the traced
 * run also fans them over the verify pool). Candidates are tiny, so
 * machine construction, snapshot copies and the evaluator legs
 * dominate and dispatch barely registers: the mirror image of
 * `icd-cosim`.
 *
 * One op is a candidate; it fails when the oracle reports a
 * divergence.
 *
 * The traced run rebuilds the campaigns' candidate streams exactly
 * as fuzz/fuzzer.cc derives them (checked against runFuzz's own
 * counts) and times runOracle and each of its legs, configured as
 * runOracle configures them, on one thread.
 */

#include <optional>

#include "fuzz/corpus.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/oracle.hh"
#include "harness.hh"
#include "ir/eval.hh"
#include "ir/lift.hh"
#include "ir/testhooks.hh"
#include "isa/validate.hh"
#include "machine/testhooks.hh"
#include "obs/trace.hh"
#include "sem/bigstep.hh"
#include "sem/smallstep.hh"
#include "verify/parallel.hh"

namespace perfbench
{

using namespace zarf;
using namespace zarf::fuzz;

namespace
{

/** Campaigns per phase of the traced run, and how many of them the
 *  per-leg decomposition replays. */
constexpr size_t kTracedCampaigns = 40;
constexpr size_t kLegCampaigns = 8;

/** Campaigns in the timed loop's pool (seeds drawn from the run's
 *  seed). */
constexpr size_t kPoolCampaigns = 256;

/** Campaign index of the untimed warm-up slice (outside the pool). */
constexpr size_t kWarmupCampaign = size_t(1) << 40;

struct Counts
{
    size_t executed = 0, agreed = 0, rejected = 0, skipped = 0,
           findings = 0, retained = 0, coverageBits = 0;
    void
    add(const FuzzResult &f)
    {
        executed += f.executed;
        agreed += f.agreed;
        rejected += f.rejected;
        skipped += f.skipped;
        findings += f.findings.size();
        retained += f.retained.size();
        coverageBits += f.coverage.popcount();
    }
    bool
    operator==(const Counts &o) const
    {
        return executed == o.executed && agreed == o.agreed &&
               rejected == o.rejected && skipped == o.skipped &&
               findings == o.findings && retained == o.retained &&
               coverageBits == o.coverageBits;
    }
};

/** fuzz/fuzzer.cc's candidate derivation, verbatim in behaviour. */
Image
makeCandidate(uint64_t seed, const FuzzConfig &cfg,
              const std::vector<Image> &corpus)
{
    Rng rng(seed);
    double r = rng.real();
    if (!corpus.empty()) {
        if (r < cfg.astMutateP) {
            const Image &base = corpus[rng.below(corpus.size())];
            if (auto m = mutateAst(base, rng, cfg.mutate))
                return *m;
            return mutateImage(base, rng, cfg.mutate);
        }
        if (r < cfg.astMutateP + cfg.imageMutateP)
            return mutateImage(corpus[rng.below(corpus.size())], rng,
                               cfg.mutate);
        if (r < cfg.astMutateP + cfg.imageMutateP + cfg.spliceP) {
            const Image &a = corpus[rng.below(corpus.size())];
            const Image &b = corpus[rng.below(corpus.size())];
            if (auto s = spliceImages(a, b, rng))
                return *s;
            return mutateImage(a, rng, cfg.mutate);
        }
    }
    ProgramGenerator gen(rng.next(), cfg.gen);
    return encodeProgram(gen.generate().build());
}

/** Run `m` as the oracle runs its machines, construction spanned. */
Machine::Outcome
runLeg(const Image &image, IoBus &bus, const MachineConfig &mc,
       Cycles maxCycles, std::optional<Machine> &m)
{
    {
        ScopedSpan c("machine.construct");
        m.emplace(image, bus, mc);
    }
    return m->run(maxCycles);
}

/** runOracle's evaluator legs, each spanned, under the same gates
 *  (fuzz/oracle.cc); the comparisons themselves are left to
 *  runOracle. */
void
oracleLegs(const Image &image, const OracleConfig &cfg)
{
    MachineConfig mc;
    mc.semispaceWords = cfg.semispaceWords;
    mc.tier = DispatchTier::Uop;
    mc.fsmTally = true;
    Machine::Outcome uopOut;
    Cycles uopCycles = 0;
    {
        ScopedSpan s("machine.uop");
        obs::Recorder trace(
            { 1u << 14,
              static_cast<uint32_t>(obs::Cat::MachineExec) |
                  static_cast<uint32_t>(obs::Cat::MachineGc) });
        MachineConfig uc = mc;
        uc.trace = &trace;
        RecordBus bus;
        std::optional<Machine> m;
        uopOut = runLeg(image, bus, uc, cfg.maxCycles, m);
        uopCycles = m->cycles();
        collectCoverage(m->fsmTally(), trace, m->stats(), uopOut.status,
                        uopOut.value);
    }
    auto tier = [&](const char *name, DispatchTier t, bool tally) {
        ScopedSpan s(name);
        MachineConfig c = mc;
        c.tier = t;
        c.fsmTally = tally;
        RecordBus bus;
        std::optional<Machine> m;
        runLeg(image, bus, c, cfg.maxCycles, m);
    };
    tier("machine.wordwalk", DispatchTier::WordWalk, true);
    if (cfg.compareThreaded)
        tier("machine.threaded", DispatchTier::Threaded, true);
    if (cfg.compareFast)
        tier("machine.fast", DispatchTier::FastFunctional, false);

    DecodeResult dec;
    {
        ScopedSpan s("isa.decode");
        dec = decodeProgram(image);
    }
    if (!dec.ok)
        return;
    if (uopOut.status == MachineStatus::Stuck &&
        uopOut.diagnostic.rfind("predecode:", 0) == 0)
        return;
    if (uopOut.status == MachineStatus::HeapCorrupt ||
        uopOut.status == MachineStatus::MemFault)
        return;
    RunResult semOut;
    {
        ScopedSpan s("sem.smallstep");
        RecordBus bus;
        SmallStep sem(dec.program, bus, { cfg.semSteps });
        semOut = sem.runMain();
    }
    if (uopOut.status == MachineStatus::Running ||
        uopOut.status == MachineStatus::OutOfMemory ||
        semOut.status == RunResult::Status::OutOfFuel)
        return;
    if (cfg.compareIr) {
        ir::LiftResult lift;
        {
            ScopedSpan s("ir.lift");
            lift = ir::liftImage(image);
        }
        if (!lift.ok)
            return;
        ScopedSpan s("ir.eval");
        RecordBus bus;
        ir::EvalConfig ic;
        ic.maxCycles = cfg.maxCycles;
        ic.hardStopCycles = uopCycles;
        ir::evalModule(lift.module, bus, ic);
    }
    if (cfg.compareBigStep && validateProgram(dec.program).ok() &&
        !usesIo(dec.program)) {
        ScopedSpan s("sem.bigstep");
        NullBus nb;
        BigStepConfig bc;
        bc.maxSteps = cfg.bigSteps;
        BigStep big(dec.program, nb, bc);
        big.runMain();
    }
    if (cfg.snapshotReplay) {
        ScopedSpan s("machine.snapshot_replay");
        MachineConfig sc = mc;
        sc.fsmTally = false;
        RecordBus bus;
        std::optional<Machine> src, fork;
        {
            ScopedSpan c("machine.construct");
            src.emplace(image, bus, sc);
        }
        src->advance(uopCycles / 2);
        auto snap = src->snapshot();
        {
            ScopedSpan c("machine.construct");
            fork.emplace(image, bus, sc);
        }
        fork->restore(*snap);
        fork->run(cfg.maxCycles);
    }
}

class OracleFuzz : public Workload
{
  public:
    explicit OracleFuzz(const Args &a) : args(a) {}

    void
    setup() override
    {
        if (args.defect == Defect::PoisonedOperand)
            testhooks::poisonedOperandDefect = true;
        if (args.defect == Defect::IrAllocCharge)
            ir::testhooks::irBrokenAllocCharge = true;
        runFuzz(config(kWarmupCampaign, args.workers));
    }

    void
    measure(Result &r) override
    {
        // A pool of kPoolCampaigns campaigns, cycled; a repeat must
        // reproduce its first run's counts.
        std::vector<bool> ran(kPoolCampaigns, false);
        PoolRun<Counts> pr = cyclePool<Counts>(
            kPoolCampaigns, args.seconds, [&](size_t k) {
                FuzzResult f = runFuzz(config(k, args.workers));
                if (!ran[k]) {
                    for (const Finding &d : f.findings)
                        reportFinding(args, "campaign " + std::to_string(k) +
                                                " divergence: " + d.detail,
                                      &d.image);
                }
                ran[k] = true;
                Counts c;
                c.add(f);
                return std::pair(c, uint64_t(f.executed));
            });
        Counts c;
        for (const Counts &f : pr.first) {
            c.executed += f.executed;
            c.findings += f.findings;
        }
        if (pr.mismatchedBlocks)
            reportFinding(args, std::to_string(pr.mismatchedBlocks) +
                                    " repeated campaigns differ from "
                                    "their first run");
        r.attempted = c.executed;
        r.failed = std::min<uint64_t>(c.executed,
                                      c.findings + pr.mismatchedOps);
        // The median campaign, not the whole run: a few slow campaigns
        // per seed take much of the run, so the whole-run rate follows
        // which of them a seed drew (3.4k-4.6k execs/s over seeds 1-5,
        // where the median campaign moved ~10%).
        double rate = percentile(pr.rates, 50.0);
        r.set("ops_per_s", rate, "1/s");
        r.show("block_rates", quantiles(pr.rates));
        r.show("execs_per_s",
               fmtDouble(rate) + " oracle executions/s (median of " +
                   std::to_string(pr.blocks) + " campaigns; whole run " +
                   fmtDouble(double(pr.ops) / pr.seconds) + ")");
        r.show("fail_frac", fmtDouble(c.executed ? double(r.failed) /
                                                       double(c.executed)
                                                 : 0.0));
    }

    void
    traced(Result &r) override
    {
        auto phase = [&](unsigned workers, bool spans, Counts &c) {
            tracer().enabled = spans;
            Clock::time_point t0 = Clock::now();
            for (size_t k = 0; k < kTracedCampaigns; ++k) {
                setRequest(k + 1);
                ScopedSpan s("fuzz.campaign");
                c.add(runFuzz(config(k, workers)));
            }
            setRequest(0);
            tracer().enabled = true;
            return secondsSince(t0);
        };
        Counts plain, traced, one;
        double plainS = phase(args.tracedWorkers, false, plain);
        double tracedS = phase(args.tracedWorkers, true, traced);
        double oneS = phase(1, true, one);
        r.attempted = traced.executed;
        r.failed = traced.findings;
        if (!(plain == traced) || !(traced == one))
            r.fail("campaign counts differ between 1 and " +
                   std::to_string(args.tracedWorkers) + " workers");
        r.setRatio("bench.trace_overhead_frac", tracedS - plainS, plainS,
                   "s");
        r.setRatio("verify.parallel_efficiency", oneS,
                   double(args.tracedWorkers) * tracedS, "s");
        r.setRatio("fuzz.agree_frac", double(traced.agreed),
                   double(traced.executed), "count");
        r.setRatio("fuzz.skip_frac", double(traced.skipped),
                   double(traced.executed), "count");
        r.setRatio("fuzz.rejected_frac", double(traced.rejected),
                   double(traced.executed), "count");
        r.set("fuzz.retained", double(traced.retained), "count");
        r.set("fuzz.coverage_bits", double(traced.coverageBits), "count");

        // Per-leg decomposition, one thread: rebuild each campaign's
        // candidate stream and time runOracle, then its legs.
        Counts rebuilt, want;
        uint64_t req = 0;
        for (size_t k = 0; k < kLegCampaigns; ++k) {
            FuzzConfig cfg = config(k, 1);
            want.add(runFuzz(cfg));
            FuzzResult out;
            std::vector<Image> corpus;
            for (size_t round = 0; round < cfg.rounds &&
                                   out.findings.size() < cfg.maxDivergences;
                 ++round) {
                std::vector<Image> batch;
                for (size_t i = 0; i < cfg.perRound; ++i)
                    batch.push_back(makeCandidate(
                        verify::shardSeed(cfg.seed,
                                          round * cfg.perRound + i),
                        cfg, corpus));
                for (Image &img : batch) {
                    if (out.findings.size() >= cfg.maxDivergences)
                        break;
                    setRequest(++req);
                    OracleResult o;
                    {
                        ScopedSpan s("fuzz.oracle");
                        o = runOracle(img, cfg.oracle);
                    }
                    oracleLegs(img, cfg.oracle);
                    fold(out, corpus, std::move(img), o);
                }
            }
            rebuilt.add(out);
        }
        setRequest(0);
        if (!(rebuilt == want))
            r.fail("rebuilt candidate stream differs from runFuzz's");

        double legs = 0;
        for (const char *leg :
             { "machine.uop", "machine.wordwalk", "machine.threaded",
               "machine.fast", "machine.snapshot_replay", "isa.decode",
               "sem.smallstep", "sem.bigstep", "ir.lift", "ir.eval" })
            legs += tracer().totalNs(leg);
        double oracle = tracer().totalNs("fuzz.oracle");
        r.setRatio("fuzz.oracle_residual_share", (oracle - legs) / 1e9,
                   oracle / 1e9, "s");
        r.setSpanTiming("fuzz.oracle_us", "fuzz.oracle", 1e3, "us");
        r.setSpanTiming("machine.construct_us", "machine.construct", 1e3,
                        "us");
        r.setSpanTiming("machine.uop_us", "machine.uop", 1e3, "us");
        r.setSpanTiming("machine.wordwalk_us", "machine.wordwalk", 1e3,
                        "us");
        r.setSpanTiming("machine.threaded_us", "machine.threaded", 1e3,
                        "us");
        r.setSpanTiming("machine.fast_us", "machine.fast", 1e3, "us");
        r.setSpanTiming("machine.snapshot_replay_us",
                        "machine.snapshot_replay", 1e3, "us");
        r.setSpanTiming("isa.decode_us", "isa.decode", 1e3, "us");
        r.setSpanTiming("sem.smallstep_us", "sem.smallstep", 1e3, "us");
        r.setSpanTiming("sem.bigstep_us", "sem.bigstep", 1e3, "us");
        r.setSpanTiming("ir.lift_us", "ir.lift", 1e3, "us");
        r.setSpanTiming("ir.eval_us", "ir.eval", 1e3, "us");
    }

  private:
    FuzzConfig
    config(size_t campaign, unsigned workers) const
    {
        FuzzConfig c;
        c.seed = verify::shardSeed(args.seed, campaign);
        c.threads = workers;
        return c;
    }

    /** fuzz/fuzzer.cc's fold, for the rebuilt stream. */
    static void
    fold(FuzzResult &out, std::vector<Image> &corpus, Image &&img,
         const OracleResult &o)
    {
        ++out.executed;
        out.agreed += o.verdict == Verdict::Agree;
        out.rejected += o.verdict == Verdict::Rejected;
        out.skipped += o.verdict == Verdict::Skip;
        if (o.verdict == Verdict::Divergence)
            out.findings.push_back({ img, imageHash(img), o.detail });
        if (o.coverage.newBits(out.coverage) > 0) {
            out.coverage.mergeFrom(o.coverage);
            corpus.push_back(img);
            out.retained.push_back(std::move(img));
        }
    }

    Args args;
};

} // namespace

std::unique_ptr<Workload>
makeOracleFuzz(const Args &args)
{
    return std::make_unique<OracleFuzz>(args);
}

} // namespace perfbench
