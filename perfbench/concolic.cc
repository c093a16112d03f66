/**
 * @file
 * Workload `concolic`: sym::runConcolic with replay on, over a pool
 * of programs generated from the run's seed (bench_sym's
 * configuration: 6 symbolic immediates, 16 choices, 24 paths per
 * program), cycled for the whole run on one client (the traced run
 * also fans them over the verify pool). It is the only workload that
 * runs sym (term arena, explorer, solver); solve and replay dominate.
 *
 * One op is an explored path; it fails when its replay diverged from
 * the symbolic prediction.
 *
 * The traced run rebuilds the pipeline runConcolic runs — decode,
 * explorePaths, solveAtoms, concretizeImage, replaySingle — and
 * times each stage on one thread.
 */

#include "fuzz/genprog.hh"
#include "fuzz/replay.hh"
#include "harness.hh"
#include "isa/binary.hh"
#include "sym/concolic.hh"
#include "sym/explore.hh"
#include "sym/testhooks.hh"
#include "verify/parallel.hh"

namespace perfbench
{

using namespace zarf;
using namespace zarf::sym;

namespace
{

/** Programs per pool fan-out in the timed loop, and batches in the
 *  loop's pool (programs drawn from the run's seed). */
constexpr size_t kBatch = 256;
constexpr size_t kPoolBatches = 64;
/** Programs per phase of the traced run, and how many of them the
 *  per-stage decomposition replays. */
constexpr size_t kTracedPrograms = 4096;
constexpr size_t kStagePrograms = 1024;
/** First program index of the untimed warm-up slice. */
constexpr size_t kWarmupProgram = size_t(1) << 40;

struct Counts
{
    uint64_t programs = 0, paths = 0, feasible = 0, unsat = 0,
             unknown = 0, replayed = 0, diverged = 0;
    void
    add(const Counts &o)
    {
        programs += o.programs;
        paths += o.paths;
        feasible += o.feasible;
        unsat += o.unsat;
        unknown += o.unknown;
        replayed += o.replayed;
        diverged += o.diverged;
    }
    bool
    operator==(const Counts &o) const
    {
        return programs == o.programs && paths == o.paths &&
               feasible == o.feasible && unsat == o.unsat &&
               unknown == o.unknown && replayed == o.replayed &&
               diverged == o.diverged;
    }
};

ConcolicConfig
benchConfig()
{
    ConcolicConfig cfg;
    cfg.eval.maxVars = 6;
    cfg.eval.maxChoices = 16;
    cfg.explore.maxPaths = 24;
    cfg.threads = 1; // parallelism is across programs
    return cfg;
}

Counts
countReport(const ConcolicReport &rep)
{
    Counts c;
    if (!rep.originalUsable)
        return c;
    c.programs = 1;
    c.paths = rep.paths.size();
    c.feasible = rep.feasiblePaths; // Sat, whatever replay made of it
    c.unsat = rep.unsatPaths;
    c.unknown = rep.unknownPaths;
    c.replayed = rep.replayedPaths;
    c.diverged = rep.divergedPaths;
    return c;
}

class Concolic : public Workload
{
  public:
    explicit Concolic(const Args &a) : args(a) {}

    void
    setup() override
    {
        if (args.defect == Defect::SymMul)
            sym::testhooks::symBrokenMulTransfer = true;
        batch(kWarmupProgram, 32, args.workers, false, false);
    }

    void
    measure(Result &r) override
    {
        // A pool of kPoolBatches batches of programs, cycled; a repeat
        // must reproduce its first run's counts.
        std::vector<bool> ran(kPoolBatches, false);
        PoolRun<Counts> pr = cyclePool<Counts>(
            kPoolBatches, args.seconds, [&](size_t b) {
                Counts c = batch(b * kBatch, kBatch, args.workers, false,
                                 !ran[b]);
                ran[b] = true;
                return std::pair(c, uint64_t(c.paths));
            });
        Counts c;
        for (const Counts &b : pr.first)
            c.add(b);
        if (pr.mismatchedBlocks)
            reportFinding(args, std::to_string(pr.mismatchedBlocks) +
                                    " repeated batches differ from their "
                                    "first run");
        r.attempted = c.paths;
        r.failed = std::min<uint64_t>(c.paths, c.diverged + pr.mismatchedOps);
        double rate = double(pr.ops) / pr.seconds;
        r.set("ops_per_s", rate, "1/s");
        r.show("block_rates", quantiles(pr.rates));
        r.show("paths_per_s",
               fmtDouble(rate) + " explored paths/s, solve+replay on (" +
                   std::to_string(pr.blocks) + " batches of " +
                   std::to_string(kBatch) + " programs)");
        r.show("fail_frac", fmtDouble(c.paths ? double(r.failed) /
                                                    double(c.paths)
                                              : 0.0));
    }

    void
    traced(Result &r) override
    {
        auto phase = [&](unsigned workers, bool spans, Counts &c) {
            tracer().enabled = spans;
            Clock::time_point t0 = Clock::now();
            c = batch(0, kTracedPrograms, workers, spans,
                      spans && workers == args.tracedWorkers);
            tracer().enabled = true;
            return secondsSince(t0);
        };
        Counts plain, traced, one;
        double plainS = phase(args.tracedWorkers, false, plain);
        double tracedS = phase(args.tracedWorkers, true, traced);
        double oneS = phase(1, true, one);
        r.attempted = traced.paths;
        r.failed = traced.diverged;
        if (!(plain == traced) || !(traced == one))
            r.fail("concolic counts differ between 1 and " +
                   std::to_string(args.tracedWorkers) + " workers");
        r.setRatio("bench.trace_overhead_frac", tracedS - plainS, plainS,
                   "s");
        r.setRatio("verify.parallel_efficiency", oneS,
                   double(args.tracedWorkers) * tracedS, "s");
        r.setRatio("sym.decided_frac", double(traced.feasible + traced.unsat),
                   double(traced.paths), "count");
        r.setRatio("sym.replay_validated_frac", double(traced.replayed),
                   double(traced.feasible), "count");
        r.set("sym.paths", double(traced.paths), "count");
        r.set("sym.feasible", double(traced.feasible), "count");
        r.set("sym.unknown", double(traced.unknown), "count");

        // Per-stage decomposition on one thread: runConcolic, then the
        // same pipeline stage by stage.
        ConcolicConfig cfg = benchConfig();
        std::vector<double> explorePerPath;
        Counts whole, staged;
        for (size_t i = 0; i < kStagePrograms; ++i) {
            setRequest(i + 1);
            Image img = program(i);
            {
                ScopedSpan s("sym.run_concolic");
                whole.add(countReport(runConcolic(img, cfg)));
            }
            staged.add(stages(img, cfg, explorePerPath));
        }
        setRequest(0);
        if (!(whole.paths == staged.paths &&
              whole.feasible == staged.feasible &&
              whole.unsat == staged.unsat))
            r.fail("rebuilt pipeline disagrees with runConcolic");

        double spans = 0;
        for (const char *st : { "sym.probe", "isa.decode", "sym.explore",
                                "sym.solve", "sym.concretize",
                                "fuzz.replay" })
            spans += tracer().totalNs(st);
        double total = tracer().totalNs("sym.run_concolic");
        r.setRatio("sym.residual_share", (total - spans) / 1e9, total / 1e9,
                   "s");
        r.setTiming("sym.explore_us", explorePerPath, "us");
        r.setSpanTiming("sym.solve_us", "sym.solve", 1e3, "us");
        r.setSpanTiming("fuzz.replay_us", "fuzz.replay", 1e3, "us");
        r.setSpanTiming("isa.decode_us", "isa.decode", 1e3, "us");
    }

  private:
    Image
    program(size_t index) const
    {
        fuzz::ProgramGenerator gen(verify::shardSeed(args.seed, index));
        return encodeProgram(gen.generate().build());
    }

    /** Programs [first, first+n) through runConcolic on the pool;
     *  diverged paths are reported when `report`. */
    Counts
    batch(size_t first, size_t n, unsigned workers, bool spans,
          bool report) const
    {
        verify::ParallelConfig pc;
        pc.threads = workers;
        pc.shards = n;
        std::vector<Counts> per = verify::shardMap(
            pc, [&](size_t i, uint64_t) {
                Image img = program(first + i);
                if (spans)
                    setRequest(first + i + 1);
                ScopedSpan s("sym.concolic");
                ConcolicReport rep = runConcolic(img, benchConfig());
                for (const PathReport &p : rep.paths) {
                    if (report && p.check == PathCheck::Diverged)
                        reportFinding(args,
                                      "program " +
                                          std::to_string(first + i) +
                                          " path diverged: " + p.detail,
                                      &p.witness);
                }
                return countReport(rep);
            });
        Counts c;
        for (const Counts &p : per)
            c.add(p);
        return c;
    }

    /** runConcolic's stages for one image, each spanned; the replay
     *  comparisons are left to runConcolic. */
    static Counts
    stages(const Image &img, const ConcolicConfig &cfg,
           std::vector<double> &explorePerPath)
    {
        Counts c;
        {
            ScopedSpan s("sym.probe");
            if (fuzz::replaySingle(img, cfg.oracle).verdict !=
                fuzz::Verdict::Agree)
                return c;
        }
        DecodeResult dec;
        {
            ScopedSpan s("isa.decode");
            dec = decodeProgram(img);
        }
        if (!dec.ok)
            return c;
        SymEval eval(dec.program, cfg.eval);
        ExploreResult ex;
        Clock::time_point t0 = Clock::now();
        {
            ScopedSpan s("sym.explore");
            ex = explorePaths(eval, cfg.explore);
        }
        if (!ex.paths.empty())
            explorePerPath.push_back(secondsSince(t0) * 1e6 /
                                     double(ex.paths.size()));
        c.programs = 1;
        c.paths = ex.paths.size();
        for (const ExploredPath &p : ex.paths) {
            if (p.run.status == PathRun::Status::Truncated)
                continue;
            SolveResult sr;
            {
                ScopedSpan s("sym.solve");
                sr = solveAtoms(eval.arena(), p.run.pc, eval.numVars(),
                                eval.seedAssign(), cfg.solver);
            }
            c.unsat += sr.status == SolveStatus::Unsat;
            c.unknown += sr.status == SolveStatus::Unknown;
            if (sr.status != SolveStatus::Sat)
                continue;
            ++c.feasible;
            Image concrete;
            {
                ScopedSpan s("sym.concretize");
                concrete = concretizeImage(dec.program, sr.model,
                                           cfg.eval.maxVars);
            }
            ScopedSpan s("fuzz.replay");
            fuzz::replaySingle(concrete, cfg.oracle);
        }
        return c;
    }

    Args args;
};

} // namespace

std::unique_ptr<Workload>
makeConcolic(const Args &args)
{
    return std::make_unique<Concolic>(args);
}

} // namespace perfbench
