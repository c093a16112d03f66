#include "sym/concolic.hh"

#include "isa/encoding.hh"
#include "machine/timing.hh"
#include "support/random.hh"
#include "verify/parallel.hh"

namespace zarf::sym
{

const char *
pathCheckName(PathCheck c)
{
    switch (c) {
      case PathCheck::Feasible:
        return "Feasible";
      case PathCheck::Replayed:
        return "Replayed";
      case PathCheck::Unsat:
        return "Unsat";
      case PathCheck::Unknown:
        return "Unknown";
      case PathCheck::Truncated:
        return "Truncated";
      case PathCheck::SkippedResource:
        return "SkippedResource";
      case PathCheck::Diverged:
        return "Diverged";
    }
    return "?";
}

Image
concretizeImage(const Program &program,
                const std::vector<SWord> &model, unsigned maxVars)
{
    Program p = program.clone();
    std::vector<Operand *> sites = collectSymSites(p, maxVars);
    for (size_t i = 0; i < sites.size() && i < model.size(); ++i)
        sites[i]->val = model[i];
    return encodeProgram(p);
}

namespace
{

fuzz::OracleResult
replayUnderBudget(const Image &img, const fuzz::OracleConfig &base,
                  const verify::BudgetSpec &spec)
{
    verify::Budget budget(spec);
    fuzz::OracleConfig oc = base;
    oc.budget = spec.any() ? &budget : nullptr;
    return fuzz::replaySingle(img, oc);
}

std::string
ioOpStr(const fuzz::RecordBus::IoOp &op)
{
    return std::string(op.isGet ? "get(" : "put(") +
           std::to_string(op.port) + ", " +
           std::to_string(op.value) + ")";
}

/** Evaluate the symbolic I/O log under a model; false on any
 *  unevaluable term (cannot happen under a model of the path's own
 *  condition). */
bool
concretizeIo(const TermArena &arena, const std::vector<SymIo> &io,
             const std::vector<SWord> &model,
             std::vector<fuzz::RecordBus::IoOp> &out)
{
    for (const SymIo &op : io) {
        TermEvalResult p = arena.evalUnder(op.port, model);
        TermEvalResult v = arena.evalUnder(op.value, model);
        if (!p.ok || !v.ok)
            return false;
        out.push_back({ op.isGet, p.value, v.value });
    }
    return true;
}

struct ReplayVerdict
{
    PathCheck check = PathCheck::SkippedResource;
    std::string detail;
    Cycles concreteCycles = 0;
    bool keepWitness = false;
};

/** The per-path cross-check: symbolic prediction vs the machine. */
ReplayVerdict
checkOnePath(const TermArena &arena, const PathRun &run,
             const std::vector<SWord> &model, Cycles predicted,
             const Image &img, const ConcolicConfig &cfg)
{
    ReplayVerdict v;
    fuzz::OracleResult o =
        replayUnderBudget(img, cfg.oracle, cfg.replayBudget);
    v.concreteCycles = o.uopCycles;

    if (o.verdict == fuzz::Verdict::Skip) {
        v.check = PathCheck::SkippedResource;
        v.detail = "replay skipped: " + o.detail;
        return v;
    }
    v.keepWitness = true;
    if (o.verdict == fuzz::Verdict::Rejected) {
        v.check = PathCheck::Diverged;
        v.detail = "feasible path concretized to a rejected "
                   "image: " +
                   o.detail;
        return v;
    }
    if (o.verdict == fuzz::Verdict::Divergence) {
        v.check = PathCheck::Diverged;
        v.detail =
            "oracle divergence on concretized image: " + o.detail;
        return v;
    }

    // Verdict::Agree — compare the prediction to the µop machine.
    bool symDone = run.status == PathRun::Status::Done;
    bool machDone = o.uopStatus == MachineStatus::Done;
    if (symDone != machDone) {
        v.check = PathCheck::Diverged;
        v.detail = std::string("outcome class mismatch: symbolic ") +
                   (symDone ? "Done" : ("Stuck (" + run.detail + ")")) +
                   " vs machine " +
                   machineStatusName(o.uopStatus) +
                   (o.uopDiagnostic.empty()
                        ? ""
                        : " (" + o.uopDiagnostic + ")");
        return v;
    }

    if (symDone) {
        ValuePtr pv = concretizeValue(arena, *run.value, model);
        if (!pv) {
            v.check = PathCheck::Diverged;
            v.detail = "symbolic result unevaluable under its own "
                       "model";
            return v;
        }
        if (!o.uopValue || !Value::equal(*pv, *o.uopValue)) {
            v.check = PathCheck::Diverged;
            v.detail = "value mismatch: predicted " +
                       pv->toString() + " vs machine " +
                       (o.uopValue ? o.uopValue->toString()
                                   : "<none>");
            return v;
        }
    }

    // A Stuck path latches after the same I/O and cycles as the
    // machine, so both are checked on Done and Stuck alike.
    std::vector<fuzz::RecordBus::IoOp> pio;
    if (!concretizeIo(arena, run.io, model, pio)) {
        v.check = PathCheck::Diverged;
        v.detail = "symbolic io log unevaluable under its own model";
        return v;
    }
    if (pio.size() != o.uopIo.size()) {
        v.check = PathCheck::Diverged;
        v.detail = "io length mismatch: predicted " +
                   std::to_string(pio.size()) + " ops vs machine " +
                   std::to_string(o.uopIo.size());
        return v;
    }
    for (size_t k = 0; k < pio.size(); ++k) {
        if (!(pio[k] == o.uopIo[k])) {
            v.check = PathCheck::Diverged;
            v.detail = "io op " + std::to_string(k) +
                       " mismatch: predicted " + ioOpStr(pio[k]) +
                       " vs machine " + ioOpStr(o.uopIo[k]);
            return v;
        }
    }

    if (predicted != o.uopCycles) {
        v.check = PathCheck::Diverged;
        v.detail = "cycle mismatch: predicted " +
                   std::to_string(predicted) +
                   " but the machine took " +
                   std::to_string(o.uopCycles);
        return v;
    }

    v.check = PathCheck::Replayed;
    v.keepWitness = false;
    return v;
}

} // namespace

ConcolicReport
runConcolic(const Image &image, const ConcolicConfig &cfg)
{
    ConcolicReport rep;

    fuzz::OracleResult probe =
        replayUnderBudget(image, cfg.oracle, cfg.replayBudget);
    if (probe.verdict != fuzz::Verdict::Agree) {
        rep.originalDetail =
            std::string(fuzz::verdictName(probe.verdict)) +
            (probe.detail.empty() ? "" : ": " + probe.detail);
        return rep;
    }
    rep.originalUsable = true;

    DecodeResult dec = decodeProgram(image);
    if (!dec.ok) {
        // Unreachable: Verdict::Agree implies decodeOk.
        rep.originalUsable = false;
        rep.originalDetail = "decode: " + dec.error;
        return rep;
    }

    SymEval eval(dec.program, cfg.eval);
    rep.numVars = eval.numVars();
    ExploreResult ex = explorePaths(eval, cfg.explore);
    rep.exhaustive = ex.exhaustive;
    Cycles loadCycles = Cycles(image.size()) * TimingModel{}.loadWord;
    rep.wcetBound = ex.maxCycleBound + loadCycles;
    rep.wcetComplete = ex.boundComplete;

    // Solve every complete path, serially and deterministically.
    rep.paths.resize(ex.paths.size());
    std::vector<size_t> satIdx;
    for (size_t i = 0; i < ex.paths.size(); ++i) {
        const PathRun &run = ex.paths[i].run;
        PathReport &pr = rep.paths[i];
        pr.script = ex.paths[i].script;
        pr.symStatus = run.status;
        pr.symDetail = run.detail;
        pr.predictedCycles = run.cycleBound + loadCycles;
        pr.observedSupport = run.observableSupport(eval.arena());
        if (run.status == PathRun::Status::Truncated) {
            pr.check = PathCheck::Truncated;
            pr.detail = run.detail;
            rep.truncatedPaths++;
            continue;
        }
        SolveResult s =
            solveAtoms(eval.arena(), run.pc, eval.numVars(),
                       eval.seedAssign(), cfg.solver);
        pr.solve = s.status;
        switch (s.status) {
          case SolveStatus::Unsat:
            pr.check = PathCheck::Unsat;
            pr.detail = s.note;
            rep.unsatPaths++;
            break;
          case SolveStatus::Unknown:
            pr.check = PathCheck::Unknown;
            pr.detail = s.note;
            rep.unknownPaths++;
            break;
          case SolveStatus::Sat:
            pr.check = PathCheck::Feasible;
            pr.model = s.model;
            rep.feasiblePaths++;
            satIdx.push_back(i);
            break;
        }
    }

    if (!cfg.replay)
        return rep;

    // Replay the satisfiable paths in parallel; slot-ordered results
    // keep the report identical across thread counts.
    verify::ParallelConfig pc;
    pc.threads = cfg.threads;
    pc.seedBase = cfg.seedBase;
    pc.shards = satIdx.size();
    std::vector<ReplayVerdict> verdicts = verify::shardMap(
        pc, [&](size_t shard, uint64_t) -> ReplayVerdict {
            size_t i = satIdx[shard];
            const PathReport &pr = rep.paths[i];
            Image img = concretizeImage(dec.program, pr.model,
                                        cfg.eval.maxVars);
            return checkOnePath(eval.arena(), ex.paths[i].run,
                                pr.model, pr.predictedCycles, img,
                                cfg);
        });

    for (size_t shard = 0; shard < satIdx.size(); ++shard) {
        size_t i = satIdx[shard];
        PathReport &pr = rep.paths[i];
        const ReplayVerdict &v = verdicts[shard];
        pr.check = v.check;
        pr.detail = v.detail;
        pr.concreteCycles = v.concreteCycles;
        switch (v.check) {
          case PathCheck::Replayed:
            rep.replayedPaths++;
            break;
          case PathCheck::SkippedResource:
            rep.skippedPaths++;
            break;
          case PathCheck::Diverged:
            rep.divergedPaths++;
            break;
          default:
            break;
        }
        if (v.keepWitness)
            pr.witness = concretizeImage(dec.program, pr.model,
                                         cfg.eval.maxVars);
    }
    return rep;
}

NiResult
checkNoninterference(const Image &image,
                     const ConcolicReport &report,
                     uint64_t secretMask, const ConcolicConfig &cfg)
{
    NiResult ni;
    for (size_t i = 0; i < report.paths.size(); ++i) {
        const PathReport &pr = report.paths[i];
        if (pr.check == PathCheck::Unsat)
            continue;
        if (pr.observedSupport & secretMask) {
            ni.holds = false;
            ni.leakyPaths.push_back(i);
        }
    }
    if (ni.holds || !report.originalUsable)
        return ni;

    DecodeResult dec = decodeProgram(image);
    if (!dec.ok)
        return ni;

    // Witness search: perturb the secret variables of a leaky
    // path's model and compare the two concrete runs' observables.
    Rng rng(cfg.seedBase ^ 0x6e69u /* "ni" */);
    for (size_t i : ni.leakyPaths) {
        const PathReport &pr = report.paths[i];
        if (pr.model.empty())
            continue;
        Image base = concretizeImage(dec.program, pr.model,
                                     cfg.eval.maxVars);
        fuzz::OracleResult ob =
            replayUnderBudget(base, cfg.oracle, cfg.replayBudget);
        for (unsigned attempt = 0; attempt < 4; ++attempt) {
            std::vector<SWord> perturbed = pr.model;
            for (unsigned v = 0; v < report.numVars; ++v) {
                if (secretMask & (uint64_t(1) << v))
                    perturbed[v] =
                        SWord(rng.range(kMinImm, kMaxImm));
            }
            if (perturbed == pr.model)
                continue;
            Image alt = concretizeImage(dec.program, perturbed,
                                        cfg.eval.maxVars);
            fuzz::OracleResult oa = replayUnderBudget(
                alt, cfg.oracle, cfg.replayBudget);
            bool statusDiff = ob.uopStatus != oa.uopStatus;
            bool valueDiff =
                bool(ob.uopValue) != bool(oa.uopValue) ||
                (ob.uopValue && oa.uopValue &&
                 !Value::equal(*ob.uopValue, *oa.uopValue));
            bool ioDiff = !(ob.uopIo == oa.uopIo);
            if (statusDiff || valueDiff || ioDiff) {
                ni.witnessFound = true;
                ni.witnessDetail =
                    "path " + std::to_string(i) +
                    ": secret perturbation changed " +
                    (statusDiff  ? "outcome status"
                     : valueDiff ? "result value"
                                 : "io log");
                return ni;
            }
        }
    }
    return ni;
}

} // namespace zarf::sym
