/**
 * @file
 * Concolic cross-checking: every feasible symbolic path, validated
 * against the concrete differential oracle (docs/SYMBOLIC.md).
 *
 * For one image, the harness
 *
 *   1. probes the original image through the full oracle
 *      (fuzz/replay.hh) — images the oracle rejects or skips are not
 *      explored, so the symbolic layer never reasons about programs
 *      the machines would not accept;
 *   2. explores the symbolic path space (sym/explore.hh);
 *   3. solves each complete path's condition (sym/solver.hh);
 *   4. for every satisfiable path, patches the model back into the
 *      image at the same operand sites the evaluator symbolized,
 *      replays the concretized image through the oracle under a
 *      fresh verify::Budget, and compares *predictions against the
 *      machine*:
 *        - outcome class (Done vs Stuck) must match,
 *        - on Done, the concretized symbolic result must equal the
 *          machine value,
 *        - on Done and Stuck alike, the concretized I/O log must
 *          equal the machine I/O log, and the path's cycles (plus
 *          load) must equal the machine's cycles() exactly.
 *
 * Any mismatch is PathCheck::Diverged — a hard failure: either the
 * symbolic semantics, the solver, or the machine is wrong, and the
 * concretized witness image reproduces it deterministically.
 *
 * Replays fan out across threads (verify/parallel.hh) with
 * slot-ordered results, so a report is identical on 1 thread and 64.
 */

#ifndef ZARF_SYM_CONCOLIC_HH
#define ZARF_SYM_CONCOLIC_HH

#include <string>
#include <vector>

#include "fuzz/replay.hh"
#include "sym/explore.hh"
#include "verify/budget.hh"

namespace zarf::sym
{

/** Final classification of one explored path. */
enum class PathCheck
{
    Feasible,        ///< Satisfiable; replay not requested.
    Replayed,        ///< Satisfiable, replayed, all checks held.
    Unsat,           ///< Proven infeasible; nothing to replay.
    Unknown,         ///< Solver undecided; cannot replay.
    Truncated,       ///< Path incomplete (fuel); cannot replay.
    SkippedResource, ///< Replay tripped a resource bound; no verdict.
    Diverged,        ///< HARD FAILURE: prediction ≠ machine.
};

const char *pathCheckName(PathCheck c);

/** One path's full record. */
struct PathReport
{
    Script script;
    PathRun::Status symStatus = PathRun::Status::Truncated;
    std::string symDetail;
    SolveStatus solve = SolveStatus::Unknown;
    PathCheck check = PathCheck::Truncated;
    /** Divergence description / solver note / skip cause. */
    std::string detail;
    /** Verified satisfying assignment (solve == Sat). */
    std::vector<SWord> model;
    /** Predicted λ-cycles, load included: the path's exact
     *  Machine::cycles() (partial for a truncated path). */
    Cycles predictedCycles = 0;
    /** Concrete µop-machine cycles of the replay (when replayed). */
    Cycles concreteCycles = 0;
    /** Taint footprint: union variable support of the path's
     *  condition, result, and I/O (non-interference input). */
    uint64_t observedSupport = 0;
    /** The concretized reproducer image (populated on Diverged). */
    Image witness;
};

/** Harness configuration. */
struct ConcolicConfig
{
    SymEvalConfig eval{};
    ExploreConfig explore{};
    SolverConfig solver{};
    /** Oracle sizing for every replay (the budget pointer inside is
     *  ignored; each replay gets a fresh token from replayBudget). */
    fuzz::OracleConfig oracle{};
    /** Per-replay budget; zero axes mean unlimited. */
    verify::BudgetSpec replayBudget{};
    /** Replay worker threads (0 = hardware concurrency). Never
     *  affects the report, only wall-clock time. */
    unsigned threads = 1;
    /** Seed for auxiliary deterministic sampling (witness search). */
    uint64_t seedBase = 1;
    /** Replay satisfiable paths (false = explore/solve only). */
    bool replay = true;
};

/** The harness verdict for one image. */
struct ConcolicReport
{
    /** False when the original image was rejected, skipped, or
     *  itself diverged under the oracle — nothing was explored. */
    bool originalUsable = false;
    std::string originalDetail;

    unsigned numVars = 0;
    bool exhaustive = false;
    /** WCET claim: max per-path cycles + load cycles. A bound for
     *  the whole program only when wcetComplete. */
    Cycles wcetBound = 0;
    bool wcetComplete = false;

    uint64_t feasiblePaths = 0;
    uint64_t replayedPaths = 0;
    uint64_t divergedPaths = 0;
    uint64_t unsatPaths = 0;
    uint64_t unknownPaths = 0;
    uint64_t truncatedPaths = 0;
    uint64_t skippedPaths = 0;

    std::vector<PathReport> paths;

    /** No divergence anywhere (vacuously true when the original was
     *  unusable — callers that require exploration check
     *  originalUsable too). */
    bool ok() const { return divergedPaths == 0; }
};

/**
 * Patch a model into a program's symbolic sites and re-encode. The
 * sites come from collectSymSites, the same canonical order as the
 * evaluator's site table, so site k is variable k by construction.
 */
Image concretizeImage(const Program &program,
                      const std::vector<SWord> &model,
                      unsigned maxVars);

/** Run the whole harness on one image. */
ConcolicReport runConcolic(const Image &image,
                           const ConcolicConfig &cfg = {});

/** Non-interference verdict over a finished report. */
struct NiResult
{
    /** True iff no possibly-feasible path's observables (condition,
     *  result, I/O) depend on a secret variable. */
    bool holds = true;
    /** Indices into report.paths of the leaking paths. */
    std::vector<size_t> leakyPaths;
    /** A concrete interference witness was reproduced: two runs
     *  differing only in secret inputs with different observables. */
    bool witnessFound = false;
    std::string witnessDetail;
};

/**
 * Check non-interference: `secretMask` bit k marks symbolic variable
 * k secret. Leak detection is symbolic (taint over observedSupport,
 * Unsat paths excluded); when a leaky path carries a model, a
 * concrete witness pair is searched by perturbing the secret
 * variables and replaying both images.
 */
NiResult checkNoninterference(const Image &image,
                              const ConcolicReport &report,
                              uint64_t secretMask,
                              const ConcolicConfig &cfg = {});

} // namespace zarf::sym

#endif // ZARF_SYM_CONCOLIC_HH
