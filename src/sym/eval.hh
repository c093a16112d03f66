/**
 * @file
 * The symbolic evaluator over decoded Zarf images: one run executes
 * one *path* of the program under a decision script, producing the
 * path condition, the symbolic result, the symbolic I/O log, and
 * the path's exact λ-cycle count (docs/SYMBOLIC.md).
 *
 * The evaluator is the IR evaluator core (ir/core.hh) over a
 * symbolic domain: the program is lifted once, and the core runs it
 * with the concrete evaluator's heap, frames, update collapsing, and
 * error-latching rules, except that a runtime integer is a symbolic
 * *term* (sym/term.hh). Wherever a term's concrete value would steer
 * control, the evaluator reaches a **choice point**:
 *
 *   - case dispatch on a symbolic integer scrutinee: one alternative
 *     per pattern (plus else), each contributing ==/!= atoms;
 *   - div/mod with a symbolic divisor: the non-zero continuation or
 *     the Error(kErrDivZero) continuation;
 *   - getint with a symbolic port: a single forced alternative that
 *     pins the port to its value under the seed assignment (the
 *     deterministic RecordBus scripts reads by (port, ordinal), so
 *     an unpinned port would make the read value symbolic in a way
 *     no finite path condition captures).
 *
 * The first `script.size()` choices are dictated by the script;
 * beyond it the evaluator takes the first alternative consistent
 * with the path condition and records which siblings were also
 * consistent, which is exactly what the explorer (sym/explore.hh)
 * needs to schedule the remaining paths.
 *
 * Cycle accounting: the core charges the machine's exact λ-cycle
 * ledger under the default TimingModel, so a complete path's cycle
 * count equals Machine::cycles() of any image that follows the path,
 * minus the load term (added by the consumer; GC is excluded on both
 * sides — machine cycles() is load + execution, with collection
 * accounted separately). The concolic harness (sym/concolic.hh)
 * checks that equality on every replayed path.
 */

#ifndef ZARF_SYM_EVAL_HH
#define ZARF_SYM_EVAL_HH

#include <memory>
#include <string>
#include <vector>

#include "isa/ast.hh"
#include "sem/value.hh"
#include "sym/solver.hh"
#include "sym/term.hh"

namespace zarf::sym
{

/** A deep-forced symbolic result value: the Value tree with integer
 *  leaves generalized to terms. */
struct SymValue;
using SymValuePtr = std::shared_ptr<const SymValue>;
struct SymValue
{
    enum class Kind { Int, Cons, Closure };
    Kind kind = Kind::Int;
    TermId t = kNoTerm; ///< Kind::Int.
    Word id = 0;        ///< Cons / Closure identifier.
    std::vector<SymValuePtr> items;

    /** Union variable support of every integer leaf. */
    uint64_t support(const TermArena &arena) const;
    std::string toString(const TermArena &arena) const;
};

/** Evaluate a symbolic value tree under a concrete assignment; null
 *  when a leaf term evaluates to an error (which cannot happen under
 *  a model of the path condition that produced the tree). */
ValuePtr concretizeValue(const TermArena &arena, const SymValue &v,
                         const std::vector<SWord> &assign);

/** One symbolic I/O operation. */
struct SymIo
{
    bool isGet = false;
    TermId port = kNoTerm;
    TermId value = kNoTerm;
};

/** One recorded choice point of a path. */
struct ChoiceRec
{
    /** Alternative actually taken. */
    unsigned taken = 0;
    /** Sibling alternatives (≠ taken) that were consistent with the
     *  path condition at this point — the explorer's frontier. */
    std::vector<unsigned> siblings;
};

/** The decision script: alternative index per choice point. */
using Script = std::vector<unsigned>;

/** Outcome of one path run. */
struct PathRun
{
    enum class Status
    {
        Done,      ///< The path terminates in a value.
        Stuck,     ///< The path latches the Stuck condition.
        Truncated, ///< Step/choice fuel exhausted; path incomplete.
    };

    Status status = Status::Truncated;
    std::string detail; ///< Stuck reason or truncation cause.
    /** Path condition (conjunction of atoms). */
    std::vector<Atom> pc;
    /** Symbolic result (status Done). */
    SymValuePtr value;
    /** Symbolic I/O log, in issue order. */
    std::vector<SymIo> io;
    /** The path's λ-cycles, load excluded: Machine::cycles() of an
     *  image that follows the path, minus its load cycles (partial
     *  when the path is truncated). */
    Cycles cycleBound = 0;
    /** Full choice trace, including the scripted prefix. */
    std::vector<ChoiceRec> choices;
    uint64_t steps = 0;

    /** Union support of pc, result, and I/O — the taint footprint
     *  the non-interference check inspects. */
    uint64_t observableSupport(const TermArena &arena) const;
};

/** Evaluator sizing. */
struct SymEvalConfig
{
    /** Evaluator-core steps per path; a path beyond this truncates. */
    uint64_t maxSteps = 200'000;
    /** Choice points per path; a fork beyond this truncates. */
    unsigned maxChoices = 24;
    /** Symbolic input sites claimed from the entry function. */
    unsigned maxVars = 8;
};

/**
 * Enumerate the symbolic input sites of a program: the immediate
 * operands of the entry function's body, in the canonical site order
 * (isa/sites.hh: let: arguments then body; case: scrutinee, branch
 * bodies in order, else; result: value), capped at maxVars. Site k
 * is the lifted module's entry site k (ir::Module::entrySites), which
 * the evaluator reads as variable k, so evaluator and patcher cannot
 * disagree about which site is which variable.
 *
 * @return one mutable operand pointer per symbolic variable, in
 *         variable order; pointers alias into `program`
 */
std::vector<Operand *> collectSymSites(Program &program,
                                       unsigned maxVars);

/**
 * The evaluator. Lifts the program once; one instance runs any
 * number of paths over it (runPath resets all per-path state).
 */
class SymEval
{
  public:
    SymEval(const Program &program, SymEvalConfig cfg = {});
    ~SymEval();

    /** Number of symbolic input variables claimed. */
    unsigned numVars() const;

    /** Original immediate value of each symbolic site — the seed
     *  assignment (models default to it, getint port pinning uses
     *  it). */
    const std::vector<SWord> &seedAssign() const;

    /** Run one path under `script` (see file header). */
    PathRun runPath(const Script &script);

    /** The shared term arena (valid for the evaluator's lifetime;
     *  terms persist across runPath calls). */
    const TermArena &arena() const;

  private:
    class Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace zarf::sym

#endif // ZARF_SYM_EVAL_HH
