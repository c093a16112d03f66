/**
 * @file
 * The reference IR evaluator with a λ-cycle cost ledger.
 *
 * Evaluates a lifted module (ir/lift.hh) by lazy graph reduction
 * over a host-side node heap, charging cycles at exactly the control
 * points the machine's TimingModel charges them — load stream, boot
 * allocation, per-instruction bases, per-argument fetches,
 * allocations, WHNF checks, thunk entries, branch heads, field
 * pushes, primitive setup/operands/ops, update/return traffic, and
 * the deep-force export of the final value. On every image the
 * machine accepts, a correct lift evaluates to the machine's exact
 * outcome, value, I/O trace, and Machine::cycles() figure; the
 * differential oracle (fuzz/oracle.hh, compareIr) enforces this.
 * The evaluator is the core of ir/core.hh over the concrete domain;
 * the symbolic engine (sym/eval.hh) runs the same core over terms,
 * so its per-path cycles are this ledger too.
 *
 * Deliberate differences from the machine, and why they are sound:
 *   - The node heap is host-allocated and unbounded, so the
 *     evaluator never runs out of memory and never collects; the
 *     machine's cycle ledger excludes GC time by design (it is
 *     accounted separately, outside Machine::cycles()), so the
 *     ledgers still agree exactly. Oracle cases where the machine
 *     OOMs are skipped before IR comparison.
 *   - InvokeGc is therefore an identity with no collection — the
 *     machine charges its collection to the separate GC ledger, so
 *     this too is cycle-exact.
 *   - Export is fuel-bounded (exportFuel / hardStopCycles) instead
 *     of memory-bounded: on the machine a divergent deep force dies
 *     of heap exhaustion, which an unbounded host heap would turn
 *     into a hang. A correct evaluation never reaches either bound.
 */

#ifndef ZARF_IR_EVAL_HH
#define ZARF_IR_EVAL_HH

#include <string>

#include "ir/ir.hh"
#include "machine/timing.hh"
#include "sem/io.hh"
#include "sem/value.hh"

namespace zarf::ir
{

/** Evaluation limits and cost model. */
struct EvalConfig
{
    TimingModel timing{};
    /** Execution budget in λ-cycles after load, exactly like
     *  Machine::advance — a run not Done within it is OutOfFuel. */
    Cycles maxCycles = 1'000'000;
    /** Step bound on the deep-force export phase (which the machine
     *  bounds by heap memory instead). */
    Cycles exportFuel = 1'000'000'000;
    /** When nonzero: fail as OutOfFuel the moment the cycle ledger
     *  exceeds this absolute total. The oracle sets it to the
     *  machine's final cycle count — a correct evaluation ends at
     *  exactly that total and never trips it. */
    Cycles hardStopCycles = 0;
};

/** Outcome of one evaluation. */
struct Outcome
{
    enum class Status
    {
        Done,      ///< Reduced to a value (exported in `value`).
        Stuck,     ///< Semantically undefined state.
        OutOfFuel, ///< maxCycles / exportFuel / hardStop exhausted.
    };

    Status status = Status::Stuck;
    ValuePtr value; ///< Deeply forced result (Done only).
    std::string diagnostic;
    Cycles cycles = 0; ///< Final ledger: load + execution + export.
};

/** Name of an Outcome::Status, for diagnostics. */
const char *outcomeStatusName(Outcome::Status st);

/** Evaluate a module's entry function to completion. */
Outcome evalModule(const Module &m, IoBus &bus,
                   const EvalConfig &config = {});

} // namespace zarf::ir

#endif // ZARF_IR_EVAL_HH
