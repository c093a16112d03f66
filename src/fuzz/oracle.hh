/**
 * @file
 * The differential conformance oracle: one candidate image, every
 * evaluator, one verdict.
 *
 * A candidate binary image is run through the Zarf evaluators — the
 * eager big-step reference (sem/bigstep.hh), the lazy small-step
 * reference (sem/smallstep.hh), the lifted-IR evaluator, and the
 * cycle-level machine on every rung of its dispatch-tier ladder:
 * walking raw image words and the µop core (machine/threaded.cc),
 * with and without the cycle model — plus an untraced re-run of the
 * µop core and a snapshot/restore replay of the machine mid-run. The
 * verdict says whether the implementations agree under the
 * documented equivalence map below.
 *
 * Equivalence map (what may legitimately differ, and why):
 *
 *  - Undecodable images (decodeProgram rejects) are `Rejected`: the
 *    reference interpreters need an AST, so only the machines run —
 *    bounded, asserting nothing beyond "no crash, no UB" (the
 *    sanitizer presets give that teeth).
 *  - The µop loader validates structure and operand encodings at
 *    load (machine/predecode.hh); the word-walking path only fails
 *    when execution reaches the bad word. A µop-path Stuck whose
 *    diagnostic begins with "predecode:" is therefore `Rejected`,
 *    not a divergence — it is the documented load-time/run-time
 *    strictness difference, and the other engines' behavior on such
 *    images is not compared.
 *  - On every decode-accepted, predecode-accepted image the two
 *    cycle-accurate machine implementations (word-walk and the µop
 *    core) must agree *bit-exactly*: status, diagnostic, value,
 *    total cycles, the complete statistics block, and the I/O log.
 *    Anything less is a `Divergence`. The threaded leg
 *    (`compareThreaded`) re-runs the µop core untraced — Threaded
 *    names the same core — and is held to the same bit-exactness,
 *    which checks that tracing does not change a run.
 *  - The fast-functional tier abandons the cycle model, so it is
 *    held to *outcome* equality with the µop run — status,
 *    diagnostic, value, and the I/O log — and only when both runs
 *    terminated (Done or Stuck). Resource bounds fire at different
 *    points on a tier with no cycle clock, so runs where either
 *    side hit its budget or ran out of memory compare nothing.
 *  - The lazy small-step engine is the semantic reference for every
 *    decoded program: machine Done ⇔ small-step Done with
 *    structurally equal values, machine Stuck ⇔ small-step Stuck
 *    (diagnostic texts are not compared — the engines are
 *    deliberately independent implementations). Resource exhaustion
 *    on either side (machine out-of-memory or cycle budget,
 *    small-step fuel) is `Skip`: the bounds are host artifacts, not
 *    semantics.
 *  - The eager big-step engine is compared only when the program
 *    passes scope validation *and* references no I/O primitive:
 *    eagerness forces bindings a lazy engine never touches, so on
 *    scope-invalid or I/O-bearing programs the engines legitimately
 *    observe different worlds (different I/O order, Stuck on a
 *    lazily-unreachable bad reference). Its fuel/depth limits skip
 *    only the big-step comparison.
 *  - The lifted-IR evaluator (ir/lift.hh + ir/eval.hh, the fifth
 *    evaluator family) runs whenever `compareIr` is set and the µop
 *    run terminated (Done or Stuck) within its bounds. Lifting must
 *    *succeed* on every image the machine accepted — a lift
 *    rejection here is itself a divergence (lift soundness) — and
 *    the evaluation must match the µop run exactly: outcome class,
 *    value, I/O log, and the complete λ-cycle ledger including load
 *    and the deep-force export (Machine::cycles() equality, for
 *    Done and Stuck alike). Diagnostic texts are not compared (the
 *    IR evaluator is an independent implementation, like the
 *    small-step engine). The IR evaluator's heap is host-side and
 *    unbounded, so machine out-of-memory runs were already skipped
 *    before this comparison; GC never touches Machine::cycles(), so
 *    a collector-free evaluator can still match it exactly.
 *  - I/O values are deterministic (RecordBus): getint returns a pure
 *    function of (port, call ordinal), so equal read *sequences*
 *    imply equal read values, and the interleaved write logs of the
 *    lazy engines must match when both complete.
 *  - Snapshot replay: running the image straight through and
 *    running it to roughly half its cycles, snapshotting, restoring
 *    into a fresh machine on the same bus, and finishing must
 *    produce bit-identical outcome, cycles, and statistics.
 */

#ifndef ZARF_FUZZ_ORACLE_HH
#define ZARF_FUZZ_ORACLE_HH

#include <string>

#include "fuzz/coverage.hh"
#include "isa/binary.hh"
#include "machine/machine.hh"
#include "sem/io.hh"

namespace zarf::fuzz
{

/** Outcome class of one oracle evaluation. */
enum class Verdict
{
    Agree,      ///< All comparable evaluators agreed.
    Rejected,   ///< Rejected at decode or µop load; nothing to compare.
    Skip,       ///< A resource bound fired before agreement was decidable.
    Divergence, ///< Two evaluators observably disagreed. The finding.
};

/** Stable name of a verdict. */
const char *verdictName(Verdict v);

/** Oracle sizing. */
struct OracleConfig
{
    /** Machine semispace; small enough that allocation-heavy
     *  candidates exercise the collector. */
    size_t semispaceWords = 1u << 15;
    /** Machine cycle budget per run (Skip when exceeded). */
    Cycles maxCycles = 1'000'000;
    /** Small-step fuel (Skip when exhausted). */
    uint64_t semSteps = 500'000;
    /** Big-step fuel. */
    uint64_t bigSteps = 500'000;
    /** Compare the eager reference where the map allows it. */
    bool compareBigStep = true;
    /** Re-run the µop core untraced (DispatchTier::Threaded) and
     *  bit-compare it with the traced run. */
    bool compareThreaded = true;
    /** Run and outcome-compare the fast-functional tier. */
    bool compareFast = true;
    /** Run the snapshot/restore replay check. */
    bool snapshotReplay = true;
    /** Lift the image to analysis IR and compare the reference IR
     *  evaluation bit-exactly (outcome/value/IO/cycles) against the
     *  µop run. Default-on everywhere, including the nightly fuzz
     *  rotation; `--no-compare-ir` switches it off in the CLI. */
    bool compareIr = true;
    /** Cooperative cancellation/budget token (verify/budget.hh),
     *  shared by every machine the oracle builds. A trip — observed
     *  by any of them, or latched externally — makes the verdict
     *  `Skip` (host bounds are not semantics, and host-time trips
     *  are not tier-invariant, so nothing is compared). Null =
     *  unlimited. Not owned. */
    verify::Budget *budget = nullptr;
};

/**
 * Deterministic I/O fixture: getint returns a pure mix of the port
 * and the per-bus call ordinal, and both directions are logged, so
 * two engines that issue the same I/O sequence read the same values
 * and produce comparable logs.
 */
class RecordBus : public IoBus
{
  public:
    struct IoOp
    {
        bool isGet;
        SWord port;
        SWord value;

        bool
        operator==(const IoOp &o) const
        {
            return isGet == o.isGet && port == o.port &&
                   value == o.value;
        }
    };

    SWord
    getInt(SWord port) override
    {
        SWord v = scripted(port, ordinal++);
        ops.push_back({ true, port, v });
        return v;
    }

    void
    putInt(SWord port, SWord value) override
    {
        ops.push_back({ false, port, value });
    }

    /** The value read for (port, ordinal) — pure and host-stable. */
    static SWord
    scripted(SWord port, uint64_t ordinal)
    {
        uint64_t z = uint64_t(port) * 0x9e3779b97f4a7c15ull +
                     ordinal * 0xbf58476d1ce4e5b9ull;
        z ^= z >> 29;
        return SWord(z & 0xffff) - 0x8000;
    }

    std::vector<IoOp> ops;

  private:
    uint64_t ordinal = 0;
};

/** One candidate's oracle evaluation. */
struct OracleResult
{
    Verdict verdict = Verdict::Skip;
    /** Human-readable explanation: the divergence description, the
     *  rejection reason, or the bound that fired. */
    std::string detail;
    /** Coverage signature of the µop-path machine run. */
    CoverageSig coverage;

    MachineStatus uopStatus = MachineStatus::Running;
    std::string uopDiagnostic;
    bool decodeOk = false;
    bool comparedBigStep = false;
    /** True when the fast-functional outcome comparison applied
     *  (both the µop and fast runs terminated). */
    bool fastCompared = false;
    bool snapshotChecked = false;
    /** True when the lifted-IR comparison applied (compareIr set and
     *  the µop run terminated within bounds). */
    bool irCompared = false;

    // Observables of the µop-path run, recorded before any verdict
    // gate: external validators (the concolic harness, sym/) compare
    // per-path predictions against the machine without rerunning it.
    /** Total µop-machine cycles (load + execution; GC excluded, as
     *  in Machine::cycles()). */
    Cycles uopCycles = 0;
    /** Final value of the µop run (null unless Done). */
    ValuePtr uopValue;
    /** Complete I/O log of the µop run, in issue order. */
    std::vector<RecordBus::IoOp> uopIo;
};

/** Evaluate one candidate image under the equivalence map. */
OracleResult runOracle(const Image &image,
                       const OracleConfig &cfg = {});

/** Does any let in the program call getint/putint (directly or as a
 *  partial application)? Such programs exclude the eager engine. */
bool usesIo(const Program &program);

/** Bit-exact machine statistics comparison; returns an empty string
 *  on equality, else the first differing field with both values
 *  ("unlisted fields differ" when only fields the named list omits
 *  differ). */
std::string diffStats(const MachineStats &a, const MachineStats &b);

} // namespace zarf::fuzz

#endif // ZARF_FUZZ_ORACLE_HH
