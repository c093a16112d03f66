/**
 * @file
 * The cycle-level model of the λ-execution layer hardware.
 *
 * Unlike the reference interpreters in src/sem, this machine
 * executes the *binary image* directly — it fetches and decodes
 * instruction words, keeps all values in a word-addressed semispace
 * heap, performs lazy graph reduction with in-place update, runs the
 * semispace trace collector, and charges cycles per control-FSM
 * state visit according to the TimingModel (see machine/timing.hh).
 *
 * The machine is resumable: advance(budget) executes until the
 * budget is exhausted or the program finishes, which is what the
 * two-layer co-simulation (src/system) uses to interleave it with
 * the imperative core at their respective clock rates.
 */

#ifndef ZARF_MACHINE_MACHINE_HH
#define ZARF_MACHINE_MACHINE_HH

#include <memory>
#include <string>
#include <vector>

#include "isa/binary.hh"
#include "machine/heap.hh"
#include "machine/stats.hh"
#include "machine/timing.hh"
#include "sem/io.hh"
#include "sem/value.hh"

namespace zarf::obs
{
class Metrics;
class Recorder;
} // namespace zarf::obs

namespace zarf::verify
{
class Budget;
} // namespace zarf::verify

namespace zarf
{

class LoadedImage;
class MachineSnapshot;

/**
 * How the host finds the next control-FSM state to visit — the
 * dispatch-tier ladder (docs/PERF.md, "The dispatch-tier ladder").
 * Neither cycle-accurate implementation changes a modelled cycle;
 * the fast-functional tier abandons the cycle model entirely.
 */
enum class DispatchTier : uint8_t
{
    /** Re-fetch and re-decode raw image words every step — the
     *  original reference machine, kept verbatim as the differential
     *  baseline. Cycle-accurate. */
    WordWalk,
    /** The µop core (machine/threaded.cc): direct-threaded dispatch
     *  over predecoded µop streams on the pooled hot path, each
     *  µop's handler resolved once at predecode time into a
     *  dispatch token. Cycle-accurate; the default. */
    Uop,
    /** A second name for the Uop tier: the same core, so results,
     *  cycles, statistics, traces, and snapshots are the Uop tier's
     *  by construction. Kept for the callers that still select it. */
    Threaded,
    /** The µop core without the cycle model: the same steps in the
     *  same order, with the cycle charges, the FSM tally, the
     *  per-µop trace events, and the interval-GC trigger
     *  (gcIntervalCycles) compiled out. cycles() counts *steps*
     *  (after the still-modelled load), and the per-instruction-
     *  class cycle fields and execCycles of stats() stop
     *  accumulating, export included; every other statistic
     *  (instruction, allocation, force, update, call, and GC
     *  counters, loadCycles, gcCycles) equals the µop run's when no
     *  GC interval is set, and lifecycle and GC events are still
     *  traced. For campaign and fuzz workloads only — never for
     *  timing. */
    FastFunctional,
};

/** Name of a DispatchTier value, for reports and bench rows. */
const char *dispatchTierName(DispatchTier t);

/** True for the tiers that execute predecoded µop streams (every
 *  tier except the word-walking reference path). */
inline bool
tierUsesPredecode(DispatchTier t)
{
    return t != DispatchTier::WordWalk;
}

/** True for the tiers held to the full cycle model (everything but
 *  FastFunctional). */
inline bool
tierCycleAccurate(DispatchTier t)
{
    return t != DispatchTier::FastFunctional;
}

/** Machine configuration. */
struct MachineConfig
{
    size_t semispaceWords = 1u << 20;
    TimingModel timing{};
    /** Also collect automatically when allocation fills the space
     *  (the paper's configurable GC trigger). The InvokeGc hardware
     *  function always collects. */
    bool gcOnExhaustion = true;
    /** Collect every N cycles (0 disables) — the paper's
     *  "configured to run at specific intervals" policy. */
    Cycles gcIntervalCycles = 0;
    /** Host dispatch tier (see DispatchTier). The cycle-accurate
     *  tiers are bit-identical to each other on every well-formed
     *  image. */
    DispatchTier tier = DispatchTier::Uop;
    /** Event sink for lifecycle/exec/GC events (null = tracing off;
     *  docs/OBSERVABILITY.md). Not owned; must outlive the machine. */
    obs::Recorder *trace = nullptr;
    /** Added to cycles() when stamping trace events — the system
     *  layer passes its epoch so timestamps share the λ clock across
     *  watchdog restarts. */
    Cycles traceBias = 0;
    /** Maintain the per-FSM-state visit/cycle tally (fsmTally()).
     *  Off by default: the hot path stays branch-only-on-a-bool. */
    bool fsmTally = false;
    /** Cooperative cancellation/budget token (verify/budget.hh).
     *  When set, advance() runs in bounded chunks and consults the
     *  token between them — at a step boundary every dispatch tier
     *  reaches identically — latching MachineStatus::BudgetExceeded
     *  on a trip. λ-cycle and heap trips land on the same cycle for
     *  every cycle-accurate tier; the fast-functional tier checks
     *  its own step clock. Null = unlimited (the default; the
     *  hot path pays nothing). Not owned; must outlive the machine
     *  and may be cancelled from any thread. */
    verify::Budget *budget = nullptr;
};

/** Current condition of the machine. */
enum class MachineStatus
{
    Running,     ///< More work to do; call advance again.
    Done,        ///< The program reduced to a value.
    OutOfMemory, ///< A collection could not make room.
    Stuck,       ///< Semantically undefined state (malformed image).
    HeapCorrupt, ///< Detected heap-integrity failure (GC to-space
                 ///< overflow, indirection cycle, wild reference).
                 ///< Recoverable by a system-level restart.
    MemFault,    ///< Uncorrectable memory fault signalled by the
                 ///< ECC/parity machinery (fault injection).
    BudgetExceeded, ///< The configured verify::Budget tripped — a
                    ///< host-side abort, not a machine fault. Latched
                    ///< like the failure statuses; the machine state
                    ///< at the trip point is consistent and
                    ///< snapshottable.
};

/** Name of a MachineStatus value, for diagnostics and reports. */
const char *machineStatusName(MachineStatus st);

/** The λ-execution layer. */
class Machine
{
  public:
    /**
     * Load a binary image. Loading itself is simulated (the four
     * load states) and charged to stats().loadCycles.
     *
     * @param image the program image (validated on load)
     * @param bus the I/O bus getint/putint talk to
     * @param config sizing and timing
     */
    Machine(const Image &image, IoBus &bus, MachineConfig config = {});

    /**
     * Construct from a shared load artifact (machine/loaded_image.hh)
     * instead of a raw image: header parsing, identifier metadata,
     * and µop predecoding are reused from the artifact rather than
     * redone. Bit-identical to the raw-image constructor in results,
     * cycles, statistics, and traces — modelled loading is still
     * simulated and charged in full. The artifact must have been
     * built with predecode support when the configured dispatch
     * tier executes µop streams (every tier but WordWalk).
     */
    Machine(std::shared_ptr<const LoadedImage> li, IoBus &bus,
            MachineConfig config = {});
    ~Machine();

    /**
     * Capture the complete architectural state (heap words, frame
     * stack, registers, statistics, status) so an equally-configured
     * machine over the same image can later restore() it. The
     * snapshot is immutable and shareable: one snapshot can seed any
     * number of forked machines, concurrently. Trace events are not
     * replayed — a restored machine emits exactly the events the
     * source had not yet emitted.
     */
    std::shared_ptr<const MachineSnapshot> snapshot() const;

    /** Adopt a state captured by snapshot(). The receiver must have
     *  the same semispace size, a state-compatible dispatch tier
     *  (Uop and Threaded, two names for one core, are
     *  interchangeable; WordWalk and FastFunctional only restore
     *  within their own tier), and the same image as the snapshot's
     *  source (fatal otherwise). */
    void restore(const MachineSnapshot &snap);

    /** Execute until the status changes or `budget` more cycles
     *  elapse. Returns the current status. */
    MachineStatus advance(Cycles budget);

    /** Convenience: run to completion (or maxCycles), then export
     *  the deeply forced result value. Null value if not Done. */
    struct Outcome
    {
        MachineStatus status;
        ValuePtr value;
        std::string diagnostic;
    };
    Outcome run(Cycles maxCycles = 2'000'000'000ull);

    /** Total cycles elapsed on the machine clock: load + execution.
     *  GC time is accounted separately in stats().gcCycles — the
     *  paper's WCET story (Sec. 5.2) bounds mutator execution and
     *  collection independently, and the system layer schedules
     *  against the mutator clock. */
    Cycles cycles() const;

    /** Current status without advancing. */
    MachineStatus status() const;

    /** Diagnostic string for the last non-Running status ("" while
     *  healthy). */
    const std::string &diagnostic() const;

    /** Dynamic statistics. */
    const MachineStats &stats() const;

    /** Per-FSM-state tally (all-zero unless MachineConfig::fsmTally).
     *  Partitions the cycle ledger: loadCycles()/execCycles()/
     *  gcCycles() match the corresponding stats() fields. */
    const FsmTally &fsmTally() const;

    /** Export stats() (and the tally, when enabled) into a metrics
     *  registry under `prefix`. */
    void exportMetrics(obs::Metrics &metrics,
                       const std::string &prefix = "lambda.") const;

    // --------------------------------------------------------------
    // Fault injection (src/fault). These model physical upsets; none
    // of them is reachable from program execution.
    // --------------------------------------------------------------

    /** Flip one bit of an allocated heap word (single-event upset).
     *  `wordIndex` selects among the currently allocated words
     *  (reduced modulo the live allocation); `bit` is reduced modulo
     *  32. Returns false (no-op) if the heap is empty. */
    bool injectHeapBitFlip(size_t wordIndex, unsigned bit);

    /** Flip one bit of the value register (in-flight operand SEU). */
    void injectOperandBitFlip(unsigned bit);

    /** Signal an uncorrectable memory fault, as the ECC/parity
     *  hardware would: the machine halts with MachineStatus::MemFault
     *  and `why` as its diagnostic. No-op unless Running. */
    void raiseMemFault(const std::string &why);

    /** Force a collection now (used by tests). */
    void collectNow();

    /** Words live in the heap after the last collection. */
    size_t heapUsedWords() const;

    /** Census of live heap objects after a collection: count of
     *  objects per (kind, fn id) pair. A debugging/analysis aid for
     *  finding space leaks in lazy programs. */
    struct CensusEntry
    {
        ObjKind kind;
        Word fn;
        size_t objects;
        size_t words;
    };
    std::vector<CensusEntry> heapCensus();

    /** A copy of the heap's whole backing store, both semispaces and
     *  the slack, object boundary or not: every word a corrupted
     *  reference could read. */
    std::vector<Word> heapStore() const;

  private:
    friend class MachineSnapshot; // needs Impl's state layout
    class Impl;
    std::unique_ptr<Impl> impl;
};

} // namespace zarf

#endif // ZARF_MACHINE_MACHINE_HH
