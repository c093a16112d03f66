/**
 * @file
 * Dynamic statistics of the λ-execution layer machine, matching the
 * measurements reported in the paper's evaluation (Sec. 6): per-
 * instruction-class cycle counts and CPI, average let arity, the
 * branch-head fraction of the dynamic instruction stream, and
 * garbage-collection accounting.
 */

#ifndef ZARF_MACHINE_STATS_HH
#define ZARF_MACHINE_STATS_HH

#include <array>
#include <map>
#include <string>

#include "machine/timing.hh"
#include "support/types.hh"

namespace zarf::obs
{
class Metrics;
} // namespace zarf::obs

namespace zarf
{

/** Stable lowercase name of a control state ("ap.fetch-let"). */
const char *mstateName(MState s);

/**
 * Per-control-state visit and cycle tally.
 *
 * Optional instrumentation (MachineConfig::fsmTally): every cycle
 * the machine charges is attributed to one of the 66 FSM states, so
 * the tally partitions the cycle ledger exactly —
 * loadCycles() == stats.loadCycles, execCycles() == stats.execCycles
 * and gcCycles() == stats.gcCycles (asserted by the obs property
 * suite).
 */
struct FsmTally
{
    std::array<uint64_t, kTotalStates> visits{};
    std::array<Cycles, kTotalStates> cycles{};

    /** One visit of s costing n cycles. */
    void
    add(MState s, Cycles n)
    {
        addN(s, 1, n);
    }

    /** v visits of s costing n cycles in total. */
    void
    addN(MState s, uint64_t v, Cycles n)
    {
        visits[static_cast<size_t>(s)] += v;
        cycles[static_cast<size_t>(s)] += n;
    }

    /** Merge another tally into this one. */
    void accumulate(const FsmTally &other);

    /** Cycles across the load states. */
    Cycles loadCycles() const;
    /** Cycles across the apply + eval states. */
    Cycles execCycles() const;
    /** Cycles across the GC states. */
    Cycles gcCycles() const;

    bool operator==(const FsmTally &) const = default;
};

/** Counters for one instruction class. */
struct ClassStats
{
    uint64_t count = 0;
    Cycles cycles = 0;

    double
    cpi() const
    {
        return count ? double(cycles) / double(count) : 0.0;
    }

    bool operator==(const ClassStats &) const = default;
};

/** Full machine statistics. */
struct MachineStats
{
    ClassStats let;
    ClassStats caseInstr;
    ClassStats result;
    uint64_t branchHeads = 0;   ///< Pattern comparisons executed.
    uint64_t letArgs = 0;       ///< Total let arguments processed.

    uint64_t allocations = 0;   ///< Objects allocated.
    uint64_t allocatedWords = 0;
    uint64_t forces = 0;        ///< Thunk entries.
    uint64_t whnfHits = 0;      ///< Forces satisfied by a check.
    uint64_t updates = 0;
    uint64_t errorsCreated = 0; ///< Reserved-Error instances built.

    Cycles loadCycles = 0;
    Cycles execCycles = 0;      ///< Everything but load and GC.

    /** Activations (saturated body entries) per function id — the
     *  machine's whole-run profile. Names live in the decoded
     *  program, not the binary; resolve via Program::decls. */
    std::map<Word, uint64_t> callsPerFunc;

    // Garbage collection.
    uint64_t gcRuns = 0;
    Cycles gcCycles = 0;
    uint64_t gcObjectsCopied = 0;
    uint64_t gcWordsCopied = 0;
    uint64_t gcRefChecks = 0;
    uint64_t gcMaxLiveWords = 0;
    Cycles gcMaxPauseCycles = 0; ///< Longest single collection.

    /** Dynamic instructions: lets + cases + results + branch heads
     *  (the paper counts branch heads in the dynamic stream). */
    uint64_t
    dynamicInstructions() const
    {
        return let.count + caseInstr.count + result.count +
               branchHeads;
    }

    /** CPI over the dynamic stream, excluding GC (paper: 7.46). */
    double
    cpiNoGc() const
    {
        uint64_t n = dynamicInstructions();
        return n ? double(execCycles) / double(n) : 0.0;
    }

    /** CPI including GC time (paper: 11.86). */
    double
    cpiWithGc() const
    {
        uint64_t n = dynamicInstructions();
        return n ? double(execCycles + gcCycles) / double(n) : 0.0;
    }

    /** Average arguments per let (paper: 5.16). */
    double
    avgLetArgs() const
    {
        return let.count ? double(letArgs) / double(let.count) : 0.0;
    }

    /** Branch heads as a fraction of dynamic instructions. */
    double
    branchHeadFraction() const
    {
        uint64_t n = dynamicInstructions();
        return n ? double(branchHeads) / double(n) : 0.0;
    }

    /** Render a human-readable report. */
    std::string report() const;

    /** Merge another run's statistics into this one (counters sum,
     *  high-water marks take the max, per-function profiles merge by
     *  key). Used to aggregate across watchdog restarts. */
    void accumulate(const MachineStats &other);

    bool operator==(const MachineStats &) const = default;
};

/** Export the statistics as "<prefix>..." counters. */
void exportStats(const MachineStats &stats, obs::Metrics &metrics,
                 const std::string &prefix);

/** Export the tally as paired "<histogram>.visits"/".cycles"
 *  histograms with one bucket per state, in state order. */
void exportTally(const FsmTally &tally, obs::Metrics &metrics,
                 const std::string &histogram);

} // namespace zarf

#endif // ZARF_MACHINE_STATS_HH
