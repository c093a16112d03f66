/**
 * @file
 * Deterministic fault plans for the two-layer system.
 *
 * A FaultPlan is a seed-derived schedule of physical upsets — heap
 * and operand SEUs, ECG front-end failures, inter-layer FIFO faults,
 * imperative-core memory flips, and λ-pipeline wedges — applied by
 * TwoLayerSystem at scheduled λ-clock cycles. Plans are pure data:
 * the same (kind, seed, window) always yields the same events, so
 * fault campaigns are reproducible bit-for-bit across hosts and
 * thread counts (the determinism discipline of verify/parallel.hh).
 *
 * The plan also carries the *protection model*: with heapEcc on
 * (default), single-bit heap SEUs are corrected in place by the
 * SECDED code and double-bit SEUs become uncorrectable MemFaults;
 * with operandParity on, operand-path SEUs are detected rather than
 * silently consumed. Turning either off models an unprotected
 * memory, where the raw bit flip lands in live state.
 */

#ifndef ZARF_FAULT_PLAN_HH
#define ZARF_FAULT_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/types.hh"

namespace zarf::fault
{

/** The injectable fault classes. */
enum class FaultKind : uint8_t
{
    HeapSeu = 0,       ///< 1-bit flip of an allocated heap word.
                       ///< a = word selector, b = bit.
    HeapSeuDouble,     ///< 2-bit flip of one heap word (defeats
                       ///< SECDED correction). a = word selector,
                       ///< b = two packed bit positions (b & 0xff,
                       ///< (b >> 8) & 0xff).
    OperandSeu,        ///< 1-bit flip of the in-flight value
                       ///< register. b = bit.
    SensorDropout,     ///< ECG front-end reads 0. a = duration in
                       ///< samples.
    SensorStuck,       ///< ECG front-end repeats the last good
                       ///< sample. a = duration in samples.
    SensorNoise,       ///< Alternating-sign noise burst on the ECG.
                       ///< a = duration in samples, b = amplitude.
    ChanDrop,          ///< The next λ->mb channel word is lost.
    ChanDup,           ///< The next λ->mb channel word is duplicated.
    ChanOverflowBurst, ///< a junk words slam the bounded FIFO.
    MbMemSeu,          ///< 1-bit flip of an imperative-core data
                       ///< memory word (unprotected BRAM). a = word
                       ///< selector, b = bit.
    LambdaWedge,       ///< The λ pipeline stops retiring while its
                       ///< clock keeps counting (PLL/control hang).
                       ///< a = duration in λ cycles.
};

constexpr size_t kNumFaultKinds = 11;

/** Stable display name of a fault kind (used in JSON reports). */
const char *faultKindName(FaultKind k);

/** One scheduled fault. */
struct FaultEvent
{
    Cycles atCycle = 0; ///< λ-clock cycle at (or just after) which
                        ///< the fault strikes.
    FaultKind kind = FaultKind::HeapSeu;
    uint64_t a = 0;     ///< Kind-specific parameter (see FaultKind).
    uint64_t b = 0;     ///< Kind-specific parameter (see FaultKind).

    bool operator==(const FaultEvent &) const = default;
};

/** A full injection schedule plus the protection model. */
struct FaultPlan
{
    /** Events sorted by atCycle (TwoLayerSystem applies them with a
     *  single forward cursor). */
    std::vector<FaultEvent> events;

    /** Auxiliary-randomness seed (noise-burst magnitudes). */
    uint64_t seed = 0;

    /** SECDED on heap words: single-bit SEUs are corrected at the
     *  injection site, double-bit SEUs raise MemFault. Off = flips
     *  land in live heap words. */
    bool heapEcc = true;

    /** Parity on the operand path: operand SEUs raise MemFault.
     *  Off = the flipped word is consumed. */
    bool operandParity = true;

    bool empty() const { return events.empty(); }

    bool operator==(const FaultPlan &) const = default;
};

/** Injection window in λ cycles, [begin, end). */
struct FaultWindow
{
    Cycles begin = 0;
    Cycles end = 0;
};

/**
 * Build a plan of `count` events of one kind at seed-derived cycles
 * inside `window`, with seed-derived kind parameters. Deterministic:
 * identical arguments yield an identical plan.
 */
FaultPlan singleKindPlan(FaultKind kind, uint64_t seed,
                         FaultWindow window, size_t count = 1);

} // namespace zarf::fault

#endif // ZARF_FAULT_PLAN_HH
