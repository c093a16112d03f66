/**
 * @file
 * Cooperative cancellation/budget token for long-running runners
 * (docs/RESILIENCE.md, "Harness resilience").
 *
 * A Budget bounds one task — a campaign scenario, one oracle
 * evaluation, a co-simulated system run — along four axes: simulated
 * λ cycles, host wall-clock milliseconds, machine heap bytes, and an
 * external cancel flag another thread or a signal handler may raise.
 * The runner checks the token at its externally observable SYNC
 * points (the λ-machine between bounded advance chunks, the
 * co-simulation between slices, the oracle between evaluator runs);
 * the first limit to fire *latches*, and the run aborts with
 * MachineStatus::BudgetExceeded / fault::Outcome::BudgetExceeded
 * instead of spinning forever.
 *
 * Determinism: the λ-cycle and heap limits are functions of simulated
 * state only, so they trip at the same point on every host, thread
 * count, and cycle-accurate dispatch tier. The host-time limit and
 * the cancel flag are host artifacts — runners treat those trips as
 * transient (retryable), never as verdicts.
 *
 * Header-only and dependency-free below support/, so the machine
 * layer can accept a Budget without linking the verify library.
 */

#ifndef ZARF_VERIFY_BUDGET_HH
#define ZARF_VERIFY_BUDGET_HH

#include <atomic>
#include <chrono>
#include <cstdint>

#include "support/types.hh"

namespace zarf::verify
{

/** Which limit fired first. Latched: a Budget trips at most once. */
enum class BudgetTrip : uint8_t
{
    None = 0,
    Cycles,   ///< Simulated λ-cycle limit (deterministic).
    Heap,     ///< Machine heap-byte limit (deterministic).
    HostTime, ///< Host wall-clock limit (transient; retryable).
    Cancelled ///< External cancel flag (transient; retryable).
};

/** Stable display name of a trip cause. */
inline const char *
budgetTripName(BudgetTrip t)
{
    switch (t) {
      case BudgetTrip::None:
        return "none";
      case BudgetTrip::Cycles:
        return "lambda-cycles";
      case BudgetTrip::Heap:
        return "heap-bytes";
      case BudgetTrip::HostTime:
        return "host-time";
      case BudgetTrip::Cancelled:
        return "cancelled";
    }
    return "?";
}

/** True for the trip causes that are host artifacts rather than
 *  functions of the simulated state — the ones a supervisor retries
 *  before quarantining (verify/supervise.hh). */
inline bool
budgetTripTransient(BudgetTrip t)
{
    return t == BudgetTrip::HostTime || t == BudgetTrip::Cancelled;
}

/** The limits; 0 on any axis means unlimited. */
struct BudgetSpec
{
    /** Total simulated λ cycles (the machine clock: load +
     *  execution; load + steps on the fast-functional tier). */
    Cycles maxLambdaCycles = 0;
    /** Host wall-clock milliseconds from the Budget's construction
     *  (or the last armHostDeadline()). */
    uint64_t maxHostMillis = 0;
    /** Machine heap bytes in use at a check point. */
    uint64_t maxHeapBytes = 0;

    bool
    any() const
    {
        return maxLambdaCycles || maxHostMillis || maxHeapBytes;
    }
};

/**
 * The token. Thread-safe: cancel() and check() may race freely; the
 * first trip wins and every later observer sees it. A Budget is not
 * resettable — supervised retries construct a fresh one per attempt
 * so a stale trip can never leak into the next run.
 */
class Budget
{
  public:
    explicit Budget(BudgetSpec spec = {}) : limits(spec)
    {
        armHostDeadline();
    }

    Budget(const Budget &) = delete;
    Budget &operator=(const Budget &) = delete;

    /** Restart the host-time clock at "now" (the constructor already
     *  arms it; a runner that queues tasks re-arms at dequeue). */
    void
    armHostDeadline()
    {
        start = std::chrono::steady_clock::now();
    }

    /** Raise the external cancel flag (any thread). The run aborts
     *  at its next check point with BudgetTrip::Cancelled. */
    void
    cancel()
    {
        cancelFlag.store(true, std::memory_order_relaxed);
    }

    bool
    cancelRequested() const
    {
        return cancelFlag.load(std::memory_order_relaxed);
    }

    /** The latched trip cause (None while within budget). */
    BudgetTrip
    tripped() const
    {
        return BudgetTrip(trip.load(std::memory_order_acquire));
    }

    const BudgetSpec &spec() const { return limits; }

    /** Host milliseconds since the deadline was armed. */
    uint64_t
    hostElapsedMs() const
    {
        using namespace std::chrono;
        return uint64_t(duration_cast<milliseconds>(
                            steady_clock::now() - start)
                            .count());
    }

    /**
     * The SYNC-point check: given the current simulated cycle count
     * and heap usage, latch and return the first limit that fired
     * (or the already-latched trip). Deterministic limits are tested
     * before host-time so a run that blows both always reports the
     * reproducible cause.
     */
    BudgetTrip
    check(Cycles lambdaCycles, uint64_t heapBytes)
    {
        BudgetTrip t = tripped();
        if (t != BudgetTrip::None)
            return t;
        if (limits.maxLambdaCycles &&
            lambdaCycles >= limits.maxLambdaCycles)
            return latch(BudgetTrip::Cycles);
        if (limits.maxHeapBytes && heapBytes > limits.maxHeapBytes)
            return latch(BudgetTrip::Heap);
        if (cancelRequested())
            return latch(BudgetTrip::Cancelled);
        if (limits.maxHostMillis &&
            hostElapsedMs() >= limits.maxHostMillis)
            return latch(BudgetTrip::HostTime);
        return BudgetTrip::None;
    }

  private:
    BudgetTrip
    latch(BudgetTrip t)
    {
        uint8_t expect = 0;
        trip.compare_exchange_strong(expect, uint8_t(t),
                                     std::memory_order_acq_rel);
        return tripped(); // first latch wins under a race
    }

    BudgetSpec limits;
    std::chrono::steady_clock::time_point start;
    std::atomic<bool> cancelFlag{ false };
    std::atomic<uint8_t> trip{ 0 };
};

} // namespace zarf::verify

#endif // ZARF_VERIFY_BUDGET_HH
