/**
 * @file
 * Per-task supervision for the worker pool (docs/RESILIENCE.md,
 * "Harness resilience").
 *
 * Tasks fanned across verify::detail::poolRun are cooperative: they
 * check their Budget (verify/budget.hh) at SYNC points and abort
 * with a latched trip. Budget::check tests the host-time deadline
 * itself, so a task that stalls between check points (one enormous
 * GC, a pathological host stall) trips BudgetTrip::HostTime at its
 * next one — no watcher thread could stop it any sooner.
 *
 * Supervision adds a *retry policy* with capped exponential backoff:
 * transient trips (host time, cancellation — functions of host load,
 * not of the input) are retried with a fresh Budget; deterministic
 * trips (λ-cycle or heap limits — the same input trips them every
 * time) and retry exhaustion classify the input as wedging, which
 * the runner quarantines (verify/quarantine.hh) so the campaign
 * terminates with a complete report.
 */

#ifndef ZARF_VERIFY_SUPERVISE_HH
#define ZARF_VERIFY_SUPERVISE_HH

#include <cstdint>
#include <functional>

#include "verify/budget.hh"

namespace zarf::verify
{

/** Capped exponential backoff between retries of a transient trip. */
struct RetryPolicy
{
    /** Total attempts (first run included); minimum 1. */
    unsigned maxAttempts = 3;
    /** Backoff before the second attempt; doubles per retry. 0
     *  disables sleeping (tests). */
    uint64_t backoffBaseMs = 10;
    /** Backoff ceiling — the documented cap on the doubling. */
    uint64_t backoffCapMs = 2000;

    /** Milliseconds to sleep before attempt `attempt` (2-based: the
     *  first retry is attempt 2). Saturating, never overflows. */
    uint64_t delayBeforeAttemptMs(unsigned attempt) const;
};

/** Sleep for the policy's backoff before `attempt` (no-op for the
 *  first attempt or a zero base). */
void backoffSleep(const RetryPolicy &policy, unsigned attempt);

/**
 * Run one task under budget + retry supervision.
 *
 * `attempt(budget, attemptNo)` runs the task against a fresh Budget
 * built from `spec` (host deadline armed at construction) and
 * returns when the task completes or aborts on a trip. The
 * attempt's trip cause decides what happens next:
 *
 *   None                  -> done, ok;
 *   transient trip        -> backoff, retry (up to maxAttempts);
 *   deterministic trip    -> done, wedged (no retry: same input,
 *                            same trip);
 *   retries exhausted     -> done, wedged.
 *
 * Returns the final attempt's trip plus the attempt count; `wedged`
 * is the caller's cue to quarantine the input.
 */
struct SupervisedRun
{
    BudgetTrip trip = BudgetTrip::None;
    unsigned attempts = 0;
    bool wedged = false; ///< Deterministic trip or retries exhausted.
    unsigned retries() const { return attempts ? attempts - 1 : 0; }
};
SupervisedRun
superviseTask(const BudgetSpec &spec, const RetryPolicy &policy,
              const std::function<void(Budget &, unsigned)> &attempt);

} // namespace zarf::verify

#endif // ZARF_VERIFY_SUPERVISE_HH
