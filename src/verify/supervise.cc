#include "verify/supervise.hh"

#include <chrono>
#include <thread>

namespace zarf::verify
{

uint64_t
RetryPolicy::delayBeforeAttemptMs(unsigned attempt) const
{
    if (attempt <= 1 || backoffBaseMs == 0)
        return 0;
    // backoffBaseMs << (attempt - 2), saturating at the cap so the
    // shift can never overflow however many retries are configured.
    unsigned shift = attempt - 2;
    uint64_t cap = backoffCapMs ? backoffCapMs : backoffBaseMs;
    if (shift >= 63 || backoffBaseMs >= (cap >> shift))
        return cap;
    uint64_t d = backoffBaseMs << shift;
    return d < cap ? d : cap;
}

void
backoffSleep(const RetryPolicy &policy, unsigned attempt)
{
    uint64_t ms = policy.delayBeforeAttemptMs(attempt);
    if (ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

SupervisedRun
superviseTask(const BudgetSpec &spec, const RetryPolicy &policy,
              const std::function<void(Budget &, unsigned)> &attempt)
{
    SupervisedRun run;
    unsigned maxAttempts =
        policy.maxAttempts ? policy.maxAttempts : 1;
    for (;;) {
        ++run.attempts;
        backoffSleep(policy, run.attempts);
        Budget budget(spec);
        attempt(budget, run.attempts);
        run.trip = budget.tripped();
        if (run.trip == BudgetTrip::None)
            return run;
        if (budgetTripTransient(run.trip) &&
            run.attempts < maxAttempts)
            continue;
        run.wedged = true;
        return run;
    }
}

} // namespace zarf::verify
