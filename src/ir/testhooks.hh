/**
 * @file
 * Deliberate-defect hooks for the IR lifting/evaluation pipeline.
 *
 * The compareIr differential evaluator (fuzz/oracle.hh) is itself
 * test infrastructure, so it needs its own mutation-kill evidence:
 * proof that a real lifting or transfer-rule bug would surface as an
 * oracle divergence rather than slipping through. These flags seed
 * such bugs on demand, mirroring machine/testhooks.hh and
 * sym/testhooks.hh. They sit in the evaluator core (ir/core.hh), so
 * they reach the concrete and the symbolic domain alike. All default
 * to false; production code never sets them. Tests that do must
 * restore them (RAII guard) — they are process-global.
 */

#ifndef ZARF_IR_TESTHOOKS_HH
#define ZARF_IR_TESTHOOKS_HH

namespace zarf::ir::testhooks
{

/** Drop the per-word payload charge from every IR allocation
 *  (app/cons/error objects charge only the header). A pure
 *  cost-ledger defect: values, I/O, and outcomes stay correct while
 *  the λ-cycle ledger under-counts on every program — including the
 *  boot-time entry application — so a bounded oracle campaign with
 *  compareIr must flag it on the first executed case. */
extern bool irBrokenAllocCharge;

/** Push constructor-pattern fields in reverse order on a case match.
 *  A semantic transfer-rule defect: any program that matches a
 *  constructor of two or more fields and then reads them binds the
 *  wrong values, diverging from the machine in value or outcome. */
extern bool irBrokenCaseFieldOrder;

} // namespace zarf::ir::testhooks

#endif // ZARF_IR_TESTHOOKS_HH
