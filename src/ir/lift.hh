/**
 * @file
 * The sound lifter: decoded Zarf programs → analysis IR.
 *
 * Soundness contract: for every image the machine loader accepts,
 * lifting succeeds and the lifted module's reference evaluation
 * (ir/eval.hh) agrees with the machine bit-for-bit — outcome, value,
 * I/O trace, and λ-cycle count. For every image the loader rejects,
 * lifting rejects with the same gate (header, predecode, or decode)
 * — a rejected image is never lifted into well-formed IR. The
 * contract is enforced continuously by the differential oracle's
 * compareIr evaluator (fuzz/oracle.hh) and by tests/test_ir_lift.cc.
 *
 * The lifter is total on decoded ASTs: liftProgram never fails,
 * because every structural hazard the decoder admits (wide callee
 * ids, out-of-range slot indices) is representable — wide ids lift
 * to CalleeClass::Unknown and fault at evaluation time exactly as
 * the machine faults, rather than being rejected ahead of it.
 */

#ifndef ZARF_IR_LIFT_HH
#define ZARF_IR_LIFT_HH

#include <string>
#include <vector>

#include "ir/ir.hh"
#include "isa/ast.hh"
#include "isa/binary.hh"

namespace zarf
{
class LoadedImage;
} // namespace zarf

namespace zarf::ir
{

/** Outcome of lifting. */
struct LiftResult
{
    bool ok = false;
    std::string error; ///< Gate + diagnostic when !ok ("header: …",
                       ///< "predecode: …", "decode: …").
    Module module;     ///< Valid when ok.

    /** Pointers to the entry body's immediate operand sites in the
     *  canonical order (isa/sites.hh), parallel to
     *  module.entrySites. Filled only by the mutable-Program
     *  overload; consumers (sym's site collection) write solver
     *  models back through them. */
    std::vector<Operand *> entrySitePtrs;
};

/** Lift a decoded AST. Never fails. `imageWords` seeds the module's
 *  load-cycle ledger when the AST has binary provenance. */
LiftResult liftProgram(const Program &program, size_t imageWords = 0);

/** Same, and additionally collect writable pointers to the entry
 *  body's immediate operand sites (entrySitePtrs). The program must
 *  outlive any use of the pointers. */
LiftResult liftProgram(Program &program, size_t imageWords = 0);

/** Lift a load artifact. Rejects exactly when the machine loader
 *  would refuse to run it (bad header, predecode failure, decode
 *  failure). */
LiftResult liftLoaded(const LoadedImage &li);

/** Same, for a caller that has already decoded the artifact's image
 *  successfully: `decoded` must be decodeProgram(li.image).program.
 *  Keeps the header, predecode and entry gates. */
LiftResult liftLoaded(const LoadedImage &li, const Program &decoded);

/** Convenience: build the load artifact and lift it. */
LiftResult liftImage(const Image &image);

} // namespace zarf::ir

#endif // ZARF_IR_LIFT_HH
