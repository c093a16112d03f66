/**
 * @file
 * The machine-independent analysis IR (docs/IR.md).
 *
 * Every analysis in this repo ultimately reasons about the same
 * object: a decoded Zarf program. Until now each one re-derived the
 * semantics from the AST or the binary by hand. The IR is the shared
 * semantic artifact instead: a flat, let-normalized op table over
 * 31-bit words with resolved callees, explicit static effect
 * annotations, and per-op static cycle annotations drawn from the
 * machine's TimingModel — the representation the lifter (ir/lift.hh)
 * produces and the evaluator core (ir/core.hh) runs, concretely
 * (ir/eval.hh) and symbolically (sym/eval.hh).
 *
 * Design points:
 *   - SSA-ish let normalization is inherited from the ISA itself:
 *     every intermediate value is bound exactly once by a let, and
 *     ops reference values only through (source, index) operands.
 *     The lifter therefore preserves the instruction structure
 *     one-to-one instead of inventing a new binding discipline —
 *     soundness is a per-op local argument, checked globally by the
 *     differential oracle (fuzz/oracle.hh, the compareIr evaluator).
 *   - Control flow is explicit and forward-only: `next`, pattern
 *     bodies, and `elseBody` are op-table indices; there are no
 *     backward edges within a function (loops go through calls).
 *   - Callees are classified at lift time against the identifier
 *     table (primitive / constructor / user function / unknown), so
 *     consumers never re-derive the id-space split. Unknown is a
 *     real class: the decoder deliberately accepts wide callee ids
 *     and the machine faults at runtime, so the IR must carry the
 *     same latent fault rather than reject the program.
 *   - Effects are static *may* annotations (allocation, forcing,
 *     call, I/O, error construction, timing) — an op without a bit
 *     never performs that effect; an op with it may or may not,
 *     depending on dynamic values and laziness.
 */

#ifndef ZARF_IR_IR_HH
#define ZARF_IR_IR_HH

#include <cstdint>
#include <vector>

#include "isa/ast.hh"
#include "support/types.hh"

namespace zarf::ir
{

/** Kind of one IR op — exactly the ISA's three instructions. */
enum class OpKind : uint8_t
{
    Let,    ///< Apply a callee to arguments; bind the next local.
    Case,   ///< Force a value and pattern-match it.
    Result, ///< Yield a value to the forcing continuation.
};

/** What a resolved callee identifier names. */
enum class CalleeClass : uint8_t
{
    Unknown, ///< Dynamic (closure slot) or an id outside every
             ///< table — the machine faults when it is applied.
    Prim,    ///< A non-constructor hardware function (ALU, I/O, GC).
    Cons,    ///< A constructor (user-declared or the Error prim).
    Func,    ///< A user-declared function.
};

/** A lift-time-resolved callee. */
struct CalleeRef
{
    CalleeKind kind = CalleeKind::Func; ///< Func id vs. closure slot.
    CalleeClass cls = CalleeClass::Unknown;
    Word id = 0;    ///< Global id (Func) or slot index (Local/Arg).
    Word arity = 0; ///< Declared arity when cls is not Unknown.
};

/** Static may-effect bits of one op. */
enum : uint32_t
{
    kEffAlloc = 1u << 0, ///< May allocate (app/cons/error object).
    kEffForce = 1u << 1, ///< May force a thunk (case scrutinee).
    kEffCall = 1u << 2,  ///< May transfer control into a callee.
    kEffIo = 1u << 3,    ///< May reach a getint/putint transaction.
    kEffError = 1u << 4, ///< May construct a runtime Error value.
};

/** One pattern of a case op. */
struct Pattern
{
    bool isCons = false; ///< Constructor pattern vs. integer literal.
    SWord lit = 0;       ///< Literal value (isCons == false).
    Word consId = 0;     ///< Constructor identifier (isCons == true).
    Word fields = 0;     ///< Declared field count of that constructor
                         ///< (0 when the id names nothing; matching
                         ///< pushes the matched object's own count).
    uint32_t body = 0;   ///< Op index of the branch body.
};

/** Sentinel op index: "no op" (constructor decls have no body). */
constexpr uint32_t kNoOp = ~uint32_t(0);

/** One IR op. Fields are valid per kind as annotated. */
struct Op
{
    OpKind kind = OpKind::Result;

    // Every kind: the op's operands are Module::operands[argsBegin,
    // argsBegin + nargs) — a let's arguments, a case's scrutinee, a
    // result's yielded value.
    uint32_t argsBegin = 0;
    uint32_t nargs = 0;

    // Let.
    CalleeRef callee;
    uint32_t next = kNoOp;  ///< Op executed after the binding.

    // Case.
    uint32_t patBegin = 0; ///< Index into Module::patterns.
    uint32_t patCount = 0;
    uint32_t elseBody = kNoOp;

    // Annotations (every kind).
    uint32_t effects = 0;     ///< kEff* may-effect mask.
    Cycles staticCycles = 0;  ///< TimingModel base cost of the op
                              ///< head (letBase + nargs·letPerArg,
                              ///< caseBase, resultBase). Dynamic
                              ///< costs (alloc, forcing, branch
                              ///< heads) are charged by the
                              ///< evaluator as they occur.
};

/** One lifted declaration. */
struct Func
{
    bool isCons = false;
    Word arity = 0;
    Word numLocals = 0;
    uint32_t body = kNoOp; ///< Entry op index; kNoOp for constructors.
};

/** Identifier metadata, indexed by global function id. Mirrors
 *  LoadedImage::IdInfo: primitives first, then user declarations. */
struct IdEntry
{
    Word arity = 0;
    bool isCons = false;
    bool exists = false;
};

/** A lifted module: one whole program in IR form. */
struct Module
{
    std::vector<Func> funcs; ///< In declaration (identifier) order.
    bool hasEntry = false;
    Word entry = 0;          ///< Declaration index of the entry
                             ///< function (valid when hasEntry).
    size_t imageWords = 0;   ///< Source image size, for the load-
                             ///< cycle ledger (0 when lifted from an
                             ///< AST with no binary provenance).

    std::vector<Op> ops;
    std::vector<Operand> operands; ///< Every op's operands, in lift
                                   ///< order (see Op::argsBegin).
    std::vector<Pattern> patterns; ///< All case pattern lists; each
                                   ///< case's block is contiguous.
    std::vector<IdEntry> ids;      ///< Size kFirstUserFuncId + nfuncs.

    /** The entry sites: the operands-table index of each immediate
     *  operand of the entry function's body, in the canonical site
     *  order (isa/sites.hh) — entry site k is operands[entrySites[k]].
     *  The lifter emits operands in that order, so this is the
     *  entry body's immediates read off its operand range; the
     *  symbolic engine treats site k as input variable k. */
    std::vector<uint32_t> entrySites;

    /** Global id of declaration index i. */
    static Word idOf(size_t i) { return kFirstUserFuncId + Word(i); }
};

} // namespace zarf::ir

#endif // ZARF_IR_IR_HH
