/**
 * @file
 * Load-time predecoding of binary images into µop streams.
 *
 * The cycle-level machine charges cycles per control-FSM state visit
 * (machine/timing.hh); how the *host* finds out which state to visit
 * next is not part of the timing model. The word-walking execution
 * path re-fetches and re-unpacks raw image words on every step, so
 * host decode work — opcode extraction, field validation, pattern
 * skip arithmetic — is paid millions of times for instructions that
 * never change. This layer performs that work exactly once, at
 * load() time, in the decode-once style of binary-lifting platforms:
 * each reachable instruction word becomes one pre-validated µop with
 * inline operand descriptors and a flattened case-pattern jump table
 * whose match/else targets are resolved word indices.
 *
 * The µop array is indexed by image word position, so the machine's
 * program counter keeps its hardware meaning (a word address) and
 * every cycle charge stays attached to the same FSM state visit; the
 * µop path is bit-identical to the word-walking path in results,
 * cycle counts, and statistics on every well-formed image.
 *
 * Predecoding is also where structural validation now happens once:
 * reserved 2-bit source/kind encodings (the fuzz-campaign hole noted
 * in DESIGN.md §7), non-ARG words inside let argument lists, and
 * malformed pattern chains are rejected at load instead of being
 * re-checked on every step.
 */

#ifndef ZARF_MACHINE_PREDECODE_HH
#define ZARF_MACHINE_PREDECODE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/ast.hh"
#include "isa/binary.hh"
#include "machine/heap.hh"

namespace zarf
{

/**
 * A predecoded operand. For Src::Imm the payload is the already
 * tagged machine word (mval::mkInt applied at load time); for
 * Src::Arg / Src::Local it is the slot index. Slot range checks stay
 * at runtime: locals are bound dynamically, so an index's validity
 * depends on the execution path taken.
 */
struct UOperand
{
    Src src;
    Word payload;
};

/** One entry of a flattened case-pattern jump table. */
struct UPattern
{
    bool isCons;
    SWord lit;     ///< Literal patterns.
    Word consId;   ///< Constructor patterns.
    uint32_t body; ///< Word index of the branch body on a match.
};

/** µop kinds — the three executable instruction classes. */
enum class UopKind : uint8_t
{
    Invalid = 0, ///< Not an instruction head (arg/pattern/garbage).
    Let,
    Case,
    Result,
};

/** Pre-resolved callee classification for Func-kind lets. The id
 *  spaces are static, so existence/constructor/arity lookups need
 *  not be repeated per execution. */
enum class UCallee : uint8_t
{
    Unknown, ///< Names no primitive or declaration (runtime fail).
    Cons,    ///< A constructor (user or the reserved Error prim).
    Other,   ///< A function or non-constructor primitive.
};

/**
 * Direct-threaded dispatch tokens (machine/threaded.cc). Each
 * executable µop's handler is resolved once, at predecode time, into
 * one of these codes; the µop core dispatches on the token
 * instead of re-branching on kind/calleeKind/calleeClass/arity every
 * execution. A small token (a `switch` case) rather than a raw
 * handler address keeps the Predecoded artifact shareable across
 * machines and processes.
 */
enum UTok : uint8_t
{
    kTokLetConsSat = 0, ///< Func callee, constructor, saturated.
    kTokLetConsOver,    ///< Func callee, constructor, over-applied.
    kTokLetApp,         ///< Func callee: thunk/partial-app alloc.
    kTokLetUnknown,     ///< Func callee naming nothing (runtime fail).
    kTokLetAlias,       ///< Local/Arg callee, zero arguments.
    kTokLetBind,        ///< Local/Arg callee with arguments.
    kTokCase,
    kTokResult,
    kTokInvalid,
    kNumTok,
};

/** One predecoded instruction. */
struct Uop
{
    UopKind kind = UopKind::Invalid;
    uint8_t tcode = kTokInvalid; ///< Dispatch token (UTok).

    // ---- Let ----
    CalleeKind calleeKind = CalleeKind::Func;
    UCallee calleeClass = UCallee::Unknown;
    Word calleeId = 0;
    Word calleeArity = 0;   ///< Valid when calleeClass != Unknown.
    uint32_t nargs = 0;
    uint32_t argsBegin = 0; ///< Index into Predecoded::operands.
    uint32_t next = 0;      ///< Word index of the following instr.

    // ---- Case / Result ----
    UOperand operand{ Src::Imm, 0 }; ///< Scrutinee / result value.
    uint32_t patBegin = 0;           ///< Index into ::patterns.
    uint32_t patCount = 0;
    uint32_t elseBody = 0;           ///< Word index of the else body.
};

/** Declaration metadata shared by both execution paths. */
struct PredecodedFunc
{
    bool isCons;
    Word arity;
    Word numLocals;
    size_t bodyBegin; ///< Word index of the first body word.
    size_t bodyEnd;
};

/** The predecoded program. `uops` has one slot per image word;
 *  slots are valid only at instruction-head positions. */
struct Predecoded
{
    bool ok = false;
    std::string error;
    std::vector<Uop> uops;
    std::vector<UOperand> operands;
    std::vector<UPattern> patterns;
};

/**
 * Predecode every declaration body reachable from its entry.
 *
 * @param image the raw program image
 * @param funcs the parsed declaration table (Machine::load output)
 * @return the µop program, or ok=false with a diagnostic for any
 *         structurally invalid body (reserved encodings, malformed
 *         argument or pattern words, truncated instructions)
 */
Predecoded predecodeImage(const Image &image,
                          const std::vector<PredecodedFunc> &funcs);

} // namespace zarf

#endif // ZARF_MACHINE_PREDECODE_HH
