/**
 * @file
 * The µop core of the λ-machine: direct-threaded dispatch over the
 * predecoded µop streams (machine/predecode.hh).
 *
 * Predecoding decodes each image word once and also resolves the
 * whole per-µop decision tree — µop kind, callee kind, callee class,
 * saturation — into a dispatch token (UTok) stored in the µop. The
 * core is one function: handlers are labels, every transition whose
 * successor is known statically is a plain `goto`, and only the
 * entry (on the resumed mode), the token fetch and the continuation
 * delivery dispatch on data, each through a `switch`. Hot machine
 * state (the value register, the cycle counter, the
 * instruction-class cycle bucket) lives in locals across handlers
 * instead of being reloaded from the Impl per step.
 *
 * The function is a template over whether the cycle model is kept,
 * and its two instantiations are two tiers (DispatchTier in
 * machine.hh):
 *
 *  - Uop, also named Threaded (cycle model kept): the machine's
 *    cycle-accurate default. Every charge, statistic, trace event,
 *    and GC trigger point matches the word-walking reference path
 *    (machine_impl.hh) and the lifted-IR evaluator (ir/core.hh),
 *    the two independent cycle-exact references the differential
 *    tests and the fuzz oracle hold it to.
 *
 *  - FastFunctional (cycle model dropped): the cycle charges, the
 *    per-class cycle buckets, the FSM tally, the per-µop exec and
 *    primitive trace events, and the interval-GC trigger compile
 *    out, and each step boundary adds one to the clock instead.
 *    The steps are the µop tier's, so allocation order, GC points,
 *    and evacuation order match it, and with no GC interval set
 *    every statistic but the execution-cycle fields equals its run;
 *    cycles() counts steps, so the tier is for campaign and fuzz
 *    throughput only, never for timing (docs/PERF.md).
 *
 * Both are member functions of Machine::Impl (machine/machine_impl.hh),
 * selected through MachineConfig::tier.
 *
 * Both instantiations fast-forward idle poll loops, exactly
 * (docs/PERF.md, "Idle poll loops"). A loop head is a call entry.
 * When two consecutive heads enter the same function at the same
 * frame depth and the iteration between them read the bus only
 * quietly (IoBus::quietRead) and had no effect (no `putint`, `gc` or
 * collection), the second head copies the iteration's inputs: the
 * registers, the frames above the iteration's low-water mark, and
 * the heap objects reachable from them. At the next head those
 * inputs must equal the copy under τ, which moves every reference
 * into the last iteration's allocations by this iteration's heap
 * growth Δ. The core decides nothing on an address but the free
 * space and the GC interval, so every later iteration is then τ of
 * this one until a bound falls due. The replay repeats that observed
 * effect k times (its new words, the words it changed in the copied
 * objects, the relocated registers and frames, and k times each
 * counter's delta), stopping before the cycle target, the GC safe
 * margin and the GC interval, and the core steps the rest. It
 * interprets no instruction. Skipping is off while the recorder
 * wants MachineExec events and during deep-force export; the
 * word-walk tier and the IR evaluator never skip and stay the
 * stepped references.
 */

#include "machine/machine_impl.hh"

namespace zarf
{

// ================================================================
// Hot state (the clock `tot`, the value register `vr`, the
// instruction-class cycle bucket) lives in locals across handler
// labels, and each handler jumps to its statically known successor
// through the inter-step preamble. The macros below are the Impl's
// charge()/chargeN()/resolve helpers re-expressed over the locals,
// and `kCycleModel` compiles the accounting out of the step-clock
// instantiation.
// ================================================================

// Charge one visit of state `st` costing n cycles (Impl::charge()).
// The stats-ledger shares (execCycles and the per-class bucket) are
// accumulated in the locals `exc`/`bkt` and folded into the members
// only at SYNC/SETCLASS, so the hot path touches no memory; every
// point where the ledger is externally observable (bus calls, GC,
// fail, return) syncs first, so the members are exact whenever
// anything outside this function can read them.
#define CHARGE(n, st)                                                 \
    do {                                                              \
        if constexpr (kCycleModel) {                                  \
            Cycles c_ = (n);                                          \
            if (tly)                                                  \
                tally.add(MState::st, c_);                            \
            tot += c_;                                                \
            exc += c_;                                                \
            bkt += c_;                                                \
        }                                                             \
    } while (0)

// Charge `visits` visits of `st` costing n in total (Impl::chargeN()).
#define CHARGE_N(st, visits, n)                                       \
    do {                                                              \
        if constexpr (kCycleModel) {                                  \
            Cycles c_ = (n);                                          \
            if (tly)                                                  \
                tally.addN(MState::st, (visits), c_);                 \
            tot += c_;                                                \
            exc += c_;                                                \
            bkt += c_;                                                \
        }                                                             \
    } while (0)

// Emit a per-µop exec or primitive trace event stamped with the
// cycle clock (the step clock emits none).
#define TRACE_EXEC(kind, ...)                                         \
    do {                                                              \
        if constexpr (kCycleModel) {                                  \
            if (traceExec)                                            \
                trace->emit(obs::EventKind::kind, tbias + tot,        \
                            __VA_ARGS__);                             \
        }                                                             \
    } while (0)

// Flush the hot locals into the members (before any call that reads
// them: GC, fail(), noteStatus(), and on return).
#define SYNC()                                                        \
    do {                                                              \
        total = tot;                                                  \
        vreg = vr;                                                    \
        if constexpr (kCycleModel) {                                  \
            curClass = klass;                                         \
            machineStats.execCycles += exc;                           \
            exc = 0;                                                  \
            *bucket += bkt;                                           \
            bkt = 0;                                                  \
        }                                                             \
    } while (0)

// Reload after a GC rewrote the rooted registers.
#define RELOAD()                                                      \
    do {                                                              \
        tot = total;                                                  \
        vr = vreg;                                                    \
    } while (0)

// fail() with the member mode of the step being executed, so the
// stopped machine's state is that step's.
#define FAILX(why, m)                                                 \
    do {                                                              \
        mode = Mode::m;                                               \
        SYNC();                                                       \
        fail(why);                                                    \
        return;                                                       \
    } while (0)

// Switch the instruction-class cycle bucket (the curClass register).
// Folds the pending charges into the outgoing class first.
#define SETCLASS(cls, field)                                          \
    do {                                                              \
        if constexpr (kCycleModel) {                                  \
            *bucket += bkt;                                           \
            bkt = 0;                                                  \
            klass = InstrClass::cls;                                  \
            bucket = &machineStats.field.cycles;                      \
        }                                                             \
    } while (0)

// True at the boundary that ends one deep-force of an export (see
// Impl::forceForExport): the value is delivered with no frame left.
// Export stops there before the step preamble, so the rare branches
// below test it only once they would act.
#define EXPORT_DONE(m)                                                \
    (Mode::m == Mode::Deliver && exporting && conts.empty())

// The inter-step preamble: the cycle-target check, then the health
// gate, the safe-margin GC and the interval GC that precede every
// step (as in stepOnceRef), then a direct jump to the next handler.
// `m` is the Mode the next step runs in — stored only on the exit
// paths, never on the hot path.
#define ENTER(L, m)                                                   \
    do {                                                              \
        if (tot >= target) {                                          \
            mode = Mode::m;                                           \
            SYNC();                                                   \
            return;                                                   \
        }                                                             \
        if ((heap.corrupt() || heap.outOfMemory()) &&                 \
            !EXPORT_DONE(m)) [[unlikely]] {                           \
            mode = Mode::m;                                           \
            SYNC();                                                   \
            heapHealthy();                                            \
            return;                                                   \
        }                                                             \
        if (gcExh && heap.freeWords() < kGcSafeMargin &&              \
            !EXPORT_DONE(m)) [[unlikely]] {                           \
            mode = Mode::m;                                           \
            SYNC();                                                   \
            runGc(rootProviderU());                                   \
            if (!heapHealthy())                                       \
                return;                                               \
            if (heap.freeWords() < kGcSafeMargin) {                   \
                noteStatus(MachineStatus::OutOfMemory);               \
                status = MachineStatus::OutOfMemory;                  \
                diagnostic = "live set exceeds semispace capacity";   \
                return;                                               \
            }                                                         \
            RELOAD();                                                 \
        }                                                             \
        if constexpr (kCycleModel) {                                  \
            if (gcInt && tot - lastGcAt >= gcInt &&                   \
                !EXPORT_DONE(m)) [[unlikely]] {                       \
                mode = Mode::m;                                       \
                SYNC();                                               \
                runGc(rootProviderU());                               \
                if (!heapHealthy())                                   \
                    return;                                           \
                RELOAD();                                             \
            }                                                         \
        }                                                             \
        goto L;                                                       \
    } while (0)

// The step boundary: the step clock counts the step just finished,
// then the preamble of the next one.
#define NEXT(L, m)                                                    \
    do {                                                              \
        if constexpr (!kCycleModel)                                   \
            ++tot;                                                    \
        ENTER(L, m);                                                  \
    } while (0)

// Resolve an operand (Impl::resolveOperand over a predecoded
// operand) with the failure jump folded in (no post-call status
// check on the hot path).
#define RESOLVE_TO(dst, op, m)                                        \
    do {                                                              \
        const UOperand &o_ = (op);                                    \
        if (o_.src == Src::Imm) {                                     \
            dst = o_.payload;                                         \
        } else if (o_.src == Src::Arg) {                              \
            if (o_.payload >= act.args.size()) [[unlikely]] {         \
                if (testhooks::poisonedOperandDefect) {               \
                    dst = mval::mkInt(0);                             \
                } else {                                              \
                    FAILX("argument index out of range", m);          \
                }                                                     \
            } else {                                                  \
                dst = act.args[o_.payload];                           \
            }                                                         \
        } else {                                                      \
            if (o_.payload >= act.locals.size()) [[unlikely]] {       \
                if (testhooks::poisonedOperandDefect) {               \
                    dst = mval::mkInt(0);                             \
                } else {                                              \
                    FAILX("local index out of range", m);             \
                }                                                     \
            } else {                                                  \
                dst = act.locals[o_.payload];                         \
            }                                                         \
        }                                                             \
    } while (0)

// The shared Let head: class/count/charge/trace, then fetch and
// resolve every argument word into letScratch.
#define LET_HEAD()                                                    \
    do {                                                              \
        SETCLASS(Let, let);                                           \
        ++machineStats.let.count;                                     \
        CHARGE(tm.letBase, ApFetchLet);                               \
        TRACE_EXEC(ExecLet, static_cast<int64_t>(act.funcId),         \
                   static_cast<int64_t>(u->nargs));                   \
        letScratch.clear();                                           \
        const UOperand *ops_ = operands + u->argsBegin;               \
        for (uint32_t i_ = 0; i_ < u->nargs; ++i_) {                  \
            CHARGE(tm.letPerArg, ApFetchArg);                         \
            Word v_;                                                  \
            RESOLVE_TO(v_, ops_[i_], Exec);                           \
            letScratch.push_back(v_);                                 \
        }                                                             \
        machineStats.letArgs += u->nargs;                             \
    } while (0)

// Read the callee value of a Local/Arg-callee let.
#define FETCH_CALLEE(dst)                                             \
    do {                                                              \
        if (u->calleeKind == CalleeKind::Local) {                     \
            if (u->calleeId >= act.locals.size()) [[unlikely]]        \
                FAILX("callee local out of range", Exec);             \
            dst = act.locals[u->calleeId];                            \
        } else {                                                      \
            if (u->calleeId >= act.args.size()) [[unlikely]]          \
                FAILX("callee arg out of range", Exec);               \
            dst = act.args[u->calleeId];                              \
        }                                                             \
    } while (0)

template <bool kCycleModel>
void
Machine::Impl::advanceThreaded(Cycles target)
{
    if (status != MachineStatus::Running)
        return;

    // Hoisted configuration — constants for the whole call.
    const TimingModel &tm = cfg.timing;
    const bool gcExh = cfg.gcOnExhaustion;
    const Cycles gcInt = cfg.gcIntervalCycles;
    const bool tly = tallyOn;
    const Uop *const uops = pre.uops.data();
    const size_t nUops = pre.uops.size();
    const UOperand *const operands = pre.operands.data();
    const UPattern *const patterns = pre.patterns.data();

    // Hot registers.
    Cycles tot = total;
    Word vr = vreg;
    const Uop *u = nullptr;
    Cycles noneSink = 0;
    InstrClass klass = curClass;
    Cycles *bucket = &noneSink;
    Cycles exc = 0; // execCycles not yet folded into the stats
    Cycles bkt = 0; // ditto for the current class bucket
    switch (klass) {
      case InstrClass::Let:
        bucket = &machineStats.let.cycles;
        break;
      case InstrClass::Case:
        bucket = &machineStats.caseInstr.cycles;
        break;
      case InstrClass::Result:
        bucket = &machineStats.result.cycles;
        break;
      case InstrClass::None:
        break;
    }

    // The idle-poll skip (pollHead below): the last loop head of
    // this call (function, frame depth, heap top), and whether the
    // iteration since made a quiet read and no effect. The armed
    // head is forgotten at every entry: faults, restores and
    // collectNow() act only between calls.
    const bool skipOn = !traceExec && !exporting;
    Word headFn = 0;
    size_t headDepth = SIZE_MAX;
    size_t headTop = 0;
    bool quiet = false;
    bool effect = false;
    poll.armed = false;

    // Allocation helpers over the locals (the word-walking path's
    // allocAppRef/allocConsRef/allocAppVRef/allocErrorRef with the
    // identical charge sequence, over scratch spans).
    auto allocAppL = [&](Word fn, const Word *args, size_t n) -> Word {
        bool pad = n == 0;
        Word zero = 0;
        const Word *p = pad ? &zero : args;
        size_t len = pad ? 1 : n;
        CHARGE(tm.allocHeader, ApAllocHeader);
        CHARGE_N(ApWriteArg, len, len * tm.letPerArg);
        return heap.alloc(ObjKind::App, fn, p, len, pad);
    };
    auto allocConsL = [&](Word id, const Word *fields,
                          size_t n) -> Word {
        bool pad = n == 0;
        Word zero = 0;
        const Word *p = pad ? &zero : fields;
        size_t len = pad ? 1 : n;
        CHARGE(tm.allocHeader, ApAllocHeader);
        CHARGE_N(ApWriteArg, len, len * tm.letPerArg);
        return heap.alloc(ObjKind::Cons, id, p, len, pad);
    };
    auto allocAppVL = [&](Word callee, const Word *args,
                          size_t n) -> Word {
        appvScratch.clear();
        appvScratch.push_back(callee);
        appvScratch.insert(appvScratch.end(), args, args + n);
        CHARGE(tm.allocHeader, ApAllocHeader);
        CHARGE_N(ApWriteArg, appvScratch.size(),
                 appvScratch.size() * tm.letPerArg);
        return heap.alloc(ObjKind::AppV, 0, appvScratch.data(),
                          appvScratch.size());
    };
    auto allocErrorL = [&](SWord code) -> Word {
        ++machineStats.errorsCreated;
        Word field = mval::mkInt(code);
        return allocConsL(static_cast<Word>(Prim::Error), &field, 1);
    };
    // Apply the letScratch arguments to a callee value.
    auto bindApplyL = [&](Word callee) -> Word {
        Word c = heap.chase(callee);
        if (mval::isInt(c))
            return mval::mkRef(allocErrorL(kErrBadApply));
        Word h = heap.header(mval::refOf(c));
        ObjKind k = mhdr::kindOf(h);
        if (k == ObjKind::App && objIsWhnfU(h)) {
            Word fn = mhdr::fnOf(h);
            Word have = mhdr::argsOf(h);
            applyScratch.clear();
            applyScratch.reserve(have + letScratch.size());
            for (Word i = 0; i < have; ++i)
                applyScratch.push_back(
                    heap.payload(mval::refOf(c), i));
            CHARGE_N(ApCopyPartial, have,
                     have * tm.copyPartialPerWord);
            applyScratch.insert(applyScratch.end(),
                                letScratch.begin(),
                                letScratch.end());
            if (isConsId(fn) && applyScratch.size() == arityOf(fn))
                return mval::mkRef(allocConsL(fn, applyScratch.data(),
                                              applyScratch.size()));
            if (isConsId(fn) && applyScratch.size() > arityOf(fn))
                return mval::mkRef(allocErrorL(kErrArity));
            return mval::mkRef(allocAppL(fn, applyScratch.data(),
                                         applyScratch.size()));
        }
        if (k == ObjKind::Cons) {
            return mhdr::fnOf(h) == static_cast<Word>(Prim::Error)
                       ? c
                       : mval::mkRef(allocErrorL(kErrArity));
        }
        return mval::mkRef(allocAppVL(callee, letScratch.data(),
                                      letScratch.size()));
    };

    // Entry: one dynamic dispatch on the resumed mode, through the
    // preamble without counting a step (a zero budget is a no-op).
    // From here on every handler jumps to its statically known
    // successor; only the token fetch (L_exec) and the continuation
    // delivery (L_deliver) dispatch on data.
    switch (mode) {
      case Mode::EvalVal:
        ENTER(L_eval, EvalVal);
      case Mode::Exec:
        ENTER(L_exec, Exec);
      case Mode::Deliver:
        ENTER(L_deliver, Deliver);
    }
    SYNC();
    return; // unreachable: the switch above covers every mode

    // ------------------------------------------------------------
    // EvalVal
    // ------------------------------------------------------------
L_eval:
    vr = heap.chase(vr);
    if (mval::isInt(vr))
        NEXT(L_deliver, Deliver);
    {
        Word addr = mval::refOf(vr);
        Word h = heap.header(addr);
        CHARGE(tm.whnfCheck, EvWhnfHit);
        ObjKind kind = mhdr::kindOf(h);
        if (kind == ObjKind::Blackhole)
            FAILX("re-entered a thunk under evaluation", EvalVal);
        if (objIsWhnfU(h)) {
            ++machineStats.whnfHits;
            NEXT(L_deliver, Deliver);
        }

        while (!conts.empty() &&
               conts.top().kind == Frame::Kind::Update) {
            Word prev = conts.top().target;
            Word ph = heap.header(prev);
            heap.setHeader(prev, mhdr::pack(ObjKind::Ind,
                                            mhdr::countOf(ph), 0,
                                            mhdr::padOf(ph)));
            heap.setPayload(prev, 0, vr);
            conts.pop();
            CHARGE(tm.collapseUpdate, EvCollapseUpd);
            ++machineStats.updates;
        }
        conts.push(Frame::Kind::Update).target = addr;
        CHARGE(tm.enterThunk, EvEnterThunk);
        ++machineStats.forces;

        Word count = mhdr::argsOf(h);
        Word fn = mhdr::fnOf(h);
        TRACE_EXEC(EvalEnter, static_cast<int64_t>(fn),
                   static_cast<int64_t>(count));

        if (kind == ObjKind::AppV) {
            Word callee = heap.payload(addr, 0);
            Frame &f = conts.push(Frame::Kind::Apply);
            for (Word i = 1; i < mhdr::countOf(h); ++i)
                f.extra.push_back(heap.payload(addr, i));
            blackhole(addr, h);
            vr = callee;
            NEXT(L_eval, EvalVal);
        }

        evalScratch.clear();
        evalScratch.reserve(count);
        for (Word i = 0; i < count; ++i)
            evalScratch.push_back(heap.payload(addr, i));
        blackhole(addr, h);

        Word arity = arityOf(fn);
        if (isConsId(fn)) {
            vr = mval::mkRef(allocErrorL(kErrArity));
            NEXT(L_eval, EvalVal);
        }
        if (evalScratch.size() > arity) {
            Frame &f = conts.push(Frame::Kind::Apply);
            f.extra.assign(evalScratch.begin() + arity,
                           evalScratch.end());
            evalScratch.resize(arity);
            CHARGE(tm.applyExtra, EvApplyExtra);
        }
        if (isPrimId(fn)) {
            // Begin a primitive application.
            SETCLASS(Let, let);
            CHARGE(tm.primSetup, EvPrimSetup);
            if (evalScratch.empty())
                FAILX("zero-arity primitive application", EvalVal);
            Frame &f = conts.push(Frame::Kind::PrimArgs);
            f.prim = static_cast<Prim>(fn);
            f.primArgs.assign(evalScratch.begin(),
                              evalScratch.end());
            f.nextArg = 0;
            vr = f.primArgs[0];
            NEXT(L_eval, EvalVal);
        }

        size_t idx = fn - kFirstUserFuncId;
        CHARGE(tm.callSetup, EvCallSetup);
        ++callCounts[idx];
        act.funcId = fn;
        act.args.swap(evalScratch);
        act.locals.clear();
        act.pc = funcs[idx].bodyBegin;
    }
    // A loop head: a call entry at a step boundary. It is steady when
    // the last head entered the same function at the same depth and
    // the iteration between them made a quiet read and no effect.
    if constexpr (!kCycleModel)
        ++tot;
    if (skipOn) {
        if (act.funcId == headFn && conts.size() == headDepth && quiet &&
            !effect) {
            mode = Mode::Exec;
            SYNC();
            pollHead(target, headTop, kCycleModel ? gcInt : 0);
            RELOAD();
        } else {
            poll.armed = false;
        }
        headFn = act.funcId;
        headDepth = conts.size();
        headTop = heap.top();
        quiet = false;
        effect = false;
        conts.resetLow();
    }
    ENTER(L_exec, Exec);

    // ------------------------------------------------------------
    // Exec: fetch and token-dispatch
    // ------------------------------------------------------------
L_exec:
    if (act.pc >= nUops) [[unlikely]]
        FAILX("program counter ran off the image", Exec);
    u = uops + act.pc;
    switch (u->tcode) {
      case kTokLetConsSat:
        goto T_letConsSat;
      case kTokLetConsOver:
        goto T_letConsOver;
      case kTokLetApp:
        goto T_letApp;
      case kTokLetUnknown:
        goto T_letUnknown;
      case kTokLetAlias:
        goto T_letAlias;
      case kTokLetBind:
        goto T_letBind;
      case kTokCase:
        goto T_case;
      case kTokResult:
        goto T_result;
      default:
        goto T_invalid;
    }

T_letConsSat:
    LET_HEAD();
    act.locals.push_back(mval::mkRef(allocConsL(
        u->calleeId, letScratch.data(), letScratch.size())));
    act.pc = u->next;
    NEXT(L_exec, Exec);

T_letConsOver:
    LET_HEAD();
    act.locals.push_back(mval::mkRef(allocErrorL(kErrArity)));
    act.pc = u->next;
    NEXT(L_exec, Exec);

T_letApp:
    LET_HEAD();
    act.locals.push_back(mval::mkRef(allocAppL(
        u->calleeId, letScratch.data(), letScratch.size())));
    act.pc = u->next;
    NEXT(L_exec, Exec);

T_letUnknown:
    LET_HEAD();
    FAILX("let names an unknown function identifier", Exec);

T_letAlias:
    LET_HEAD();
    {
        Word callee;
        FETCH_CALLEE(callee);
        CHARGE(tm.collapseUpdate, ApAliasLocal);
        act.locals.push_back(callee);
    }
    act.pc = u->next;
    NEXT(L_exec, Exec);

T_letBind:
    LET_HEAD();
    {
        Word callee;
        FETCH_CALLEE(callee);
        act.locals.push_back(bindApplyL(callee));
    }
    act.pc = u->next;
    NEXT(L_exec, Exec);

T_case:
    SETCLASS(Case, caseInstr);
    ++machineStats.caseInstr.count;
    CHARGE(tm.caseBase, EvFetchCase);
    TRACE_EXEC(ExecCase, static_cast<int64_t>(act.funcId));
    {
        Word scrut;
        RESOLVE_TO(scrut, u->operand, Exec);
        // Copy (not swap) the activation into the frame: the stale
        // copy left in `act` is part of the GC root walk, as on the
        // reference path, and the evacuation order depends on it.
        Frame &f = conts.push(Frame::Kind::Case);
        f.act.funcId = act.funcId;
        f.act.pc = act.pc;
        f.act.args.assign(act.args.begin(), act.args.end());
        f.act.locals.assign(act.locals.begin(), act.locals.end());
        vr = scrut;
    }
    NEXT(L_eval, EvalVal);

T_result:
    SETCLASS(Result, result);
    ++machineStats.result.count;
    CHARGE(tm.resultBase, EvFetchResult);
    TRACE_EXEC(ExecResult, static_cast<int64_t>(act.funcId));
    {
        Word v;
        RESOLVE_TO(v, u->operand, Exec);
        vr = v;
    }
    NEXT(L_eval, EvalVal);

T_invalid:
    FAILX(strprintf("unexpected opcode at word %zu", act.pc), Exec);

    // ------------------------------------------------------------
    // Deliver
    // ------------------------------------------------------------
L_deliver:
    if (conts.empty()) {
        mode = Mode::Deliver;
        SYNC();
        noteStatus(MachineStatus::Done);
        status = MachineStatus::Done;
        return;
    }
    switch (conts.top().kind) {
      case Frame::Kind::Update:
        goto D_update;
      case Frame::Kind::Case:
        goto D_case;
      case Frame::Kind::PrimArgs:
        goto D_prim;
      case Frame::Kind::Apply:
        goto D_apply;
    }

D_update:
    {
        Word tgt = conts.top().target;
        conts.pop();
        Word h = heap.header(tgt);
        heap.setHeader(tgt, mhdr::pack(ObjKind::Ind, mhdr::countOf(h),
                                       0, mhdr::padOf(h)));
        heap.setPayload(tgt, 0, vr);
        CHARGE(tm.update, EvUpdate);
        ++machineStats.updates;
    }
    NEXT(L_deliver, Deliver);

D_case:
    // Swap instead of move: the slot keeps the dead activation's
    // buffers for the next push to recycle. Then walk the flattened
    // jump table, one branch head per pattern.
    std::swap(act, conts.top().act);
    conts.pop();
    CHARGE(tm.returnToCase, EvReturn);
    SETCLASS(Case, caseInstr);
    {
        const Uop &cu = uops[act.pc]; // saved at the case head
        Word v = heap.chase(vr);
        bool isInt = mval::isInt(v);
        Word h = 0;
        if (!isInt)
            h = heap.header(mval::refOf(v));
        const UPattern *pats = patterns + cu.patBegin;
        for (uint32_t i = 0; i < cu.patCount; ++i) {
            CHARGE(tm.branchHead, EvBranchHead);
            ++machineStats.branchHeads;
            const UPattern &pat = pats[i];
            bool match;
            if (pat.isCons) {
                match = !isInt &&
                        mhdr::kindOf(h) == ObjKind::Cons &&
                        mhdr::fnOf(h) == pat.consId;
            } else {
                match = isInt && mval::intOf(v) == pat.lit;
            }
            if (match) {
                if (pat.isCons) {
                    Word caddr = mval::refOf(v);
                    Word n = mhdr::argsOf(h);
                    for (Word j = 0; j < n; ++j) {
                        act.locals.push_back(heap.payload(caddr, j));
                        CHARGE(tm.fieldPush, EvFieldPush);
                    }
                }
                act.pc = pat.body;
                NEXT(L_exec, Exec);
            }
        }
        act.pc = cu.elseBody;
    }
    NEXT(L_exec, Exec);

D_prim:
    // Collect one primitive operand; apply once all are in.
    {
        Frame &f = conts.top();
        SETCLASS(Let, let);
        Word v = heap.chase(vr);
        Prim p = f.prim;
        CHARGE(tm.primPerArg, EvPrimArg);

        if (mval::isRef(v)) {
            Word h = heap.header(mval::refOf(v));
            conts.pop();
            if (mhdr::kindOf(h) == ObjKind::Cons &&
                mhdr::fnOf(h) == static_cast<Word>(Prim::Error)) {
                vr = v;
                NEXT(L_deliver, Deliver);
            }
            SWord code = (p == Prim::GetInt || p == Prim::PutInt)
                             ? kErrIoNotInt
                             : kErrBadApply;
            vr = mval::mkRef(allocErrorL(code));
            NEXT(L_deliver, Deliver);
        }

        f.collected.push_back(mval::intOf(v));
        f.nextArg++;
        if (f.nextArg < f.primArgs.size()) {
            conts.touchTop();
            vr = f.primArgs[f.nextArg];
            NEXT(L_eval, EvalVal);
        }

        conts.pop(); // slot stays readable until the next push
        TRACE_EXEC(PrimOp, static_cast<int64_t>(p),
                   static_cast<int64_t>(f.collected.size()));
        switch (p) {
          case Prim::GetInt:
            CHARGE(tm.ioOp, EvIoOp);
            // Bus handlers may read cycles() (the system layer stamps
            // IO with the λ clock), so flush the cached clock first.
            SYNC();
            if (skipOn) {
                if (bus.quietRead(f.collected[0]))
                    quiet = true;
                else
                    effect = true;
            }
            vr = mval::mkInt(wrapInt31(bus.getInt(f.collected[0])));
            break;
          case Prim::PutInt:
            CHARGE(tm.ioOp, EvIoOp);
            SYNC();
            effect = true;
            bus.putInt(f.collected[0], f.collected[1]);
            vr = mval::mkInt(f.collected[1]);
            break;
          case Prim::InvokeGc:
            effect = true;
            mode = Mode::Deliver;
            SYNC();
            runGc(rootProviderU());
            RELOAD();
            vr = mval::mkInt(f.collected[0]);
            break;
          default: {
            CHARGE(tm.aluOp, EvAluOp);
            PrimResult r = evalAlu(p, f.collected);
            vr = r.ok ? mval::mkInt(r.value)
                      : mval::mkRef(allocErrorL(r.errCode));
            break;
          }
        }
    }
    NEXT(L_deliver, Deliver);

D_apply:
    // Apply leftover arguments to the evaluated callee.
    {
        Frame &f = conts.top();
        conts.pop(); // slot storage stays valid; nothing pushes below
        SETCLASS(Let, let);
        CHARGE(tm.applyExtra, EvApplyExtra);
        Word v = heap.chase(vr);
        if (mval::isInt(v)) {
            vr = mval::mkRef(allocErrorL(kErrBadApply));
            NEXT(L_deliver, Deliver);
        }
        Word addr = mval::refOf(v);
        Word h = heap.header(addr);
        if (mhdr::kindOf(h) == ObjKind::Cons) {
            vr = mhdr::fnOf(h) == static_cast<Word>(Prim::Error)
                     ? v
                     : mval::mkRef(allocErrorL(kErrArity));
            NEXT(L_deliver, Deliver);
        }
        Word fn = mhdr::fnOf(h);
        Word have = mhdr::argsOf(h);
        applyScratch.clear();
        applyScratch.reserve(have + f.extra.size());
        for (Word i = 0; i < have; ++i)
            applyScratch.push_back(heap.payload(addr, i));
        CHARGE_N(ApCopyPartial, have, have * tm.copyPartialPerWord);
        applyScratch.insert(applyScratch.end(), f.extra.begin(),
                            f.extra.end());
        if (isConsId(fn) && applyScratch.size() == arityOf(fn)) {
            vr = mval::mkRef(allocConsL(fn, applyScratch.data(),
                                        applyScratch.size()));
        } else if (isConsId(fn) &&
                   applyScratch.size() > arityOf(fn)) {
            vr = mval::mkRef(allocErrorL(kErrArity));
        } else {
            vr = mval::mkRef(allocAppL(fn, applyScratch.data(),
                                       applyScratch.size()));
        }
    }
    NEXT(L_eval, EvalVal);
}

#undef CHARGE
#undef CHARGE_N
#undef SYNC
#undef RELOAD
#undef FAILX
#undef SETCLASS
#undef EXPORT_DONE
#undef ENTER
#undef NEXT
#undef TRACE_EXEC
#undef RESOLVE_TO
#undef LET_HEAD
#undef FETCH_CALLEE

template void Machine::Impl::advanceThreaded<true>(Cycles target);
template void Machine::Impl::advanceThreaded<false>(Cycles target);

// ================================================================
// The idle-poll skip. Called at a steady loop head H′ with the
// members synced; arms the head H before it, or checks and replays
// the iteration H → H′.
// ================================================================

void
Machine::Impl::pollHead(Cycles target, size_t prevTop, Cycles gcInt)
{
    if (poll.armed && conts.lowWater() >= poll.floor &&
        machineStats.gcRuns == poll.gcRuns && statsFolds == poll.folds) {
        uint64_t k = pollPeriods(target, gcInt);
        if (k) {
            pollReplay(k);
            poll.armed = false;
            return;
        }
    }
    pollArm(prevTop);
}

/** Copy the inputs of the iteration starting at this head: the
 *  registers, the frames above the last iteration's low-water mark,
 *  and the heap objects reachable from them (a bounded walk); the
 *  references τ will move are those into the last iteration's
 *  allocations, from `prevTop` up. */
void
Machine::Impl::pollArm(size_t prevTop)
{
    PollSkip &ps = poll;
    ps.armed = false;
    ps.floor = conts.lowWater();
    ps.top = heap.top();
    ps.young = static_cast<Word>(std::min(prevTop, ps.top));
    ps.total = total;
    ps.gcRuns = machineStats.gcRuns;
    ps.folds = statsFolds;
    ps.raw.clear();
    ps.vals.clear();
    forEachPollWord(
        ps.floor, [&](Word w) { ps.raw.push_back(w); },
        [&](Word &w) { ps.vals.push_back(w); });
    if (ps.vals.size() > kPollMaxWords)
        return;

    ps.objAddr.clear();
    ps.objWords.clear();
    auto reach = [&](Word w) {
        if (mval::isInt(w))
            return true;
        Word a = mval::refOf(w);
        if (std::find(ps.objAddr.begin(), ps.objAddr.end(), a) !=
            ps.objAddr.end())
            return true;
        if (a >= ps.top || ps.objAddr.size() == kPollMaxObjects)
            return false;
        size_t n = 1 + mhdr::countOf(heap.word(a));
        if (a + n > ps.top || ps.objWords.size() + n > kPollMaxWords)
            return false;
        ps.objAddr.push_back(a);
        for (size_t j = 0; j < n; ++j)
            ps.objWords.push_back(heap.word(a + j));
        return true;
    };
    for (Word w : ps.vals) {
        if (!reach(w))
            return;
    }
    for (size_t i = 0; i < ps.objWords.size(); ++i) {
        if (!reach(ps.objWords[i]))
            return;
    }

    ps.counters.clear();
    forEachStepCounter(machineStats,
                       [&](uint64_t &v) { ps.counters.push_back(v); });
    ps.calls.assign(callCounts.begin(), callCounts.end());
    if (tallyOn) {
        ps.tallyAt.assign(tally.visits.begin(), tally.visits.end());
        ps.tallyAt.insert(ps.tallyAt.end(), tally.cycles.begin(),
                          tally.cycles.end());
    }
    ps.armed = true;
}

/** The periods the armed iteration may be replayed from here, or 0.
 *  Every input word must now equal τ of its copy, τ moving the
 *  young references by this iteration's heap growth Δ; and no
 *  collection (exhaustion within the safe margin, or the interval)
 *  nor the cycle target may fall inside the replayed periods. */
uint64_t
Machine::Impl::pollPeriods(Cycles target, Cycles gcInt)
{
    PollSkip &ps = poll;
    if (total <= ps.total)
        return 0;
    Word d = static_cast<Word>(heap.top() - ps.top);
    Cycles period = total - ps.total;
    auto tau = [&](Word w) { return mval::shifted(w, ps.young, d); };

    ps.raw2.clear();
    ps.vals2.clear();
    forEachPollWord(
        ps.floor, [&](Word w) { ps.raw2.push_back(w); },
        [&](Word &w) { ps.vals2.push_back(w); });
    if (ps.raw2 != ps.raw || ps.vals2.size() != ps.vals.size())
        return 0;
    for (size_t i = 0; i < ps.vals.size(); ++i) {
        if (ps.vals2[i] != tau(ps.vals[i]))
            return 0;
    }
    size_t off = 0;
    for (Word a : ps.objAddr) {
        size_t n = 1 + mhdr::countOf(ps.objWords[off]);
        Word moved = a >= ps.young ? a + d : a;
        for (size_t j = 0; j < n; ++j) {
            if (heap.word(moved + j) != tau(ps.objWords[off + j]))
                return 0;
        }
        off += n;
    }

    uint64_t k = target > total ? (target - total) / period : 0;
    size_t free = heap.freeWords();
    if (free < kGcSafeMargin)
        return 0;
    if (d)
        k = std::min<uint64_t>(k, (free - kGcSafeMargin) / d);
    if (gcInt) {
        Cycles since = total - lastGcAt;
        if (since >= gcInt)
            return 0;
        k = std::min(k, (gcInt - since) / period);
    }
    return k;
}

/** Replay the iteration just checked k more times: its heap effect
 *  (Heap::replayPeriods), τ^k of the registers and the frames above
 *  the floor, and k times each counter's delta. */
void
Machine::Impl::pollReplay(uint64_t k)
{
    PollSkip &ps = poll;
    size_t top = heap.top();
    Word d = static_cast<Word>(top - ps.top);
    Cycles period = total - ps.total;

    ps.block.clear();
    for (size_t a = ps.top; a < top; ++a)
        ps.block.push_back(heap.word(a));
    ps.changed.clear();
    size_t off = 0;
    for (Word a : ps.objAddr) {
        size_t n = 1 + mhdr::countOf(ps.objWords[off]);
        for (size_t j = 0; j < n; ++j) {
            Word v = heap.word(a + j);
            if (v != ps.objWords[off + j])
                ps.changed.emplace_back(static_cast<Word>(a + j), v);
        }
        off += n;
    }
    heap.replayPeriods(ps.block, ps.changed, ps.young, k);

    Word by = static_cast<Word>(k * d);
    forEachPollWord(
        ps.floor, [](Word) {},
        [&](Word &w) { w = mval::shifted(w, ps.young, by); });

    size_t c = 0;
    forEachStepCounter(machineStats, [&](uint64_t &v) {
        v += k * (v - ps.counters[c++]);
    });
    for (size_t i = 0; i < callCounts.size(); ++i)
        callCounts[i] += k * (callCounts[i] - ps.calls[i]);
    if (tallyOn) {
        for (size_t s = 0; s < kTotalStates; ++s) {
            tally.visits[s] += k * (tally.visits[s] - ps.tallyAt[s]);
            tally.cycles[s] +=
                k * (tally.cycles[s] - ps.tallyAt[kTotalStates + s]);
        }
    }
    total += k * period;
}

} // namespace zarf
