/**
 * @file
 * The IR evaluator core, written once and run by two value domains.
 *
 * This is a host-heap mirror of the machine's control FSM
 * (machine/machine_impl.hh): the same modes (evaluate / execute /
 * deliver), the same frame discipline (update, case, primitive
 * argument, leftover application), and — the load-bearing property —
 * the same cycle charge at every state visit, in the same order,
 * including the partial charges a mid-step fault leaves behind. Any
 * edit here that changes a charge point must be validated against
 * the machine via the compareIr oracle sweep (`ctest -L ir`) and the
 * exact concolic replay (`ctest -L sym`).
 *
 * The core owns the node heap, the frames, update collapsing,
 * application, and every ledger charge. A *domain* decides what the
 * 32-bit payload of a non-reference word means and supplies the few
 * rules that depend on it:
 *
 *   - the concrete domain (ir/eval.cc, evalModule): a machine integer;
 *   - the symbolic domain (sym/eval.cc, SymEval): a sym::TermId.
 *
 * A domain is a class with these members (every word argument is a
 * non-reference word):
 *
 *   using Export = ...;   // deep-forced result, null on failure
 *   uint64_t imm(uint32_t operand, SWord value);
 *       an immediate operand, by its index in Module::operands;
 *   uint64_t errorCode(SWord code);
 *       the field word of an Error(code) object;
 *   int caseArm(uint64_t v, const Pattern *pats, uint32_t n);
 *       the literal pattern a case on v enters (n: the else arm),
 *       or -1 to cut the run;
 *   PrimOut alu(Prim p, const std::vector<uint64_t> &operands);
 *       a pure ALU primitive on forced operands;
 *   PrimOut getInt(uint64_t port);
 *       the getint port transaction (the read value);
 *   void putInt(uint64_t port, uint64_t value);
 *       the putint port transaction (putint yields `value`);
 *   Export exportLeaf(uint64_t v);
 *   Export exportNode(bool cons, Word fn, std::vector<Export> items);
 *       build the deep-forced result bottom-up.
 *
 * The core never asks which domain runs it, and a domain never
 * touches the ledger, so both price a run identically.
 */

#ifndef ZARF_IR_CORE_HH
#define ZARF_IR_CORE_HH

#include <string>
#include <utility>
#include <vector>

#include "ir/ir.hh"
#include "ir/testhooks.hh"
#include "isa/prims.hh"
#include "machine/timing.hh"

namespace zarf::ir
{

// Value words: bit 32 tags a node reference (low bits: node index);
// an untagged word carries a 32-bit payload the domain interprets.
constexpr uint64_t kRefBit = 1ull << 32;

inline uint64_t mkRef(size_t i) { return kRefBit | uint64_t(uint32_t(i)); }
inline bool isRef(uint64_t w) { return (w & kRefBit) != 0; }
inline size_t idxOf(uint64_t w) { return size_t(uint32_t(w)); }

/** No bound on cycles or steps. */
constexpr uint64_t kUnbounded = ~uint64_t(0);

/** What a domain's primitive hook produced. */
struct PrimOut
{
    enum class Kind : uint8_t { Value, Error, Cut };

    Kind kind = Kind::Value;
    uint64_t word = 0; ///< Kind::Value: the result word.
    SWord code = 0;    ///< Kind::Error: the error code.

    static PrimOut value(uint64_t w) { return { Kind::Value, w, 0 }; }
    static PrimOut error(SWord c) { return { Kind::Error, 0, c }; }
    static PrimOut cut() { return { Kind::Cut, 0, 0 }; }
};

/** Where a run stands. */
enum class RunState : uint8_t
{
    Running,
    Done,  ///< The value register holds the result in WHNF.
    Stuck, ///< Semantically undefined state (see diagnostic()).
    Fuel,  ///< The export step or hard-stop bound ran out.
    Cut,   ///< A domain hook stopped the run; the domain knows why.
};

template <typename Domain>
class Evaluator
{
  public:
    using Export = typename Domain::Export;

    /** Boot: charge the load stream (one cycle per image word) and
     *  the entry application. */
    Evaluator(const Module &mod, Domain &dom, const TimingModel &t)
        : m(mod), dom(dom), t(t)
    {
        total = Cycles(m.imageWords) * t.loadWord;
        if (!m.hasEntry) {
            fail("module has no entry function");
            return;
        }
        vreg = allocApp(Module::idOf(m.entry), {});
    }

    /** Step until the run leaves Running, the ledger reaches
     *  `cycleCap`, or `stepCap` steps have run in total. */
    void
    run(Cycles cycleCap, uint64_t stepCap)
    {
        uint64_t n = steps; // kept in a register across the hot loop
        while (st == RunState::Running && total < cycleCap &&
               n < stepCap) {
            ++n;
            stepOnce();
        }
        steps = n;
    }

    /**
     * Deep-force and export the result of a Done run, charged like
     * any other evaluation — the machine's cycles() includes its
     * export forcing too. Bounded by `stepCap` total steps and, when
     * nonzero, by `hardStop` on the ledger, where the machine is
     * bounded by its heap instead. Null unless the state ends Done.
     */
    Export
    exportResult(uint64_t stepCap, Cycles hardStop)
    {
        st = RunState::Running;
        exportCap = stepCap;
        exportHardStop = hardStop;
        Export v = exportValue(vreg, 0);
        if (v)
            st = RunState::Done;
        return v;
    }

    RunState state() const { return st; }
    const std::string &diagnostic() const { return diag; }
    /** The ledger: load + execution + export so far. */
    Cycles cycles() const { return total; }
    uint64_t stepCount() const { return steps; }

  private:
    /** Heap node kinds — the machine's object kinds minus forwarding
     *  (no GC here). */
    enum class NodeKind : uint8_t
    {
        App,       ///< fn + applied args; WHNF iff args < arity(fn).
        AppV,      ///< Deferred application: payload[0] is the callee
                   ///< value, the rest are arguments. Always a thunk.
        Cons,      ///< Saturated constructor; fields in payload.
        Ind,       ///< Indirection to payload[0].
        Blackhole, ///< A thunk under evaluation.
    };

    struct Node
    {
        NodeKind kind;
        Word fn = 0;
        std::vector<uint64_t> payload;
    };

    enum class FrameKind : uint8_t { Update, Case, PrimArgs, Apply };

    /** One continuation frame. Field use per kind:
     *  Update   — target;
     *  Case     — pc/args/locals (the suspended activation);
     *  PrimArgs — prim/args (operands, overwritten by their forced
     *             words as they arrive)/nextArg;
     *  Apply    — args (the leftover arguments). */
    struct Frame
    {
        FrameKind kind;
        size_t target = 0;
        uint32_t pc = 0;
        std::vector<uint64_t> args;
        std::vector<uint64_t> locals;
        Word prim = 0;
        uint32_t nextArg = 0;
    };

    enum class Mode : uint8_t { EvalVal, Exec, Deliver };

    struct Activation
    {
        uint32_t pc = 0;
        std::vector<uint64_t> args;
        std::vector<uint64_t> locals;
    };

    // ---- Infrastructure --------------------------------------------

    void charge(Cycles c) { total += c; }

    void
    fail(std::string why)
    {
        st = RunState::Stuck;
        diag = std::move(why);
    }

    uint64_t
    chase(uint64_t w) const
    {
        while (isRef(w)) {
            const Node &n = heap[idxOf(w)];
            if (n.kind != NodeKind::Ind)
                break;
            w = n.payload[0];
        }
        return w;
    }

    Word
    arityOf(Word fn) const
    {
        return fn < m.ids.size() && m.ids[fn].exists ? m.ids[fn].arity
                                                     : 0;
    }

    bool
    isConsId(Word fn) const
    {
        return fn < m.ids.size() && m.ids[fn].exists && m.ids[fn].isCons;
    }

    bool
    isWhnf(const Node &n) const
    {
        if (n.kind == NodeKind::Cons)
            return true;
        if (n.kind == NodeKind::App)
            return n.payload.size() < arityOf(n.fn);
        return false;
    }

    bool
    isError(const Node &n) const
    {
        return n.kind == NodeKind::Cons &&
               n.fn == static_cast<Word>(Prim::Error);
    }

    // ---- Allocation (header + per-word charges; empty payloads
    // ---- still occupy — and charge — one padding word) -------------

    uint64_t
    allocNode(NodeKind k, Word fn, std::vector<uint64_t> payload)
    {
        size_t len = payload.empty() ? 1 : payload.size();
        charge(t.allocHeader);
        if (!testhooks::irBrokenAllocCharge)
            charge(Cycles(len) * t.letPerArg);
        heap.push_back(Node{ k, fn, std::move(payload) });
        return mkRef(heap.size() - 1);
    }

    uint64_t
    allocApp(Word fn, std::vector<uint64_t> args)
    {
        return allocNode(NodeKind::App, fn, std::move(args));
    }

    uint64_t
    allocCons(Word fn, std::vector<uint64_t> fields)
    {
        return allocNode(NodeKind::Cons, fn, std::move(fields));
    }

    uint64_t
    allocAppV(uint64_t callee, const std::vector<uint64_t> &args)
    {
        std::vector<uint64_t> p;
        p.reserve(1 + args.size());
        p.push_back(callee);
        p.insert(p.end(), args.begin(), args.end());
        return allocNode(NodeKind::AppV, 0, std::move(p));
    }

    uint64_t
    allocError(SWord code)
    {
        return allocCons(static_cast<Word>(Prim::Error),
                         { dom.errorCode(code) });
    }

    // ---- The step loop ---------------------------------------------

    void
    stepOnce()
    {
        switch (mode) {
          case Mode::EvalVal:
            stepEval();
            break;
          case Mode::Exec:
            stepExec();
            break;
          case Mode::Deliver:
            if (conts.empty()) {
                // The zero-charge final step, like the machine's.
                st = RunState::Done;
                return;
            }
            stepDeliver();
            break;
        }
    }

    // ---- EvalVal: force the value register to WHNF -----------------

    void
    stepEval()
    {
        uint64_t v = chase(vreg);
        if (!isRef(v)) {
            vreg = v;
            mode = Mode::Deliver;
            return;
        }
        charge(t.whnfCheck);
        size_t at = idxOf(v);
        if (heap[at].kind == NodeKind::Blackhole) {
            fail("re-entered a thunk under evaluation");
            return;
        }
        if (isWhnf(heap[at])) {
            vreg = v;
            mode = Mode::Deliver;
            return;
        }

        // A thunk: collapse stacked update frames onto it, push a
        // fresh one, and enter.
        while (!conts.empty() &&
               conts.back().kind == FrameKind::Update) {
            Node &tgt = heap[conts.back().target];
            tgt.kind = NodeKind::Ind;
            tgt.fn = 0;
            tgt.payload.assign(1, v);
            conts.pop_back();
            charge(t.collapseUpdate);
        }
        Frame up;
        up.kind = FrameKind::Update;
        up.target = at;
        conts.push_back(std::move(up));
        charge(t.enterThunk);

        Node &n = heap[at];
        if (n.kind == NodeKind::AppV) {
            uint64_t callee = n.payload[0];
            Frame ap;
            ap.kind = FrameKind::Apply;
            ap.args.assign(n.payload.begin() + 1, n.payload.end());
            n.kind = NodeKind::Blackhole;
            n.payload.clear();
            conts.push_back(std::move(ap));
            vreg = callee;
            return; // stay EvalVal
        }

        // A saturated (or over-applied) application.
        std::vector<uint64_t> args = std::move(n.payload);
        Word fn = n.fn;
        n.kind = NodeKind::Blackhole;
        n.payload.clear();

        if (isConsId(fn)) {
            vreg = allocError(kErrArity);
            return;
        }
        Word arity = arityOf(fn);
        if (args.size() > arity) {
            Frame ap;
            ap.kind = FrameKind::Apply;
            ap.args.assign(args.begin() + ptrdiff_t(arity), args.end());
            conts.push_back(std::move(ap));
            args.resize(arity);
            charge(t.applyExtra);
        }
        if (isPrimId(fn)) {
            beginPrim(fn, std::move(args));
            return;
        }
        size_t fi = fn - kFirstUserFuncId;
        if (fi >= m.funcs.size() || m.funcs[fi].body == kNoOp) {
            fail("entered an unknown function identifier");
            return;
        }
        charge(t.callSetup);
        act.args = std::move(args);
        act.locals.clear();
        act.pc = m.funcs[fi].body;
        mode = Mode::Exec;
    }

    void
    beginPrim(Word fn, std::vector<uint64_t> args)
    {
        charge(t.primSetup);
        if (args.empty()) {
            fail("zero-arity primitive application");
            return;
        }
        Frame pf;
        pf.kind = FrameKind::PrimArgs;
        pf.prim = fn;
        pf.args = std::move(args);
        conts.push_back(std::move(pf));
        vreg = conts.back().args[0];
        mode = Mode::EvalVal;
    }

    // ---- Exec: run instruction ops ---------------------------------

    void
    stepExec()
    {
        if (act.pc >= m.ops.size()) {
            fail("program counter ran off the image");
            return;
        }
        const Op &op = m.ops[act.pc];
        switch (op.kind) {
          case OpKind::Let:
            execLet(op);
            break;
          case OpKind::Case:
            execCase(op);
            break;
          case OpKind::Result:
            execResult(op);
            break;
        }
    }

    bool
    resolve(uint32_t at, uint64_t &out)
    {
        const Operand &o = m.operands[at];
        switch (o.src) {
          case Src::Imm:
            out = dom.imm(at, o.val);
            return true;
          case Src::Local:
            if (size_t(Word(o.val)) >= act.locals.size()) {
                fail("local operand index out of range");
                return false;
            }
            out = act.locals[size_t(Word(o.val))];
            return true;
          case Src::Arg:
            if (size_t(Word(o.val)) >= act.args.size()) {
                fail("argument operand index out of range");
                return false;
            }
            out = act.args[size_t(Word(o.val))];
            return true;
        }
        fail("bad operand source");
        return false;
    }

    void
    execLet(const Op &op)
    {
        charge(t.letBase);
        // Per-argument fetch charges land before each resolve, so a
        // mid-list fault leaves the machine's exact partial charge.
        letScratch.clear();
        for (uint32_t i = 0; i < op.nargs; ++i) {
            charge(t.letPerArg);
            uint64_t v;
            if (!resolve(op.argsBegin + i, v))
                return;
            letScratch.push_back(v);
        }

        uint64_t bound = 0;
        if (op.callee.kind == CalleeKind::Func) {
            if (op.callee.cls == CalleeClass::Unknown) {
                fail("let names an unknown function identifier");
                return;
            }
            if (op.callee.cls == CalleeClass::Cons) {
                if (letScratch.size() == op.callee.arity)
                    bound = allocCons(op.callee.id, letScratch);
                else if (letScratch.size() > op.callee.arity)
                    bound = allocError(kErrArity);
                else
                    bound = allocApp(op.callee.id, letScratch);
            } else {
                // Primitives and user functions build an application
                // object either way; over-application is resolved at
                // force time.
                bound = allocApp(op.callee.id, letScratch);
            }
        } else {
            const std::vector<uint64_t> &slots =
                op.callee.kind == CalleeKind::Local ? act.locals
                                                    : act.args;
            if (op.callee.id >= slots.size()) {
                fail("callee slot index out of range");
                return;
            }
            uint64_t calleeVal = slots[op.callee.id];
            if (letScratch.empty()) {
                charge(t.collapseUpdate); // the alias-binding state
                bound = calleeVal;
            } else {
                bound = bindApply(calleeVal);
            }
        }
        act.locals.push_back(bound);
        act.pc = op.next;
    }

    /** Apply a closure-slot callee to letScratch. */
    uint64_t
    bindApply(uint64_t calleeWord)
    {
        uint64_t v = chase(calleeWord);
        if (!isRef(v))
            return allocError(kErrBadApply);
        const Node &n = heap[idxOf(v)];
        if (n.kind == NodeKind::Cons)
            return isError(n) ? v // errors flow through application
                              : allocError(kErrArity);
        if (n.kind == NodeKind::App &&
            n.payload.size() < arityOf(n.fn))
            return extendPartial(n, letScratch);
        // An unevaluated callee (thunk) — defer: build an AppV over
        // the *original* word so sharing and update order match.
        return allocAppV(calleeWord, letScratch);
    }

    /** Copy-and-extend a partial application with `extra`. */
    uint64_t
    extendPartial(const Node &n, const std::vector<uint64_t> &extra)
    {
        charge(Cycles(n.payload.size()) * t.copyPartialPerWord);
        Word fn = n.fn;
        std::vector<uint64_t> args = n.payload;
        args.insert(args.end(), extra.begin(), extra.end());
        return finishApply(fn, std::move(args));
    }

    uint64_t
    finishApply(Word fn, std::vector<uint64_t> args)
    {
        if (isConsId(fn)) {
            Word arity = arityOf(fn);
            if (args.size() == arity)
                return allocCons(fn, std::move(args));
            if (args.size() > arity)
                return allocError(kErrArity);
        }
        return allocApp(fn, std::move(args));
    }

    void
    execCase(const Op &op)
    {
        charge(t.caseBase);
        uint64_t scrut;
        if (!resolve(op.argsBegin, scrut))
            return;
        Frame cf;
        cf.kind = FrameKind::Case;
        cf.pc = act.pc;
        cf.args = std::move(act.args);
        cf.locals = std::move(act.locals);
        conts.push_back(std::move(cf));
        vreg = scrut;
        mode = Mode::EvalVal;
    }

    void
    execResult(const Op &op)
    {
        charge(t.resultBase);
        uint64_t v;
        if (!resolve(op.argsBegin, v))
            return;
        vreg = v;
        mode = Mode::EvalVal;
    }

    // ---- Deliver: consume a WHNF value -----------------------------

    void
    stepDeliver()
    {
        Frame &f = conts.back();
        switch (f.kind) {
          case FrameKind::Update: {
            Node &tgt = heap[f.target];
            tgt.kind = NodeKind::Ind;
            tgt.fn = 0;
            tgt.payload.assign(1, vreg);
            conts.pop_back();
            charge(t.update);
            break; // stay Deliver
          }
          case FrameKind::Case:
            act.pc = f.pc;
            act.args = std::move(f.args);
            act.locals = std::move(f.locals);
            conts.pop_back();
            charge(t.returnToCase);
            resumeCase();
            break;
          case FrameKind::PrimArgs:
            resumePrim();
            break;
          case FrameKind::Apply:
            resumeApply();
            break;
        }
    }

    void
    resumeCase()
    {
        const Op &op = m.ops[act.pc];
        const Pattern *pats = m.patterns.data() + op.patBegin;
        uint64_t v = chase(vreg);
        mode = Mode::Exec;
        if (!isRef(v)) {
            // Only literal patterns can match an integer; every head
            // up to the taken one is visited (all of them for else,
            // which costs no extra head).
            int arm = dom.caseArm(v, pats, op.patCount);
            if (arm < 0) {
                st = RunState::Cut;
                return;
            }
            uint32_t k = uint32_t(arm);
            bool hit = k < op.patCount;
            charge(Cycles(hit ? k + 1 : op.patCount) * t.branchHead);
            act.pc = hit ? pats[k].body : op.elseBody;
            return;
        }
        const Node &n = heap[idxOf(v)];
        for (uint32_t i = 0; i < op.patCount; ++i) {
            const Pattern &p = pats[i];
            charge(t.branchHead); // one cycle per visited head
            if (!p.isCons || n.kind != NodeKind::Cons ||
                n.fn != p.consId)
                continue;
            size_t nf = n.payload.size();
            for (size_t k = 0; k < nf; ++k) {
                size_t src = testhooks::irBrokenCaseFieldOrder
                                 ? nf - 1 - k
                                 : k;
                act.locals.push_back(n.payload[src]);
                charge(t.fieldPush);
            }
            act.pc = p.body;
            return;
        }
        act.pc = op.elseBody;
    }

    void
    resumePrim()
    {
        Frame &f = conts.back();
        charge(t.primPerArg); // fetch + integer check, every operand
        uint64_t v = chase(vreg);
        mode = Mode::Deliver;
        if (isRef(v)) {
            // A non-integer operand: errors pass through, anything
            // else becomes the primitive's domain error.
            Word prim = f.prim;
            conts.pop_back();
            if (isError(heap[idxOf(v)]))
                vreg = v;
            else
                vreg = allocError(
                    prim == static_cast<Word>(Prim::GetInt) ||
                            prim == static_cast<Word>(Prim::PutInt)
                        ? kErrIoNotInt
                        : kErrBadApply);
            return;
        }
        f.args[f.nextArg] = v;
        ++f.nextArg;
        if (f.nextArg < f.args.size()) {
            vreg = f.args[f.nextArg];
            mode = Mode::EvalVal;
            return;
        }

        // All operands forced: run the primitive.
        Prim p = static_cast<Prim>(f.prim);
        std::vector<uint64_t> operands = std::move(f.args);
        conts.pop_back();
        PrimOut r = PrimOut::value(operands[0]);
        switch (p) {
          case Prim::GetInt:
            charge(t.ioOp);
            r = dom.getInt(operands[0]);
            break;
          case Prim::PutInt:
            charge(t.ioOp);
            dom.putInt(operands[0], operands[1]);
            r = PrimOut::value(operands[1]);
            break;
          case Prim::InvokeGc:
            // The identity: the machine collects here on its separate
            // GC ledger, so cycles() — and `total` — are untouched.
            break;
          default:
            charge(t.aluOp);
            r = dom.alu(p, operands);
            break;
        }
        switch (r.kind) {
          case PrimOut::Kind::Value:
            vreg = r.word;
            break;
          case PrimOut::Kind::Error:
            vreg = allocError(r.code);
            break;
          case PrimOut::Kind::Cut:
            st = RunState::Cut;
            break;
        }
    }

    void
    resumeApply()
    {
        std::vector<uint64_t> extra = std::move(conts.back().args);
        conts.pop_back();
        charge(t.applyExtra);
        uint64_t v = chase(vreg);
        mode = Mode::Deliver;
        if (!isRef(v)) {
            // Errors are already WHNF: deliver without re-checking.
            vreg = allocError(kErrBadApply);
            return;
        }
        const Node &n = heap[idxOf(v)];
        if (n.kind == NodeKind::Cons) {
            vreg = isError(n) ? v : allocError(kErrArity);
            return;
        }
        if (n.kind == NodeKind::App &&
            n.payload.size() < arityOf(n.fn)) {
            vreg = extendPartial(n, extra);
            mode = Mode::EvalVal;
            return;
        }
        // Delivered values are WHNF; anything else is unreachable.
        fail("apply resumed on an unevaluated value");
    }

    // ---- Export: deep-force the final value for the host -----------

    Export
    exportValue(uint64_t w, int depth)
    {
        if (depth > 512) {
            fail("deep-force recursion limit exceeded");
            return nullptr;
        }
        if (!forceForExport(w))
            return nullptr;
        uint64_t v = chase(vreg);
        if (!isRef(v))
            return dom.exportLeaf(v);
        // Copy the node out: the recursion below reallocates heap.
        Word fn = heap[idxOf(v)].fn;
        bool cons = heap[idxOf(v)].kind == NodeKind::Cons;
        std::vector<uint64_t> payload = heap[idxOf(v)].payload;
        std::vector<Export> items;
        items.reserve(payload.size());
        for (uint64_t item : payload) {
            Export iv = exportValue(item, depth + 1);
            if (!iv)
                return nullptr;
            items.push_back(std::move(iv));
        }
        return dom.exportNode(cons, fn, std::move(items));
    }

    /** Force one value to WHNF with the normal (charged) step loop,
     *  bounded by the export caps. */
    bool
    forceForExport(uint64_t w)
    {
        vreg = w;
        mode = Mode::EvalVal;
        size_t base = conts.size();
        while (true) {
            if (st != RunState::Running)
                return false;
            if (mode == Mode::Deliver && conts.size() == base)
                return true;
            if (steps >= exportCap ||
                (exportHardStop && total > exportHardStop)) {
                st = RunState::Fuel;
                diag = "export fuel exhausted";
                return false;
            }
            ++steps;
            stepOnce();
        }
    }

    // ---- State -----------------------------------------------------

    const Module &m;
    Domain &dom;
    const TimingModel &t;

    std::vector<Node> heap;
    std::vector<Frame> conts;
    Activation act;
    uint64_t vreg = 0;
    Mode mode = Mode::EvalVal;
    RunState st = RunState::Running;
    std::string diag;
    Cycles total = 0;
    uint64_t steps = 0;
    uint64_t exportCap = 0;
    Cycles exportHardStop = 0;
    std::vector<uint64_t> letScratch;
};

} // namespace zarf::ir

#endif // ZARF_IR_CORE_HH
