#include "sym/eval.hh"

#include <algorithm>

#include "fuzz/oracle.hh" // RecordBus::scripted — the I/O fixture
#include "ir/core.hh"
#include "ir/lift.hh"
#include "support/logging.hh"

namespace zarf::sym
{

// ----------------------------------------------------------------
// SymValue
// ----------------------------------------------------------------

uint64_t
SymValue::support(const TermArena &arena) const
{
    if (kind == Kind::Int)
        return arena.support(t);
    uint64_t s = 0;
    for (const auto &i : items)
        s |= i->support(arena);
    return s;
}

std::string
SymValue::toString(const TermArena &arena) const
{
    if (kind == Kind::Int)
        return arena.toString(t);
    std::string s = kind == Kind::Cons ? "Cons#" : "Closure#";
    s += std::to_string(id) + "(";
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            s += ", ";
        s += items[i]->toString(arena);
    }
    return s + ")";
}

ValuePtr
concretizeValue(const TermArena &arena, const SymValue &v,
                const std::vector<SWord> &assign)
{
    if (v.kind == SymValue::Kind::Int) {
        TermEvalResult r = arena.evalUnder(v.t, assign);
        if (!r.ok)
            return nullptr;
        return Value::makeInt(r.value);
    }
    std::vector<ValuePtr> items;
    items.reserve(v.items.size());
    for (const auto &f : v.items) {
        ValuePtr fv = concretizeValue(arena, *f, assign);
        if (!fv)
            return nullptr;
        items.push_back(std::move(fv));
    }
    if (v.kind == SymValue::Kind::Cons)
        return Value::makeCons(v.id, std::move(items));
    return Value::makeClosure(v.id, std::move(items));
}

uint64_t
PathRun::observableSupport(const TermArena &arena) const
{
    uint64_t s = 0;
    for (const Atom &a : pc)
        s |= arena.support(a.t);
    if (value)
        s |= value->support(arena);
    for (const SymIo &op : io)
        s |= arena.support(op.port) | arena.support(op.value);
    return s;
}

// ----------------------------------------------------------------
// Symbolic input sites
// ----------------------------------------------------------------

std::vector<Operand *>
collectSymSites(Program &program, unsigned maxVars)
{
    // The sites come from the lifted IR: the lifter enumerates the
    // entry body's immediate operands with the canonical walk
    // (isa/sites.hh), which is the same order this function's local
    // walk used to produce — regression-locked by test_ir_lift.cc —
    // so solver models written through these pointers land on the
    // sites the IR (and every other consumer) calls input k.
    if (maxVars > kMaxSymVars)
        maxVars = kMaxSymVars;
    ir::LiftResult lift = ir::liftProgram(program);
    std::vector<Operand *> out = std::move(lift.entrySitePtrs);
    if (out.size() > maxVars)
        out.resize(maxVars);
    return out;
}

// ----------------------------------------------------------------
// The evaluator: the IR core over the symbolic domain
// ----------------------------------------------------------------

/**
 * The symbolic domain of the evaluator core (ir/core.hh): the payload
 * of a non-reference word is a TermId. It owns the lifted module, the
 * term arena, and the per-path choice state, and supplies the rules
 * that differ from the concrete domain; the core owns the heap, the
 * frames, and the cycle ledger, so a path's cycles are the machine's.
 */
class SymEval::Impl
{
  public:
    using Export = SymValuePtr;

    Impl(const Program &program, SymEvalConfig config)
        : mod(ir::liftProgram(program).module), cfg(config)
    {
        size_t n = std::min<size_t>(
            { cfg.maxVars, kMaxSymVars, mod.entrySites.size() });
        varOf.assign(mod.operands.size(), kNoVar);
        for (unsigned k = 0; k < n; ++k) {
            uint32_t at = mod.entrySites[k];
            varOf[at] = k;
            seeds.push_back(mod.operands[at].val);
            varTerm.push_back(terms.variable(k));
        }
    }

    unsigned nVars() const { return unsigned(varTerm.size()); }
    const std::vector<SWord> &seedRef() const { return seeds; }
    const TermArena &arenaRef() const { return terms; }

    PathRun
    runPath(const Script &s)
    {
        script = s;
        choices.clear();
        cond = PathCond{};
        io.clear();
        ioOrdinal = 0;
        cutWhy.clear();

        ir::Evaluator<Impl> ev(mod, *this, timing);
        ev.run(ir::kUnbounded, cfg.maxSteps);
        PathRun r;
        if (ev.state() == ir::RunState::Done)
            r.value = ev.exportResult(cfg.maxSteps, 0);
        switch (ev.state()) {
          case ir::RunState::Done:
            r.status = PathRun::Status::Done;
            break;
          case ir::RunState::Stuck:
            r.status = PathRun::Status::Stuck;
            r.detail = ev.diagnostic();
            break;
          case ir::RunState::Running:
          case ir::RunState::Fuel:
            r.status = PathRun::Status::Truncated;
            r.detail = "step fuel exhausted";
            break;
          case ir::RunState::Cut:
            r.status = PathRun::Status::Truncated;
            r.detail = cutWhy;
            break;
        }
        r.pc = cond.atoms();
        r.io = std::move(io);
        r.cycleBound = ev.cycles();
        r.choices = std::move(choices);
        r.steps = ev.stepCount();
        return r;
    }

    // ---- domain hooks (ir/core.hh) --------------------------------

    uint64_t
    imm(uint32_t operand, SWord v)
    {
        unsigned k = varOf[operand];
        return k != kNoVar ? varTerm[k] : terms.constant(v);
    }

    uint64_t errorCode(SWord code) { return terms.constant(code); }

    /** Case on an integer term: a constant dispatches like the
     *  machine; a symbolic term is a choice point. */
    int
    caseArm(uint64_t v, const ir::Pattern *pats, uint32_t n)
    {
        TermId t = TermId(v);
        if (terms.isConst(t)) {
            SWord c = terms.constValue(t);
            for (uint32_t i = 0; i < n; ++i) {
                if (!pats[i].isCons && pats[i].lit == c)
                    return int(i);
            }
            return int(n);
        }
        // Alternative k < n enters pattern k, alternative n is the
        // else arm. Every pattern keeps its slot so scripts stay
        // aligned with pattern positions; an integer never matches
        // a constructor pattern, so that slot carries the
        // contradictory pair t == 0 && t != 0.
        std::vector<std::vector<Atom>> alts;
        std::vector<Atom> priorNe;
        for (uint32_t i = 0; i < n; ++i) {
            std::vector<Atom> atoms;
            if (pats[i].isCons) {
                atoms = { { t, true, 0 }, { t, false, 0 } };
            } else {
                atoms = priorNe;
                atoms.push_back({ t, true, pats[i].lit });
                priorNe.push_back({ t, false, pats[i].lit });
            }
            alts.push_back(std::move(atoms));
        }
        alts.push_back(priorNe); // else: no literal pattern matched
        return choose(alts);
    }

    ir::PrimOut
    alu(Prim p, const std::vector<uint64_t> &operands)
    {
        TermId a = TermId(operands[0]);
        TermId b = operands.size() > 1 ? TermId(operands[1]) : kNoTerm;
        if (p == Prim::Div || p == Prim::Mod) {
            if (terms.isConst(b)) {
                if (terms.constValue(b) == 0)
                    return ir::PrimOut::error(kErrDivZero);
            } else {
                // Fork: divisor non-zero first, then the error arm.
                int take = choose({ { { b, false, 0 } },
                                    { { b, true, 0 } } });
                if (take < 0)
                    return ir::PrimOut::cut();
                if (take == 1)
                    return ir::PrimOut::error(kErrDivZero);
            }
        }
        return ir::PrimOut::value(terms.apply(p, a, b));
    }

    /** getint: the port must be concrete for the scripted read value
     *  (fuzz/oracle.hh RecordBus) to be a path constant; a symbolic
     *  port is pinned to its value under the seed assignment. */
    ir::PrimOut
    getInt(uint64_t portWord)
    {
        TermId port = TermId(portWord);
        SWord c;
        if (terms.isConst(port)) {
            c = terms.constValue(port);
        } else {
            TermEvalResult r = terms.evalUnder(port, seeds);
            if (!r.ok) {
                cut("getint port unevaluable under the seed "
                    "assignment");
                return ir::PrimOut::cut();
            }
            c = r.value;
            if (!cond.add(terms, { port, true, c })) {
                cut("getint port pin contradicts path condition");
                return ir::PrimOut::cut();
            }
        }
        TermId val =
            terms.constant(fuzz::RecordBus::scripted(c, ioOrdinal++));
        io.push_back({ true, terms.constant(c), val });
        return ir::PrimOut::value(val);
    }

    void
    putInt(uint64_t port, uint64_t value)
    {
        io.push_back({ false, TermId(port), TermId(value) });
    }

    Export
    exportLeaf(uint64_t v)
    {
        auto sv = std::make_shared<SymValue>();
        sv->kind = SymValue::Kind::Int;
        sv->t = TermId(v);
        return sv;
    }

    Export
    exportNode(bool cons, Word fn, std::vector<Export> items)
    {
        auto sv = std::make_shared<SymValue>();
        sv->kind = cons ? SymValue::Kind::Cons : SymValue::Kind::Closure;
        sv->id = fn;
        sv->items = std::move(items);
        return sv;
    }

  private:
    static constexpr unsigned kNoVar = ~0u;

    /** Record why the path stops; the first reason wins. */
    void
    cut(const char *why)
    {
        if (cutWhy.empty())
            cutWhy = why;
    }

    /**
     * Resolve one choice point. `alts` holds the atom set each
     * alternative would add; the return value is the chosen index,
     * or -1 when the path stops (truncation or a script/pc
     * contradiction). The chosen atoms are added to the condition.
     */
    int
    choose(const std::vector<std::vector<Atom>> &alts)
    {
        // An alternative is viable when its atoms can be added to
        // the condition in sequence without contradiction.
        auto viable = [&](const std::vector<Atom> &atoms) {
            PathCond probe = cond;
            for (const Atom &a : atoms) {
                if (!probe.add(terms, a))
                    return false;
            }
            return true;
        };

        unsigned take;
        std::vector<unsigned> siblings;
        if (choices.size() < script.size()) {
            take = script[choices.size()];
            if (take >= alts.size() || !viable(alts[take])) {
                cut("scripted alternative is not viable");
                return -1;
            }
        } else {
            if (choices.size() >= cfg.maxChoices) {
                cut("choice budget exhausted");
                return -1;
            }
            int first = -1;
            for (unsigned i = 0; i < alts.size(); ++i) {
                if (!viable(alts[i]))
                    continue;
                if (first < 0)
                    first = int(i);
                else
                    siblings.push_back(i);
            }
            if (first < 0) {
                // Unreachable by construction (the else alternative
                // of a case and one side of the div fork are always
                // viable), kept as a safe halt.
                cut("no viable alternative");
                return -1;
            }
            take = unsigned(first);
        }
        for (const Atom &a : alts[take]) {
            if (!cond.add(terms, a))
                panic("sym: viable alternative failed to add");
        }
        choices.push_back({ take, std::move(siblings) });
        return int(take);
    }

    // ---- state ----------------------------------------------------

    const ir::Module mod;
    const SymEvalConfig cfg;
    const TimingModel timing{};
    TermArena terms;
    /** Input variable of each operand (kNoVar: not an input site). */
    std::vector<unsigned> varOf;
    std::vector<SWord> seeds;
    std::vector<TermId> varTerm;

    // Per path.
    Script script;
    std::vector<ChoiceRec> choices;
    PathCond cond;
    std::vector<SymIo> io;
    uint64_t ioOrdinal = 0;
    std::string cutWhy;
};

SymEval::SymEval(const Program &program, SymEvalConfig cfg)
    : impl(std::make_unique<Impl>(program, cfg))
{}

SymEval::~SymEval() = default;

unsigned
SymEval::numVars() const
{
    return impl->nVars();
}

const std::vector<SWord> &
SymEval::seedAssign() const
{
    return impl->seedRef();
}

PathRun
SymEval::runPath(const Script &script)
{
    return impl->runPath(script);
}

const TermArena &
SymEval::arena() const
{
    return impl->arenaRef();
}

} // namespace zarf::sym
