#include "sem/bigstep.hh"

#include "support/logging.hh"

namespace zarf
{

/**
 * Internal evaluator. Non-Ok outcomes are propagated through a
 * sticky failure flag so the recursive evaluation unwinds promptly.
 */
class BigStep::Impl
{
  public:
    Impl(const Program &program, IoBus &bus, BigStepConfig config)
        : prog(program.clone()), bus(bus), cfg(config)
    {}

    EvalResult
    runMain()
    {
        reset();
        int entry = prog.entryIndex();
        if (entry < 0) {
            return { EvalResult::Status::Stuck, nullptr,
                     "program has no entry function" };
        }
        const Decl &main = prog.decls[size_t(entry)];
        Frame frame;
        ValuePtr v = evalExpr(*main.body, frame);
        return finish(v);
    }

    EvalResult
    call(const std::string &fnName, const std::vector<ValuePtr> &args)
    {
        reset();
        int idx = prog.findByName(fnName);
        if (idx < 0) {
            return { EvalResult::Status::Stuck, nullptr,
                     "no function named " + fnName };
        }
        ValuePtr callee = Value::makeClosure(Program::idOf(size_t(idx)),
                                             {});
        ValuePtr v = apply(callee, args);
        return finish(v);
    }

    uint64_t stepsUsed() const { return steps; }

  private:
    /** Argument and local frames of one activation. */
    struct Frame
    {
        std::vector<ValuePtr> args;
        std::vector<ValuePtr> locals;
    };

    void
    reset()
    {
        steps = 0;
        depth = 0;
        failure = EvalResult::Status::Ok;
        failWhere.clear();
    }

    EvalResult
    finish(ValuePtr v)
    {
        if (failure != EvalResult::Status::Ok)
            return { failure, nullptr, failWhere };
        return { EvalResult::Status::Ok, std::move(v), "" };
    }

    ValuePtr
    fail(EvalResult::Status why, const std::string &where)
    {
        if (failure == EvalResult::Status::Ok) {
            failure = why;
            failWhere = where;
        }
        return nullptr;
    }

    bool failed() const { return failure != EvalResult::Status::Ok; }

    /** ρ(arg) of Fig. 3. Out-of-range slot references are undefined
     *  by the semantics; they report Stuck so the engine is total
     *  over every decodable program, not just scope-validated ones
     *  (the conformance fuzzer feeds it near-well-formed mutants). */
    ValuePtr
    operand(const Operand &op, const Frame &frame)
    {
        switch (op.src) {
          case Src::Imm:
            return Value::makeInt(op.val);
          case Src::Arg:
            if (size_t(op.val) >= frame.args.size())
                return fail(EvalResult::Status::Stuck,
                            "argument index out of range");
            return frame.args[size_t(op.val)];
          case Src::Local:
            if (size_t(op.val) >= frame.locals.size())
                return fail(EvalResult::Status::Stuck,
                            "local index out of range");
            return frame.locals[size_t(op.val)];
        }
        return nullptr;
    }

    /** Guarded recursion entry: fuel and depth accounting. */
    bool
    enter()
    {
        if (failed())
            return false;
        if (++steps > cfg.maxSteps) {
            fail(EvalResult::Status::OutOfFuel, "step budget");
            return false;
        }
        if (depth >= cfg.maxDepth) {
            fail(EvalResult::Status::DepthExceeded, "recursion depth");
            return false;
        }
        return true;
    }

    ValuePtr
    evalExpr(const Expr &e, Frame &frame)
    {
        if (!enter())
            return nullptr;
        ++depth;
        ValuePtr v = evalExprInner(e, frame);
        --depth;
        return v;
    }

    ValuePtr
    evalExprInner(const Expr &e, Frame &frame)
    {
        if (e.isLet()) {
            const Let &l = e.asLet();
            ValuePtr bound = evalLet(l, frame);
            if (failed())
                return nullptr;
            frame.locals.push_back(std::move(bound));
            ValuePtr out = evalExpr(*l.body, frame);
            frame.locals.pop_back();
            return out;
        }
        if (e.isCase())
            return evalCase(e.asCase(), frame);
        // (result): v = ρ(arg).
        return operand(e.asResult().value, frame);
    }

    /** The let-* rules: dispatch on the callee form. */
    ValuePtr
    evalLet(const Let &l, Frame &frame)
    {
        std::vector<ValuePtr> args;
        args.reserve(l.args.size());
        for (const auto &a : l.args)
            args.push_back(operand(a, frame));

        ValuePtr callee;
        switch (l.callee.kind) {
          case CalleeKind::Func:
            // (let-fun)/(let-con)/(let-prim)/(getint)/(putint):
            // a bare identifier denotes an empty closure over it.
            // Decoded identifiers are unchecked: reject one that
            // names neither a primitive nor a declaration before it
            // can index the declaration table.
            if (isPrimId(l.callee.id)
                    ? !primById(l.callee.id).has_value()
                    : Program::indexOf(l.callee.id) >=
                          prog.decls.size())
                return fail(EvalResult::Status::Stuck,
                            "unknown callee id");
            callee = Value::makeClosure(l.callee.id, {});
            break;
          case CalleeKind::Local:
            if (l.callee.id >= frame.locals.size())
                return fail(EvalResult::Status::Stuck,
                            "callee local out of range");
            callee = frame.locals[l.callee.id];
            break;
          case CalleeKind::Arg:
            if (l.callee.id >= frame.args.size())
                return fail(EvalResult::Status::Stuck,
                            "callee arg out of range");
            callee = frame.args[l.callee.id];
            break;
        }
        return apply(callee, args);
    }

    /**
     * applyFn / applyCn / applyPrim of Fig. 3, unified over the
     * callee's identifier class. Accumulates arguments into the
     * closure, evaluates on saturation, and re-applies leftovers on
     * over-application.
     */
    ValuePtr
    apply(ValuePtr callee, std::vector<ValuePtr> args)
    {
        for (;;) {
            if (failed())
                return nullptr;
            if (!callee)
                return fail(EvalResult::Status::Stuck, "null callee");
            if (callee->isInt()) {
                // Applying an integer: the tag bit catches this in
                // hardware; semantically it is the bad-apply error.
                if (args.empty())
                    return callee;
                return Value::makeError(kErrBadApply);
            }
            if (callee->isCons()) {
                if (args.empty())
                    return callee;
                if (callee->isError())
                    return callee; // Errors absorb application.
                return Value::makeError(kErrArity);
            }

            Word id = callee->id();
            unsigned arity = arityOf(id);
            std::vector<ValuePtr> have = callee->items();

            // Accumulate arguments up to saturation.
            size_t take = std::min(args.size(),
                                   size_t(arity) - have.size());
            have.insert(have.end(), args.begin(),
                        args.begin() + ptrdiff_t(take));
            std::vector<ValuePtr> rest(args.begin() + ptrdiff_t(take),
                                       args.end());

            if (have.size() < arity) {
                // Under-application: a new closure value.
                return Value::makeClosure(id, std::move(have));
            }

            // Saturated: evaluate this call.
            ValuePtr out = invoke(id, have);
            if (failed())
                return nullptr;
            if (rest.empty())
                return out;
            // Over-application: apply the result to the leftovers.
            // An over-saturated constructor is the arity error, Error
            // included: the lazy engines reject the construction
            // itself, so the new Error never gets to absorb the
            // leftovers (only an existing Error callee does).
            if (id == static_cast<Word>(Prim::Error))
                return Value::makeError(kErrArity);
            callee = std::move(out);
            args = std::move(rest);
        }
    }

    /** Evaluate a saturated call of id on args. */
    ValuePtr
    invoke(Word id, const std::vector<ValuePtr> &args)
    {
        if (isPrimId(id))
            return invokePrim(id, args);
        const Decl &d = prog.decls[Program::indexOf(id)];
        if (d.isCons)
            return Value::makeCons(id, args);
        Frame frame;
        frame.args = args;
        return evalExpr(*d.body, frame);
    }

    ValuePtr
    invokePrim(Word id, const std::vector<ValuePtr> &args)
    {
        Prim p = static_cast<Prim>(id);
        if (p == Prim::Error)
            return Value::makeCons(id, args);
        // Every primitive is strict in integer arguments. The lazy
        // engines force them in argument order and stop at the first
        // non-integer: an Error there propagates unchanged, anything
        // else is the primitive's type error.
        const bool io = p == Prim::GetInt || p == Prim::PutInt;
        std::vector<SWord> ints;
        ints.reserve(args.size());
        for (const auto &a : args) {
            if (a->isError())
                return a;
            if (!a->isInt())
                return Value::makeError(io ? kErrIoNotInt
                                           : kErrBadApply);
            ints.push_back(a->intVal());
        }
        if (p == Prim::GetInt) {
            // (getint): n2 is input from port n1.
            return Value::makeInt(bus.getInt(ints[0]));
        }
        if (p == Prim::PutInt) {
            // (putint): write and yield the written value.
            bus.putInt(ints[0], ints[1]);
            return args[1];
        }
        if (p == Prim::InvokeGc) {
            // Integer identity; collection is a machine-level effect
            // only. The kernel threads an integer token through gc
            // to sequence it.
            return args[0];
        }
        PrimResult r = evalAlu(p, ints);
        if (!r.ok)
            return Value::makeError(r.errCode);
        return Value::makeInt(r.value);
    }

    /** (case-*) rules: match an evaluated scrutinee. */
    ValuePtr
    evalCase(const Case &c, Frame &frame)
    {
        ValuePtr scrut = operand(c.scrut, frame);
        if (failed())
            return nullptr;

        for (const auto &br : c.branches) {
            bool match;
            if (br.isCons) {
                // (case-con): same constructor name.
                match = scrut->isCons() && scrut->id() == br.consId;
            } else {
                // (case-lit): same integer.
                match = scrut->isInt() && scrut->intVal() == br.lit;
            }
            if (!match)
                continue;
            if (br.isCons) {
                // Fields become new locals for the branch body.
                size_t base = frame.locals.size();
                for (const auto &f : scrut->items())
                    frame.locals.push_back(f);
                ValuePtr out = evalExpr(*br.body, frame);
                frame.locals.resize(base);
                return out;
            }
            return evalExpr(*br.body, frame);
        }
        // (case-else1)/(case-else2): no branch matched. Closures
        // also fall through to else (they match no pattern).
        return evalExpr(*c.elseBody, frame);
    }

    unsigned
    arityOf(Word id) const
    {
        if (isPrimId(id)) {
            auto p = primById(id);
            if (!p)
                panic("apply of unknown primitive 0x%x", id);
            return p->arity;
        }
        return prog.decls[Program::indexOf(id)].arity;
    }

    const Program prog; // owned clone: callers may pass temporaries
    IoBus &bus;
    BigStepConfig cfg;

    uint64_t steps = 0;
    unsigned depth = 0;
    EvalResult::Status failure = EvalResult::Status::Ok;
    std::string failWhere;
};

BigStep::BigStep(const Program &program, IoBus &bus, BigStepConfig config)
    : impl(std::make_unique<Impl>(program, bus, config))
{}

BigStep::~BigStep() = default;

EvalResult
BigStep::runMain()
{
    return impl->runMain();
}

EvalResult
BigStep::call(const std::string &fnName,
              const std::vector<ValuePtr> &args)
{
    return impl->call(fnName, args);
}

uint64_t
BigStep::stepsUsed() const
{
    return impl->stepsUsed();
}

} // namespace zarf
