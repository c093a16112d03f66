#include "ir/lift.hh"

#include "isa/prims.hh"
#include "isa/sites.hh"
#include "machine/loaded_image.hh"

namespace zarf::ir
{
namespace
{

/** Classify a global function identifier against the id table. */
void
classify(CalleeRef &c, const Module &m)
{
    if (c.id < m.ids.size() && m.ids[c.id].exists) {
        const IdEntry &e = m.ids[c.id];
        c.cls = e.isCons ? CalleeClass::Cons
                         : (isPrimId(c.id) ? CalleeClass::Prim
                                           : CalleeClass::Func);
        c.arity = e.arity;
    } else {
        // The decoder accepts wide ids on purpose; the fault is
        // dynamic (machine: "let names an unknown function
        // identifier"), so the IR carries it rather than rejecting.
        c.cls = CalleeClass::Unknown;
        c.arity = 0;
    }
}

uint32_t
effectsOfLet(const CalleeRef &c, uint32_t nargs)
{
    uint32_t eff = 0;
    if (c.kind != CalleeKind::Func) {
        // Closure-slot callee: a zero-argument let is a pure alias
        // binding; with arguments it copies/extends an application
        // object and may fault (bad apply, constructor over-apply).
        if (nargs > 0)
            eff |= kEffAlloc | kEffCall | kEffError;
        return eff;
    }
    eff |= kEffAlloc; // every Func-callee let materializes an object
    switch (c.cls) {
      case CalleeClass::Unknown:
        eff |= kEffError;
        break;
      case CalleeClass::Cons:
        if (nargs > c.arity)
            eff |= kEffError;
        break;
      case CalleeClass::Prim:
        eff |= kEffCall | kEffError;
        if (c.id == static_cast<Word>(Prim::GetInt) ||
            c.id == static_cast<Word>(Prim::PutInt))
            eff |= kEffIo;
        break;
      case CalleeClass::Func:
        eff |= kEffCall;
        break;
    }
    return eff;
}

/** Recursive linearizer; returns the op index of `e`. */
uint32_t
liftExpr(const Expr &e, Module &m, const TimingModel &t)
{
    uint32_t at = uint32_t(m.ops.size());
    m.ops.emplace_back();

    if (e.isLet()) {
        const Let &l = e.asLet();
        Op op;
        op.kind = OpKind::Let;
        op.callee.kind = l.callee.kind;
        op.callee.id = l.callee.id;
        if (l.callee.kind == CalleeKind::Func)
            classify(op.callee, m);
        op.argsBegin = uint32_t(m.operands.size());
        op.nargs = uint32_t(l.args.size());
        for (const Operand &a : l.args)
            m.operands.push_back(a);
        op.effects = effectsOfLet(op.callee, op.nargs);
        op.staticCycles = t.letBase + op.nargs * t.letPerArg;
        m.ops[at] = op;
        m.ops[at].next = liftExpr(*l.body, m, t);
        return at;
    }

    if (e.isCase()) {
        const Case &c = e.asCase();
        Op op;
        op.kind = OpKind::Case;
        op.argsBegin = uint32_t(m.operands.size());
        op.nargs = 1;
        m.operands.push_back(c.scrut);
        op.patBegin = uint32_t(m.patterns.size());
        op.patCount = uint32_t(c.branches.size());
        op.effects = kEffForce | kEffCall | kEffIo | kEffError;
        op.staticCycles = t.caseBase;
        m.ops[at] = op;
        // Reserve the whole contiguous pattern block before lifting
        // any branch body — nested cases append their own blocks.
        for (const CaseBranch &br : c.branches) {
            Pattern p;
            p.isCons = br.isCons;
            p.lit = br.lit;
            p.consId = br.consId;
            if (br.isCons && br.consId < m.ids.size() &&
                m.ids[br.consId].exists)
                p.fields = m.ids[br.consId].arity;
            m.patterns.push_back(p);
        }
        for (uint32_t i = 0; i < op.patCount; ++i) {
            uint32_t body = liftExpr(*c.branches[i].body, m, t);
            m.patterns[op.patBegin + i].body = body;
        }
        m.ops[at].elseBody = liftExpr(*c.elseBody, m, t);
        return at;
    }

    Op op;
    op.kind = OpKind::Result;
    op.argsBegin = uint32_t(m.operands.size());
    op.nargs = 1;
    m.operands.push_back(e.asResult().value);
    op.staticCycles = t.resultBase;
    m.ops[at] = op;
    return at;
}

} // namespace

LiftResult
liftProgram(const Program &program, size_t imageWords)
{
    LiftResult r;
    r.ok = true;
    Module &m = r.module;
    m.imageWords = imageWords;

    // Identifier table: primitives, then user declarations — the
    // same split LoadedImage::IdInfo resolves for the machine.
    m.ids.assign(kFirstUserFuncId + program.decls.size(), IdEntry{});
    for (const PrimInfo &p : primTable()) {
        IdEntry &e = m.ids[static_cast<Word>(p.id)];
        e.arity = p.arity;
        e.isCons = p.isConstructor;
        e.exists = true;
    }
    for (size_t i = 0; i < program.decls.size(); ++i) {
        IdEntry &e = m.ids[kFirstUserFuncId + i];
        e.arity = program.decls[i].arity;
        e.isCons = program.decls[i].isCons;
        e.exists = true;
    }

    int entry = program.entryIndex();
    m.hasEntry = entry >= 0;
    m.entry = m.hasEntry ? Word(entry) : 0;

    TimingModel t{}; // static annotations use the default model
    m.funcs.reserve(program.decls.size());
    for (size_t i = 0; i < program.decls.size(); ++i) {
        const Decl &d = program.decls[i];
        Func f;
        f.isCons = d.isCons;
        f.arity = d.arity;
        f.numLocals = d.numLocals;
        uint32_t first = uint32_t(m.operands.size());
        if (!d.isCons && d.body)
            f.body = liftExpr(*d.body, m, t);
        m.funcs.push_back(f);
        // liftExpr emits a body's operands contiguously and in the
        // canonical site order, so the entry sites are the
        // immediates of the entry body's operand range.
        if (m.hasEntry && i == m.entry) {
            for (uint32_t k = first; k < m.operands.size(); ++k) {
                if (m.operands[k].src == Src::Imm)
                    m.entrySites.push_back(k);
            }
        }
    }
    return r;
}

LiftResult
liftProgram(Program &program, size_t imageWords)
{
    LiftResult r =
        liftProgram(static_cast<const Program &>(program), imageWords);
    int entry = program.entryIndex();
    if (entry >= 0 && program.decls[size_t(entry)].body) {
        forEachOperandSite(*program.decls[size_t(entry)].body,
                           [&](Operand &op) {
                               if (op.src == Src::Imm)
                                   r.entrySitePtrs.push_back(&op);
                           });
    }
    return r;
}

namespace
{

/** The loader's gates ahead of decoding: false, with r.error set,
 *  when the machine would refuse to run the artifact. */
bool
loadGates(const LoadedImage &li, LiftResult &r)
{
    if (!li.headerOk) {
        r.error = "header: " + li.headerError;
        return false;
    }
    if (!li.hasPredecode) {
        r.error = "predecode: artifact built without predecode";
        return false;
    }
    if (!li.pre.ok) {
        r.error = "predecode: " + li.pre.error;
        return false;
    }
    return true;
}

} // namespace

LiftResult
liftLoaded(const LoadedImage &li)
{
    LiftResult r;
    if (!loadGates(li, r))
        return r;
    DecodeResult d = decodeProgram(li.image);
    if (!d.ok) {
        r.error = "decode: " + d.error;
        return r;
    }
    return liftLoaded(li, d.program);
}

LiftResult
liftLoaded(const LoadedImage &li, const Program &decoded)
{
    LiftResult r;
    if (!loadGates(li, r))
        return r;
    r = liftProgram(decoded, li.image.size());
    if (!r.module.hasEntry || r.module.entry != li.entry) {
        // Unreachable when headerOk (the loader requires a zero-arg
        // entry and computes it the same way); kept as a hard gate
        // so a future drift fails loudly instead of mislifting.
        r.ok = false;
        r.error = "lift: entry disagrees with the load artifact";
    }
    return r;
}

LiftResult
liftImage(const Image &image)
{
    return liftLoaded(*LoadedImage::load(image, true));
}

} // namespace zarf::ir
