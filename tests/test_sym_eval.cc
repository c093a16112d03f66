/**
 * @file
 * The symbolic transfer functions testing themselves against the
 * concrete ISA (docs/SYMBOLIC.md):
 *
 *  - every symbolic ALU rule is differentially checked against
 *    isa/prims.hh::evalAlu over a corner lattice (0, ±1, saturation
 *    boundaries, shift widths, error-latching divisors) — both by
 *    direct term evaluation and under solver-produced models;
 *  - the term arena hash-conses, folds constants through the same
 *    evalAlu, and tracks variable support exactly;
 *  - the interval/congruence solver is sound on both sides exercised
 *    here: every Sat model verifies, every Unsat claim has an exact
 *    proof (pin conflict, bijective-chain inversion, empty interval,
 *    out-of-domain pin);
 *  - the single-path symbolic evaluator follows the concrete
 *    semantics on handcrafted shapes, including the error-latching
 *    and WHNF rules;
 *  - its per-path cycles are the machine's exact ledger: on every
 *    explored path of those shapes, the path's cycles plus load equal
 *    Machine::cycles() of the image concretized at the path's model,
 *    and a seeded IR-core ledger defect breaks that equality.
 */

#include <gtest/gtest.h>

#include "fuzz/oracle.hh"
#include "ir/testhooks.hh"
#include "isa/binary.hh"
#include "isa/builder.hh"
#include "isa/encoding.hh"
#include "machine/machine.hh"
#include "sym/concolic.hh"
#include "sym/eval.hh"
#include "sym/solver.hh"
#include "sym/term.hh"

namespace zarf::sym
{
namespace
{

/** The corner lattice: zero, units, saturation boundaries and their
 *  neighbors, shift widths, and small composites. */
const SWord kCorners[] = {
    0,  1,  -1, kIntMin, kIntMax, kIntMin + 1, kIntMax - 1,
    2,  -2, 7,  -7,      30,      31,          32,
    33, -31, 100, -100,
};

const Prim kBinaryAlu[] = {
    Prim::Add, Prim::Sub, Prim::Mul, Prim::Div, Prim::Mod,
    Prim::Min, Prim::Max, Prim::Eq,  Prim::Ne,  Prim::Lt,
    Prim::Le,  Prim::Gt,  Prim::Ge,  Prim::BAnd, Prim::BOr,
    Prim::BXor, Prim::Shl, Prim::Shr, Prim::Sru,
};

const Prim kUnaryAlu[] = { Prim::Neg, Prim::Abs, Prim::BNot };

TEST(SymTerm, HashConsingSharesStructure)
{
    TermArena arena;
    TermId v0 = arena.variable(0);
    TermId c3 = arena.constant(3);
    TermId a = arena.apply(Prim::Add, v0, c3);
    TermId b = arena.apply(Prim::Add, v0, arena.constant(3));
    EXPECT_EQ(a, b);
    EXPECT_EQ(arena.variable(0), v0);
    EXPECT_NE(arena.apply(Prim::Add, c3, v0), a);
    EXPECT_EQ(arena.toString(a), "(add v0 3)");
}

TEST(SymTerm, ConstantFoldingMatchesEvalAlu)
{
    TermArena arena;
    for (SWord a : kCorners) {
        for (SWord b : kCorners) {
            for (Prim op : kBinaryAlu) {
                PrimResult g =
                    evalAlu(op, { wrapInt31(a), wrapInt31(b) });
                if (!g.ok)
                    continue; // foldable errors are evaluator forks
                TermId t = arena.apply(op, arena.constant(a),
                                       arena.constant(b));
                ASSERT_TRUE(arena.isConst(t));
                EXPECT_EQ(arena.constValue(t), g.value)
                    << "op 0x" << std::hex << unsigned(op);
            }
        }
    }
}

TEST(SymTerm, SupportTracksVariables)
{
    TermArena arena;
    TermId v0 = arena.variable(0);
    TermId v3 = arena.variable(3);
    TermId t = arena.apply(
        Prim::Mul, arena.apply(Prim::Add, v0, arena.constant(2)),
        v3);
    EXPECT_EQ(arena.support(t), (uint64_t(1) << 0) | (uint64_t(1) << 3));
    EXPECT_EQ(arena.support(arena.constant(9)), 0u);
}

/** Each symbolic ALU rule, differentially checked against evalAlu
 *  over the full corner lattice by direct evaluation. */
TEST(SymTransfer, BinaryRulesMatchEvalAluOnCorners)
{
    TermArena arena;
    TermId v0 = arena.variable(0);
    TermId v1 = arena.variable(1);
    for (Prim op : kBinaryAlu) {
        TermId t = arena.apply(op, v0, v1);
        for (SWord a : kCorners) {
            for (SWord b : kCorners) {
                std::vector<SWord> assign{ a, b };
                TermEvalResult s = arena.evalUnder(t, assign);
                PrimResult g =
                    evalAlu(op, { wrapInt31(a), wrapInt31(b) });
                ASSERT_EQ(s.ok, g.ok)
                    << "op 0x" << std::hex << unsigned(op)
                    << std::dec << " a=" << a << " b=" << b;
                if (g.ok)
                    EXPECT_EQ(s.value, g.value)
                        << "op 0x" << std::hex << unsigned(op)
                        << std::dec << " a=" << a << " b=" << b;
                else
                    EXPECT_EQ(s.errCode, g.errCode);
            }
        }
    }
}

TEST(SymTransfer, UnaryRulesMatchEvalAluOnCorners)
{
    TermArena arena;
    TermId v0 = arena.variable(0);
    for (Prim op : kUnaryAlu) {
        TermId t = arena.apply(op, v0);
        for (SWord a : kCorners) {
            std::vector<SWord> assign{ a };
            TermEvalResult s = arena.evalUnder(t, assign);
            PrimResult g = evalAlu(op, { wrapInt31(a) });
            ASSERT_TRUE(s.ok && g.ok);
            EXPECT_EQ(s.value, g.value)
                << "op 0x" << std::hex << unsigned(op) << std::dec
                << " a=" << a;
        }
    }
}

/** The same rules exercised *under solver models*: pin both inputs
 *  via atoms, let the solver produce a verified model, and compare
 *  the symbolic result term's evaluation with evalAlu at the model.
 *  Corner values restricted to the encodable immediate domain (the
 *  solver's variable domain). */
TEST(SymTransfer, RulesMatchEvalAluUnderSolverModels)
{
    TermArena arena;
    TermId v0 = arena.variable(0);
    TermId v1 = arena.variable(1);
    std::vector<SWord> seed{ 0, 0 };
    for (Prim op : kBinaryAlu) {
        TermId t = arena.apply(op, v0, v1);
        for (SWord a : kCorners) {
            for (SWord b : kCorners) {
                if (a < kMinImm || a > kMaxImm || b < kMinImm ||
                    b > kMaxImm)
                    continue;
                std::vector<Atom> atoms{ { v0, true, a },
                                         { v1, true, b } };
                SolveResult s =
                    solveAtoms(arena, atoms, 2, seed);
                ASSERT_EQ(s.status, SolveStatus::Sat);
                ASSERT_EQ(s.model[0], a);
                ASSERT_EQ(s.model[1], b);
                TermEvalResult sv = arena.evalUnder(t, s.model);
                PrimResult g = evalAlu(op, { a, b });
                ASSERT_EQ(sv.ok, g.ok);
                if (g.ok) {
                    EXPECT_EQ(sv.value, g.value)
                        << "op 0x" << std::hex << unsigned(op)
                        << std::dec << " a=" << a << " b=" << b;
                }
            }
        }
    }
}

TEST(SymSolver, PinConflictIsUnsat)
{
    TermArena arena;
    TermId v0 = arena.variable(0);
    std::vector<Atom> atoms{ { v0, true, 3 }, { v0, true, 4 } };
    SolveResult s = solveAtoms(arena, atoms, 1, { 0 });
    EXPECT_EQ(s.status, SolveStatus::Unsat);
}

TEST(SymSolver, BijectiveChainInvertsExactly)
{
    TermArena arena;
    TermId v0 = arena.variable(0);
    // neg(bxor(v0 + 5, 9)) == -12  =>  v0 = (12 ^ 9) - 5 = 0.
    TermId t = arena.apply(
        Prim::Neg,
        arena.apply(Prim::BXor,
                    arena.apply(Prim::Add, v0, arena.constant(5)),
                    arena.constant(9)));
    std::vector<Atom> atoms{ { t, true, wrapInt31(-12) } };
    SolveResult s = solveAtoms(arena, atoms, 1, { 77 });
    ASSERT_EQ(s.status, SolveStatus::Sat);
    EXPECT_EQ(s.model[0], (12 ^ 9) - 5);
    // The verified pin conflicts with an extra exclusion — Unsat.
    atoms.push_back({ v0, false, s.model[0] });
    EXPECT_EQ(solveAtoms(arena, atoms, 1, { 77 }).status,
              SolveStatus::Unsat);
}

TEST(SymSolver, WrapAroundInversionIsExact)
{
    TermArena arena;
    TermId v0 = arena.variable(0);
    // add(v0, 1) == kIntMin only via wrap: v0 = kIntMax, which is
    // outside the immediate domain — a sound Unsat, not a model.
    TermId t = arena.apply(Prim::Add, v0, arena.constant(1));
    std::vector<Atom> atoms{ { t, true, kIntMin } };
    SolveResult s = solveAtoms(arena, atoms, 1, { 0 });
    EXPECT_EQ(s.status, SolveStatus::Unsat);
}

TEST(SymSolver, ComparisonIntervalsNarrowAndRefute)
{
    TermArena arena;
    TermId v0 = arena.variable(0);
    TermId lt = arena.apply(Prim::Lt, v0, arena.constant(10));
    TermId gt = arena.apply(Prim::Gt, v0, arena.constant(5));
    std::vector<Atom> sat{ { lt, true, 1 }, { gt, true, 1 } };
    SolveResult s = solveAtoms(arena, sat, 1, { 0 });
    ASSERT_EQ(s.status, SolveStatus::Sat);
    EXPECT_GT(s.model[0], 5);
    EXPECT_LT(s.model[0], 10);

    TermId lt6 = arena.apply(Prim::Lt, v0, arena.constant(6));
    std::vector<Atom> unsat{ { lt6, true, 1 }, { gt, true, 1 } };
    EXPECT_EQ(solveAtoms(arena, unsat, 1, { 0 }).status,
              SolveStatus::Unsat);
}

TEST(SymSolver, ModCongruenceGuidesSearch)
{
    TermArena arena;
    TermId v0 = arena.variable(0);
    TermId m = arena.apply(Prim::Mod, v0, arena.constant(7));
    TermId gt = arena.apply(Prim::Gt, v0, arena.constant(100));
    std::vector<Atom> atoms{ { m, true, 3 }, { gt, true, 1 } };
    SolveResult s = solveAtoms(arena, atoms, 1, { 0 });
    ASSERT_EQ(s.status, SolveStatus::Sat);
    EXPECT_EQ(s.model[0] % 7, 3);
    EXPECT_GT(s.model[0], 100);
}

TEST(SymSolver, UnconstrainedVarsKeepSeedValues)
{
    TermArena arena;
    TermId v1 = arena.variable(1);
    std::vector<Atom> atoms{ { v1, true, 8 } };
    SolveResult s = solveAtoms(arena, atoms, 3, { 40, 41, 42 });
    ASSERT_EQ(s.status, SolveStatus::Sat);
    EXPECT_EQ(s.model[0], 40);
    EXPECT_EQ(s.model[1], 8);
    EXPECT_EQ(s.model[2], 42);
}

TEST(SymPathCond, AbsorbsDuplicatesRejectsContradictions)
{
    TermArena arena;
    TermId v0 = arena.variable(0);
    PathCond pc;
    EXPECT_TRUE(pc.add(arena, { v0, false, 3 }));
    EXPECT_TRUE(pc.add(arena, { v0, false, 3 })); // duplicate
    EXPECT_EQ(pc.atoms().size(), 1u);
    EXPECT_FALSE(pc.consistent(arena, { v0, true, 3 }));
    EXPECT_TRUE(pc.add(arena, { v0, true, 5 }));
    EXPECT_FALSE(pc.add(arena, { v0, true, 6 }));
    EXPECT_EQ(pc.support(arena), 1u);
}

// ---- single-path evaluator vs the concrete semantics ----

/** A variable-free program runs one path: its Done value and the
 *  machine agreement is checked end-to-end by the concolic suite;
 *  here we check the evaluator's own rules on handcrafted shapes. */
Program
progResultImm(SWord v)
{
    ProgramBuilder pb;
    pb.fn("main", {}, nRet(nImm(v)));
    return pb.build();
}

TEST(SymEvalRules, ConstantProgramProducesConstantValue)
{
    // maxVars=0: fully concrete single path.
    SymEvalConfig cfg;
    cfg.maxVars = 0;
    SymEval eval(progResultImm(42), cfg);
    EXPECT_EQ(eval.numVars(), 0u);
    PathRun run = eval.runPath({});
    ASSERT_EQ(run.status, PathRun::Status::Done);
    ASSERT_TRUE(run.value);
    EXPECT_EQ(run.value->kind, SymValue::Kind::Int);
    ValuePtr v = concretizeValue(eval.arena(), *run.value, {});
    ASSERT_TRUE(v && v->isInt());
    EXPECT_EQ(v->intVal(), 42);
    EXPECT_TRUE(run.pc.empty());
    EXPECT_TRUE(run.choices.empty());
    EXPECT_GT(run.cycleBound, 0u);
}

TEST(SymEvalRules, SymbolicSiteBecomesVariable)
{
    SymEval eval(progResultImm(42), {});
    ASSERT_EQ(eval.numVars(), 1u);
    EXPECT_EQ(eval.seedAssign()[0], 42);
    PathRun run = eval.runPath({});
    ASSERT_EQ(run.status, PathRun::Status::Done);
    ValuePtr v = concretizeValue(eval.arena(), *run.value, { 7 });
    ASSERT_TRUE(v && v->isInt());
    EXPECT_EQ(v->intVal(), 7);
}

TEST(SymEvalRules, DivByZeroLatchesError)
{
    ProgramBuilder pb;
    pb.fn("main", {},
          nLet("d", "div", { nImm(10), nImm(0) }, nRet(nVar("d"))));
    SymEvalConfig cfg;
    cfg.maxVars = 0; // concrete: no fork, direct error
    SymEval eval(pb.build(), cfg);
    PathRun run = eval.runPath({});
    ASSERT_EQ(run.status, PathRun::Status::Done);
    ASSERT_TRUE(run.value);
    ASSERT_EQ(run.value->kind, SymValue::Kind::Cons);
    EXPECT_EQ(run.value->id, Word(Prim::Error));
    ValuePtr v = concretizeValue(eval.arena(), *run.value, {});
    ASSERT_TRUE(v && v->isError());
    EXPECT_EQ(v->items()[0]->intVal(), kErrDivZero);
}

TEST(SymEvalRules, SymbolicDivisorForksBothWays)
{
    ProgramBuilder pb;
    pb.fn("main", {},
          nLet("d", "div", { nImm(100), nImm(4) },
               nRet(nVar("d"))));
    SymEval eval(pb.build(), {});
    ASSERT_EQ(eval.numVars(), 2u);
    // Default path: divisor != 0, result 100/4 under the seed.
    PathRun ok = eval.runPath({});
    ASSERT_EQ(ok.status, PathRun::Status::Done);
    ASSERT_EQ(ok.choices.size(), 1u);
    EXPECT_EQ(ok.choices[0].taken, 0u);
    ASSERT_EQ(ok.choices[0].siblings.size(), 1u);
    ValuePtr v =
        concretizeValue(eval.arena(), *ok.value, { 100, 4 });
    ASSERT_TRUE(v && v->isInt());
    EXPECT_EQ(v->intVal(), 25);
    // Scripted alternative: the divisor-zero arm latches Error.
    PathRun err = eval.runPath({ 1 });
    ASSERT_EQ(err.status, PathRun::Status::Done);
    ASSERT_TRUE(err.value);
    ASSERT_EQ(err.value->kind, SymValue::Kind::Cons);
    EXPECT_EQ(err.value->id, Word(Prim::Error));
}

TEST(SymEvalRules, CaseOnSymbolicIntForksPerLiteralBranch)
{
    ProgramBuilder pb;
    pb.fn("main", {},
          nCase(nImm(1),
                { litBranch(1, nRet(nImm(10))),
                  litBranch(2, nRet(nImm(20))) },
                nRet(nImm(30))));
    SymEvalConfig cfg;
    cfg.maxVars = 1; // only the scrutinee is symbolic
    SymEval eval(pb.build(), cfg);
    ASSERT_EQ(eval.numVars(), 1u);

    PathRun p0 = eval.runPath({});
    ASSERT_EQ(p0.status, PathRun::Status::Done);
    ASSERT_EQ(p0.choices.size(), 1u);
    EXPECT_EQ(p0.choices[0].taken, 0u); // branch 0 (v0 == 1: seed)
    EXPECT_EQ(p0.choices[0].siblings.size(), 2u);

    PathRun p1 = eval.runPath({ 1 });
    ASSERT_EQ(p1.status, PathRun::Status::Done);
    ValuePtr v1 = concretizeValue(eval.arena(), *p1.value, { 2 });
    ASSERT_TRUE(v1 && v1->isInt());
    EXPECT_EQ(v1->intVal(), 20);

    PathRun pe = eval.runPath({ 2 });
    ASSERT_EQ(pe.status, PathRun::Status::Done);
    ValuePtr ve = concretizeValue(eval.arena(), *pe.value, { 9 });
    ASSERT_TRUE(ve && ve->isInt());
    EXPECT_EQ(ve->intVal(), 30);
    // else path carries both != atoms.
    EXPECT_EQ(pe.pc.size(), 2u);
}

TEST(SymEvalRules, ApplyingIntLatchesBadApply)
{
    ProgramBuilder pb;
    pb.fn("main", {},
          nLet("x", "add", { nImm(1), nImm(2) },
               nLet("y", "x", { nImm(5) }, nRet(nVar("y")))));
    SymEvalConfig cfg;
    cfg.maxVars = 0;
    SymEval eval(pb.build(), cfg);
    PathRun run = eval.runPath({});
    ASSERT_EQ(run.status, PathRun::Status::Done);
    ASSERT_TRUE(run.value);
    ASSERT_EQ(run.value->kind, SymValue::Kind::Cons);
    EXPECT_EQ(run.value->id, Word(Prim::Error));
    ValuePtr v = concretizeValue(eval.arena(), *run.value, {});
    ASSERT_TRUE(v && v->isError());
    EXPECT_EQ(v->items()[0]->intVal(), kErrBadApply);
}

TEST(SymEvalRules, SiteWalkIsDeterministicAndCapped)
{
    ProgramBuilder pb;
    pb.fn("main", {},
          nLet("a", "add", { nImm(1), nImm(2) },
               nCase(nImm(3), { litBranch(7, nRet(nImm(4))) },
                     nRet(nImm(5)))));
    Program p1 = pb.build();
    Program p2 = p1.clone();
    auto s1 = collectSymSites(p1, 8);
    auto s2 = collectSymSites(p2, 8);
    ASSERT_EQ(s1.size(), 5u); // 1,2 (let args), 3 (scrut), 4, 5
    ASSERT_EQ(s2.size(), 5u);
    for (size_t i = 0; i < s1.size(); ++i)
        EXPECT_EQ(s1[i]->val, s2[i]->val);
    EXPECT_EQ(s1[0]->val, 1);
    EXPECT_EQ(s1[2]->val, 3);
    EXPECT_EQ(s1[4]->val, 5);
    EXPECT_EQ(collectSymSites(p1, 2).size(), 2u);
}

// ---- exact cycles: every explored path against the machine ----

/** Per-shape result of the cycle check. */
struct CycleCheck
{
    size_t paths = 0;
    size_t mismatches = 0;
};

/** Explore every path of `prog`, concretize each at its solved model,
 *  run the image on the machine, and count the paths whose cycles
 *  plus load differ from Machine::cycles(). Every path of the shapes
 *  below is satisfiable and ends like the machine run. */
CycleCheck
checkCycles(const Program &prog)
{
    CycleCheck out;
    SymEvalConfig cfg;
    SymEval eval(prog, cfg);
    ExploreResult ex = explorePaths(eval, {});
    EXPECT_TRUE(ex.boundComplete);
    for (const ExploredPath &p : ex.paths) {
        SolveResult s = solveAtoms(eval.arena(), p.run.pc,
                                   eval.numVars(), eval.seedAssign());
        EXPECT_EQ(s.status, SolveStatus::Sat) << s.note;
        if (s.status != SolveStatus::Sat)
            continue;
        Image img = concretizeImage(prog, s.model, cfg.maxVars);
        fuzz::RecordBus bus;
        Machine m(img, bus);
        Machine::Outcome o = m.run();
        EXPECT_EQ(p.run.status == PathRun::Status::Done,
                  o.status == MachineStatus::Done)
            << p.run.detail;
        Cycles predicted =
            p.run.cycleBound + Cycles(img.size()) * TimingModel{}.loadWord;
        out.paths++;
        out.mismatches += predicted != m.cycles();
    }
    return out;
}

/** The handcrafted shapes, each with its number of explored paths. */
std::vector<std::pair<Program, size_t>>
cycleShapes()
{
    std::vector<std::pair<Program, size_t>> shapes;
    // A constant result.
    shapes.emplace_back(progResultImm(42), 1);
    {
        // A symbolic divisor: the non-zero arm and the error arm.
        ProgramBuilder pb;
        pb.fn("main", {},
              nLet("d", "div", { nImm(100), nImm(4) }, nRet(nVar("d"))));
        shapes.emplace_back(pb.build(), 2);
    }
    {
        // A symbolic case: each literal arm, and the else arm behind
        // a constructor pattern (whose slot is never viable).
        ProgramBuilder pb;
        pb.cons("Box", 1);
        pb.fn("main", {},
              nCase(nImm(1),
                    { litBranch(1, nRet(nImm(10))),
                      litBranch(2, nRet(nImm(20))),
                      consBranch("Box", { "v" }, nRet(nVar("v"))) },
                    nRet(nImm(30))));
        shapes.emplace_back(pb.build(), 3);
    }
    {
        // Extending a partial application, then casing on the sum.
        ProgramBuilder pb;
        pb.fn("main", {},
              nLet("f", "add", { nImm(1) },
                   nLet("g", "f", { nImm(2) },
                        nCase(nVar("g"),
                              { litBranch(3, nRet(nImm(7))) },
                              nRet(nImm(9))))));
        shapes.emplace_back(pb.build(), 2);
    }
    {
        // Over-application: mkadd takes one argument and returns a
        // partial add, which the leftover argument saturates.
        ProgramBuilder pb;
        pb.fn("main", {},
              nLet("r", "mkadd", { nImm(1), nImm(2) }, nRet(nVar("r"))));
        pb.fn("mkadd", { "x" },
              nLet("f", "add", { nVar("x") }, nRet(nVar("f"))));
        shapes.emplace_back(pb.build(), 1);
    }
    {
        // An Error operand passing through a primitive: on the zero
        // arm of the divisor fork, add receives Error(kErrDivZero).
        ProgramBuilder pb;
        pb.fn("main", {},
              nLet("e", "div", { nImm(1), nImm(0) },
                   nLet("s", "add", { nVar("e"), nImm(5) },
                        nRet(nVar("s")))));
        shapes.emplace_back(pb.build(), 2);
    }
    {
        // getint on a symbolic port, pinned to its seed; the read
        // value goes out through putint.
        ProgramBuilder pb;
        pb.fn("main", {},
              nLet("x", "getint", { nImm(3) },
                   nLet("y", "putint", { nImm(4), nVar("x") },
                        nRet(nVar("y")))));
        shapes.emplace_back(pb.build(), 1);
    }
    {
        // gc: collection is off the cycles() ledger on both sides.
        ProgramBuilder pb;
        pb.fn("main", {},
              nLet("g", "gc", { nImm(5) }, nRet(nVar("g"))));
        shapes.emplace_back(pb.build(), 1);
    }
    return shapes;
}

TEST(SymEvalCycles, EveryPathMatchesMachineCyclesExactly)
{
    std::vector<std::pair<Program, size_t>> shapes = cycleShapes();
    for (size_t i = 0; i < shapes.size(); ++i) {
        CycleCheck c = checkCycles(shapes[i].first);
        EXPECT_EQ(c.paths, shapes[i].second) << "shape " << i;
        EXPECT_EQ(c.mismatches, 0u) << "shape " << i;
    }
}

/** Scoped IR-core ledger defect (ir/testhooks.hh). */
struct BrokenAllocGuard
{
    BrokenAllocGuard() { ir::testhooks::irBrokenAllocCharge = true; }
    ~BrokenAllocGuard() { ir::testhooks::irBrokenAllocCharge = false; }
};

TEST(SymEvalCycles, IrCoreLedgerDefectBreaksExactness)
{
    // The symbolic paths are priced by the IR core: dropping its
    // per-word allocation charge must break the equality on a shape
    // that allocates (every shape does: the boot application).
    Program shape = cycleShapes()[3].first.clone();
    ASSERT_EQ(checkCycles(shape).mismatches, 0u);
    BrokenAllocGuard guard;
    CycleCheck c = checkCycles(shape);
    ASSERT_GT(c.paths, 0u);
    EXPECT_EQ(c.mismatches, c.paths);
}

} // namespace
} // namespace zarf::sym
