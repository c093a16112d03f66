/**
 * @file
 * Machine edge-case tests: padded zero-argument objects, deferred
 * callees (AppV), over-application chains, the heap census API, the
 * interval GC policy, pause accounting, and stats invariants.
 */

#include <gtest/gtest.h>

#include "common/testprogs.hh"
#include "ir/eval.hh"
#include "ir/lift.hh"
#include "machine/machine.hh"
#include "zasm/zasm.hh"

namespace zarf
{
namespace
{

Machine::Outcome
run(const std::string &text, MachineConfig cfg = {})
{
    NullBus bus;
    Machine m(encodeProgram(assembleOrDie(text)), bus, cfg);
    return m.run();
}

TEST(MachineEdge, ZeroArgFunctionThunk)
{
    // `let x = f` with f of arity 0 allocates a padded thunk that
    // must still be updatable in place.
    Machine::Outcome o = run(R"(
fun main =
  let x = fortyTwo
  let y = add x 0
  let z = add x y
  result z
fun fortyTwo =
  result 42
)");
    ASSERT_EQ(o.status, MachineStatus::Done) << o.diagnostic;
    EXPECT_EQ(o.value->intVal(), 84);
}

TEST(MachineEdge, ZeroFieldConstructor)
{
    Machine::Outcome o = run(R"(
con Unit
fun main =
  let u = Unit
  case u of
    Unit =>
      result 1
  else
    result 0
)");
    ASSERT_EQ(o.status, MachineStatus::Done);
    EXPECT_EQ(o.value->intVal(), 1);
}

TEST(MachineEdge, DeferredCalleeThunk)
{
    // The callee itself is an unevaluated thunk (AppV object):
    // pick n returns a closure; we apply before forcing it.
    Machine::Outcome o = run(R"(
fun main =
  let f = pick 3
  let x = f 40
  result x
fun pick n =
  case n of
    0 =>
      let g = adder 1
      result g
  else
    let g = adder 2
    result g
fun adder a b =
  let s = add a b
  result s
)");
    ASSERT_EQ(o.status, MachineStatus::Done) << o.diagnostic;
    EXPECT_EQ(o.value->intVal(), 42);
}

TEST(MachineEdge, OverApplicationChain)
{
    // f returns g partially applied; over-application threads
    // through two Apply continuations.
    Machine::Outcome o = run(R"(
fun main =
  let x = makeAdd 2 40
  result x
fun makeAdd a =
  let g = add3 a 0
  result g
fun add3 a b c =
  let t = add a b
  let s = add t c
  result s
)");
    ASSERT_EQ(o.status, MachineStatus::Done) << o.diagnostic;
    EXPECT_EQ(o.value->intVal(), 42);
}

TEST(MachineEdge, CaseOnClosureFallsToElse)
{
    Machine::Outcome o = run(R"(
con Box v
fun main =
  let f = adder 1
  case f of
    Box v =>
      result 0
    5 =>
      result 1
  else
    result 42
fun adder a b =
  let s = add a b
  result s
)");
    ASSERT_EQ(o.status, MachineStatus::Done);
    EXPECT_EQ(o.value->intVal(), 42);
}

TEST(MachineEdge, HeapCensusCountsLiveObjects)
{
    Program p = assembleOrDie(R"(
con Pair a b
fun main =
  let x = Pair 1 2
  let y = Pair 3 4
  let z = Pair x y
  result z
)");
    NullBus bus;
    Machine m(encodeProgram(p), bus);
    ASSERT_EQ(m.advance(100000), MachineStatus::Done);
    auto census = m.heapCensus();
    // Three live Pair objects survive the census collection.
    size_t pairObjs = 0, pairWords = 0;
    for (const auto &e : census) {
        if (e.kind == ObjKind::Cons && e.fn == Program::idOf(0)) {
            pairObjs = e.objects;
            pairWords = e.words;
        }
    }
    EXPECT_EQ(pairObjs, 3u);
    EXPECT_EQ(pairWords, 9u);
}

TEST(MachineEdge, IntervalGcPolicyRuns)
{
    MachineConfig cfg;
    cfg.gcIntervalCycles = 5000;
    NullBus bus;
    Machine m(encodeProgram(
                  assembleOrDie(testing::countdownProgramText())),
              bus, cfg);
    Machine::Outcome o = m.run();
    ASSERT_EQ(o.status, MachineStatus::Done);
    // ~100k iterations at ~30 cycles each => hundreds of interval
    // collections.
    EXPECT_GT(m.stats().gcRuns, 100u);
    EXPECT_GT(m.stats().gcMaxPauseCycles, 0u);
    EXPECT_LE(m.stats().gcMaxPauseCycles, m.stats().gcCycles);
}

TEST(MachineEdge, PauseAccountingConsistent)
{
    MachineConfig cfg;
    cfg.semispaceWords = 1 << 14;
    NullBus bus;
    Machine m(encodeProgram(
                  assembleOrDie(testing::countdownProgramText())),
              bus, cfg);
    ASSERT_EQ(m.run().status, MachineStatus::Done);
    const MachineStats &s = m.stats();
    ASSERT_GT(s.gcRuns, 0u);
    EXPECT_GE(s.gcMaxPauseCycles, s.gcCycles / s.gcRuns)
        << "max pause below the mean pause";
}

TEST(MachineEdge, StatsInvariants)
{
    NullBus bus;
    Machine m(encodeProgram(assembleOrDie(
        testing::churchProgramText())), bus);
    ASSERT_EQ(m.run().status, MachineStatus::Done);
    const MachineStats &s = m.stats();
    // Every force either entered a thunk or hit WHNF; updates can't
    // outnumber forces plus collapses.
    EXPECT_GE(s.forces + s.whnfHits, s.forces);
    EXPECT_GT(s.allocatedWords, s.allocations); // header + payload
    // Cycle ledger: class cycles are a subset of exec cycles.
    EXPECT_LE(s.let.cycles + s.caseInstr.cycles + s.result.cycles,
              s.execCycles);
    // The machine clock carries load + execution only; GC is
    // accounted off the mutator clock (Machine::cycles() doc).
    EXPECT_EQ(m.cycles(), s.loadCycles + s.execCycles);
}

TEST(MachineEdge, CycleLedgerExcludesGcTime)
{
    // The StatsInvariants workload barely collects; force hundreds
    // of collections in a tight heap so the ledger contract is
    // checked where it matters.
    MachineConfig cfg;
    cfg.semispaceWords = 1 << 14;
    NullBus bus;
    Machine m(encodeProgram(
                  assembleOrDie(testing::countdownProgramText())),
              bus, cfg);
    ASSERT_EQ(m.run().status, MachineStatus::Done);
    const MachineStats &s = m.stats();
    ASSERT_GT(s.gcRuns, 0u);
    ASSERT_GT(s.gcCycles, 0u);
    EXPECT_EQ(m.cycles(), s.loadCycles + s.execCycles);
}

TEST(MachineEdge, DeepDataExport)
{
    // A 50-deep nested structure exports without blowing limits.
    Machine::Outcome o = run(R"(
con Wrap inner
fun main =
  let z = build 50
  result z
fun build n =
  case n of
    0 =>
      let w = Wrap 0
      result w
    else
      let n' = sub n 1
      let inner = build n'
      let w = Wrap inner
      result w
)");
    ASSERT_EQ(o.status, MachineStatus::Done) << o.diagnostic;
    int depth = 0;
    const Value *v = o.value.get();
    while (v->isCons() && v->items().size() == 1 &&
           v->items()[0]->isCons()) {
        v = v->items()[0].get();
        ++depth;
    }
    EXPECT_EQ(depth, 50);
}

TEST(MachineEdge, NegativeImmediatesThroughout)
{
    Machine::Outcome o = run(R"(
fun main =
  let a = add -20 -22
  case a of
    -42 =>
      result -1
  else
    result 0
)");
    ASSERT_EQ(o.status, MachineStatus::Done);
    EXPECT_EQ(o.value->intVal(), -1);
}

// Export forces a constructor's fields one after another. A
// collection during the first field's force moves the second, still
// a thunk; export must read it from where it lives now, not from
// the address it had before the force.
void
exportUnderGc(DispatchTier tier)
{
    Image img = encodeProgram(assembleOrDie(R"(
con Pair a b
fun main =
  let s = spin 20000
  let t = add 1 2
  let p = Pair s t
  result p
fun spin n =
  case n of
    0 =>
      result 7
  else
    let n' = sub n 1
    let r = spin n'
    result r
)"));
    MachineConfig cfg;
    cfg.semispaceWords = 3 * 4096;
    cfg.tier = tier;
    NullBus bus;
    Machine m(img, bus, cfg);
    Machine::Outcome o = m.run();
    ASSERT_EQ(o.status, MachineStatus::Done) << o.diagnostic;
    // (Pair 7 3)
    ASSERT_TRUE(o.value->isCons());
    ASSERT_EQ(o.value->items().size(), 2u);
    EXPECT_EQ(o.value->items()[0]->intVal(), 7);
    EXPECT_EQ(o.value->items()[1]->intVal(), 3);
    EXPECT_GT(m.stats().gcRuns, 1u);

    ir::LiftResult lift = ir::liftImage(img);
    ASSERT_TRUE(lift.ok) << lift.error;
    ir::EvalConfig ic;
    ic.maxCycles = 2'000'000'000ull;
    NullBus irBus;
    ir::Outcome io = ir::evalModule(lift.module, irBus, ic);
    ASSERT_EQ(io.status, ir::Outcome::Status::Done) << io.diagnostic;
    EXPECT_TRUE(Value::equal(*o.value, *io.value))
        << "machine: " << o.value->toString() << "\n"
        << "ir:      " << io.value->toString();
    EXPECT_EQ(m.cycles(), io.cycles);
}

TEST(MachineEdge, ExportReadsLaterFieldsAfterGcWordWalk)
{
    exportUnderGc(DispatchTier::WordWalk);
}

TEST(MachineEdge, ExportReadsLaterFieldsAfterGcUop)
{
    exportUnderGc(DispatchTier::Uop);
}

} // namespace
} // namespace zarf
