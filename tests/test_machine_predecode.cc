/**
 * @file
 * The predecoded µop execution path (machine/predecode.hh): the µop
 * core against the lifted-IR evaluator, its second cycle-exact
 * reference beside the word-walking path (tests/test_machine_threaded.cc
 * holds it to that one), on random programs and under GC pressure —
 * plus the load-time structural validation that predecoding hoists
 * out of the per-step hot path.
 */

#include <gtest/gtest.h>

#include "fuzz/genprog.hh"
#include "fuzz/oracle.hh"
#include "ir/eval.hh"
#include "ir/lift.hh"
#include "isa/binary.hh"
#include "isa/encoding.hh"
#include "machine/machine.hh"

namespace zarf
{
namespace
{

MachineConfig
pathConfig(bool predecode, size_t semispaceWords = 1u << 20)
{
    MachineConfig cfg;
    cfg.tier = predecode ? DispatchTier::Uop : DispatchTier::WordWalk;
    cfg.semispaceWords = semispaceWords;
    return cfg;
}

/**
 * Run a generated program on the µop core and on the lifted-IR
 * evaluator. They must agree on the outcome class, the value, the
 * I/O log, and Machine::cycles() — load, execution, and the
 * deep-force export. GC runs off that clock, so a collector-free
 * evaluator matches it under any heap size; only out-of-memory runs,
 * a bound the unbounded IR heap cannot hit, compare nothing.
 */
void
runDifferential(uint64_t seed, size_t semispaceWords)
{
    fuzz::GenConfig gcfg;
    gcfg.numCons = 4;
    gcfg.numFuncs = 7;
    gcfg.maxDepth = 5;
    fuzz::ProgramGenerator gen(seed * 2654435761u + 7, gcfg);
    BuildResult b = gen.generate().tryBuild();
    ASSERT_TRUE(b.ok) << b.error;
    Image img = encodeProgram(b.program);

    const Cycles maxCycles = 2'000'000'000ull;
    fuzz::RecordBus busA, busB;
    Machine uop(img, busA, pathConfig(true, semispaceWords));
    Machine::Outcome mo = uop.run(maxCycles);
    ASSERT_NE(mo.status, MachineStatus::Running);
    if (mo.status == MachineStatus::OutOfMemory)
        return;

    ir::LiftResult lift = ir::liftImage(img);
    ASSERT_TRUE(lift.ok) << lift.error;
    ir::EvalConfig ic;
    ic.maxCycles = maxCycles;
    ic.hardStopCycles = uop.cycles();
    ir::Outcome io = ir::evalModule(lift.module, busB, ic);

    const bool mDone = mo.status == MachineStatus::Done;
    ASSERT_EQ(mDone, io.status == ir::Outcome::Status::Done)
        << "uop: " << mo.diagnostic << "\nir: " << io.diagnostic;
    if (!mDone) {
        EXPECT_EQ(mo.status, MachineStatus::Stuck) << mo.diagnostic;
        EXPECT_EQ(io.status, ir::Outcome::Status::Stuck)
            << io.diagnostic;
    }
    EXPECT_EQ(uop.cycles(), io.cycles);
    if (mDone) {
        ASSERT_TRUE(mo.value && io.value);
        EXPECT_TRUE(Value::equal(*mo.value, *io.value))
            << "uop: " << mo.value->toString() << "\n"
            << "ir:  " << io.value->toString();
    }
    EXPECT_TRUE(busA.ops == busB.ops);
}

class PredecodeDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(PredecodeDifferential, BitIdenticalOnRandomPrograms)
{
    runDifferential(GetParam(), 1u << 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredecodeDifferential,
                         ::testing::Range(uint64_t(0), uint64_t(120)));

class PredecodeGcDifferential
    : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(PredecodeGcDifferential, BitIdenticalUnderGcPressure)
{
    // A heap barely above the safe-point margin forces frequent
    // collections, none of which may move the mutator's cycle
    // ledger, the value, or the I/O order.
    runDifferential(GetParam(), 3 * 4096);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredecodeGcDifferential,
                         ::testing::Range(uint64_t(0), uint64_t(60)));

// ----------------------------------------------------------------
// Load-time structural validation (hoisted srcFieldValid checks)
// ----------------------------------------------------------------

/** A minimal hand-built image: main with the given body words. */
Image
tinyImage(std::vector<Word> body)
{
    Image img;
    img.push_back(kMagic);
    img.push_back(1);
    img.push_back(packInfo(false, 8, 0));
    img.push_back(Word(body.size()));
    for (Word w : body)
        img.push_back(w);
    return img;
}

TEST(PredecodeLoader, ReservedSrcFieldRejectedAtLoad)
{
    // A result word with the reserved source encoding (value 3).
    Word bad = packResult({ Src::Imm, 42 }) | (3u << 26);
    Image img = tinyImage({ bad });

    NullBus bus;
    Machine m(img, bus, pathConfig(true));
    // Stuck immediately after load, before a single step runs.
    EXPECT_EQ(m.advance(0), MachineStatus::Stuck);
    Machine::Outcome o = m.run();
    EXPECT_EQ(o.status, MachineStatus::Stuck);
    EXPECT_NE(o.diagnostic.find("predecode"), std::string::npos)
        << o.diagnostic;

    // The word-walking path only notices at execution time, but
    // must reach the same verdict.
    NullBus bus2;
    Machine legacy(img, bus2, pathConfig(false));
    EXPECT_EQ(legacy.run().status, MachineStatus::Stuck);
}

TEST(PredecodeLoader, MalformedLetArgumentRejectedAtLoad)
{
    // let with one argument slot holding a non-ARG word.
    Image img = tinyImage({ packLet(CalleeKind::Func, 1, 0x01),
                            packPatElse(),
                            packResult({ Src::Local, 0 }) });
    NullBus bus;
    Machine m(img, bus, pathConfig(true));
    EXPECT_EQ(m.advance(0), MachineStatus::Stuck);

    NullBus bus2;
    Machine legacy(img, bus2, pathConfig(false));
    EXPECT_EQ(legacy.run().status, MachineStatus::Stuck);
}

TEST(PredecodeLoader, TruncatedPatternChainRejectedAtLoad)
{
    // A case whose pattern chain runs past the declaration end.
    Image img = tinyImage({ packCase({ Src::Imm, 1 }),
                            packPatLit(5, 1) });
    NullBus bus;
    Machine m(img, bus, pathConfig(true));
    EXPECT_EQ(m.advance(0), MachineStatus::Stuck);
}

TEST(PredecodeLoader, WellFormedImagesStillLoad)
{
    Image img = tinyImage({ packResult({ Src::Imm, 13 }) });
    NullBus bus;
    Machine m(img, bus, pathConfig(true));
    Machine::Outcome o = m.run();
    ASSERT_EQ(o.status, MachineStatus::Done) << o.diagnostic;
    EXPECT_EQ(o.value->toString(), "13");
}

// ----------------------------------------------------------------
// Poisoned operand resolution (out-of-range slots never produce a
// consumable value)
// ----------------------------------------------------------------

TEST(PredecodePoison, OutOfRangeArgStopsBothPaths)
{
    // main has arity 0; resolving arg #5 must fail, not silently
    // yield the valid tagged integer 0.
    Image img = tinyImage({ packResult({ Src::Arg, 5 }) });
    for (bool predecode : { false, true }) {
        NullBus bus;
        Machine m(img, bus, pathConfig(predecode));
        Machine::Outcome o = m.run();
        EXPECT_EQ(o.status, MachineStatus::Stuck);
        EXPECT_NE(o.diagnostic.find("argument index out of range"),
                  std::string::npos)
            << o.diagnostic;
        EXPECT_EQ(o.value, nullptr);
    }
}

TEST(PredecodePoison, OutOfRangeLetArgumentStopsBothPaths)
{
    Image img =
        tinyImage({ packLet(CalleeKind::Func, 1, 0x01),
                    packOperand({ Src::Local, 9 }),
                    packResult({ Src::Local, 0 }) });
    for (bool predecode : { false, true }) {
        NullBus bus;
        Machine m(img, bus, pathConfig(predecode));
        Machine::Outcome o = m.run();
        EXPECT_EQ(o.status, MachineStatus::Stuck);
        EXPECT_NE(o.diagnostic.find("local index out of range"),
                  std::string::npos)
            << o.diagnostic;
    }
}

} // namespace
} // namespace zarf
