/**
 * @file
 * Differential testing of the µop core (machine/threaded.cc): with
 * the cycle model (the Uop tier) against the word-walking reference,
 * and without it (the fast-functional tier) against the Uop tier.
 *
 * The Uop tier is cycle-accurate: it must be bit-identical to the
 * word-walking reference in results, total cycle counts, and every
 * statistic — on random programs, under GC pressure, under fault
 * injection, and on the full ICD kernel, trace events included —
 * and its snapshots must restore under either name of the core. The
 * fast-functional tier runs the same core without the cycle model,
 * so it is held to equality of the outcome (status, diagnostic,
 * value, and the I/O log) and of every statistic outside the
 * execution-cycle ledger whenever both runs terminate. Every
 * random-program differential here runs the tier under test both in
 * one advance() call and in short advance() slices, so the core's
 * exit and re-entry paths are exercised at step boundaries in every
 * machine mode.
 */

#include <gtest/gtest.h>

#include "ecg/synth.hh"
#include "fuzz/genprog.hh"
#include "icd/zarf_icd.hh"
#include "isa/binary.hh"
#include "isa/encoding.hh"
#include "machine/machine.hh"
#include "obs/trace.hh"
#include "system/ports.hh"
#include "zasm/zasm.hh"

namespace zarf
{
namespace
{

/** Require every statistic but the execution-cycle ledger (the
 *  per-class cycles and execCycles) to be identical between two
 *  runs. */
void
expectCountersEqual(const MachineStats &a, const MachineStats &b)
{
    EXPECT_EQ(a.let.count, b.let.count);
    EXPECT_EQ(a.caseInstr.count, b.caseInstr.count);
    EXPECT_EQ(a.result.count, b.result.count);
    EXPECT_EQ(a.branchHeads, b.branchHeads);
    EXPECT_EQ(a.letArgs, b.letArgs);
    EXPECT_EQ(a.allocations, b.allocations);
    EXPECT_EQ(a.allocatedWords, b.allocatedWords);
    EXPECT_EQ(a.forces, b.forces);
    EXPECT_EQ(a.whnfHits, b.whnfHits);
    EXPECT_EQ(a.updates, b.updates);
    EXPECT_EQ(a.errorsCreated, b.errorsCreated);
    EXPECT_EQ(a.loadCycles, b.loadCycles);
    EXPECT_EQ(a.callsPerFunc, b.callsPerFunc);
    EXPECT_EQ(a.gcRuns, b.gcRuns);
    EXPECT_EQ(a.gcCycles, b.gcCycles);
    EXPECT_EQ(a.gcObjectsCopied, b.gcObjectsCopied);
    EXPECT_EQ(a.gcWordsCopied, b.gcWordsCopied);
    EXPECT_EQ(a.gcRefChecks, b.gcRefChecks);
    EXPECT_EQ(a.gcMaxLiveWords, b.gcMaxLiveWords);
    EXPECT_EQ(a.gcMaxPauseCycles, b.gcMaxPauseCycles);
    // A field the list above does not name still counts.
    MachineStats x = a, y = b;
    for (MachineStats *s : { &x, &y }) {
        s->let.cycles = s->caseInstr.cycles = s->result.cycles = 0;
        s->execCycles = 0;
    }
    EXPECT_TRUE(x == y) << "statistics differ";
}

/** Require every statistic to be identical between two runs. */
void
expectStatsEqual(const MachineStats &a, const MachineStats &b)
{
    expectCountersEqual(a, b);
    EXPECT_EQ(a.let.cycles, b.let.cycles);
    EXPECT_EQ(a.caseInstr.cycles, b.caseInstr.cycles);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.execCycles, b.execCycles);
}

MachineConfig
tierConfig(DispatchTier tier, size_t semispaceWords = 1u << 20)
{
    MachineConfig cfg;
    cfg.tier = tier;
    cfg.semispaceWords = semispaceWords;
    return cfg;
}

/** Run a machine to completion, either in one advance() call or in
 *  short slices. Each slice ends at the first step boundary past its
 *  budget, wherever the program is; a cycle-accurate tier must reach
 *  the same final state either way. */
Machine::Outcome
runMaybeSliced(Machine &m, bool sliced)
{
    if (!sliced)
        return m.run();
    const Cycles limit = m.cycles() + 2'000'000'000ull;
    while (m.status() == MachineStatus::Running && m.cycles() < limit)
        (void)m.advance(37);
    return m.run(0);
}

Image
randomImage(uint64_t seed)
{
    fuzz::GenConfig gcfg;
    gcfg.numCons = 4;
    gcfg.numFuncs = 7;
    gcfg.maxDepth = 5;
    fuzz::ProgramGenerator gen(seed * 2654435761u + 7, gcfg);
    BuildResult b = gen.generate().tryBuild();
    EXPECT_TRUE(b.ok) << b.error;
    return encodeProgram(b.program);
}

/** Deterministic logging bus, so I/O-bearing generated programs
 *  contribute comparable read values and write logs. */
class LogBus : public IoBus
{
  public:
    SWord
    getInt(SWord port) override
    {
        SWord v = SWord(((uint64_t(port) * 0x9e3779b97f4a7c15ull +
                          ordinal++ * 0xbf58476d1ce4e5b9ull) >>
                         17) &
                        0xffff) -
                  0x8000;
        ops.push_back({ true, port, v });
        return v;
    }

    void
    putInt(SWord port, SWord value) override
    {
        ops.push_back({ false, port, value });
    }

    struct Op
    {
        bool isGet;
        SWord port;
        SWord value;
        bool
        operator==(const Op &o) const
        {
            return isGet == o.isGet && port == o.port &&
                   value == o.value;
        }
    };
    std::vector<Op> ops;

  private:
    uint64_t ordinal = 0;
};

void
runUopDifferential(uint64_t seed, size_t semispaceWords, bool sliced)
{
    Image img = randomImage(seed);

    LogBus busA;
    Machine ref(img, busA, tierConfig(DispatchTier::WordWalk,
                                      semispaceWords));
    Machine::Outcome oa = ref.run();

    LogBus busB;
    Machine uop(img, busB, tierConfig(DispatchTier::Uop,
                                      semispaceWords));
    Machine::Outcome ob = runMaybeSliced(uop, sliced);

    ASSERT_EQ(oa.status, ob.status)
        << "word-walk: " << oa.diagnostic
        << "\nuop: " << ob.diagnostic;
    EXPECT_EQ(oa.diagnostic, ob.diagnostic);
    EXPECT_EQ(ref.cycles(), uop.cycles());
    if (oa.status == MachineStatus::Done) {
        ASSERT_TRUE(oa.value && ob.value);
        EXPECT_TRUE(Value::equal(*oa.value, *ob.value))
            << "word-walk: " << oa.value->toString() << "\n"
            << "uop:       " << ob.value->toString();
    }
    expectStatsEqual(ref.stats(), uop.stats());
    EXPECT_EQ(busA.ops, busB.ops);
}

void
runFastDifferential(uint64_t seed, size_t semispaceWords, bool sliced)
{
    Image img = randomImage(seed);

    LogBus busA;
    Machine uop(img, busA, tierConfig(DispatchTier::Uop,
                                      semispaceWords));
    Machine::Outcome oa = uop.run();

    LogBus busB;
    Machine fast(img, busB, tierConfig(DispatchTier::FastFunctional,
                                       semispaceWords));
    Machine::Outcome ob = runMaybeSliced(fast, sliced);

    // Outcome equality applies when both runs terminated; resource
    // bounds fire at different points on a tier with no cycle clock
    // (fuzz/oracle.hh's equivalence map).
    auto terminal = [](MachineStatus st) {
        return st == MachineStatus::Done || st == MachineStatus::Stuck;
    };
    if (!terminal(oa.status) || !terminal(ob.status))
        return;
    ASSERT_EQ(oa.status, ob.status)
        << "uop: " << oa.diagnostic << "\nfast: " << ob.diagnostic;
    EXPECT_EQ(oa.diagnostic, ob.diagnostic);
    if (oa.status == MachineStatus::Done) {
        ASSERT_TRUE(oa.value && ob.value);
        EXPECT_TRUE(Value::equal(*oa.value, *ob.value))
            << "uop:  " << oa.value->toString() << "\n"
            << "fast: " << ob.value->toString();
    }
    EXPECT_EQ(busA.ops, busB.ops);
    // The same steps on a step clock: allocation order, GC points,
    // and evacuation order match the µop run, so every counter does.
    expectCountersEqual(uop.stats(), fast.stats());
}

// seed, sliced
using TierParam = std::tuple<uint64_t, bool>;

class ThreadedDifferential
    : public ::testing::TestWithParam<TierParam>
{};

TEST_P(ThreadedDifferential, BitIdenticalOnRandomPrograms)
{
    auto [seed, sliced] = GetParam();
    runUopDifferential(seed, 1u << 20, sliced);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ThreadedDifferential,
    ::testing::Combine(::testing::Range(uint64_t(0), uint64_t(240)),
                       ::testing::Bool()));

class ThreadedGcDifferential
    : public ::testing::TestWithParam<TierParam>
{};

TEST_P(ThreadedGcDifferential, BitIdenticalUnderGcPressure)
{
    // A heap barely above the safe-point margin forces frequent
    // collections; the core's register-cached state must spill and
    // reload around every GC so roots, copy order, and pause
    // accounting match the word-walking reference exactly.
    auto [seed, sliced] = GetParam();
    runUopDifferential(seed, 3 * 4096, sliced);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ThreadedGcDifferential,
    ::testing::Combine(::testing::Range(uint64_t(0), uint64_t(120)),
                       ::testing::Bool()));

class FastDifferential : public ::testing::TestWithParam<TierParam>
{};

TEST_P(FastDifferential, OutcomeEqualOnRandomPrograms)
{
    auto [seed, sliced] = GetParam();
    runFastDifferential(seed, 1u << 20, sliced);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FastDifferential,
    ::testing::Combine(::testing::Range(uint64_t(0), uint64_t(240)),
                       ::testing::Bool()));

class FastGcDifferential : public ::testing::TestWithParam<TierParam>
{};

TEST_P(FastGcDifferential, OutcomeEqualUnderGcPressure)
{
    auto [seed, sliced] = GetParam();
    runFastDifferential(seed, 3 * 4096, sliced);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FastGcDifferential,
    ::testing::Combine(::testing::Range(uint64_t(0), uint64_t(120)),
                       ::testing::Bool()));

TEST(ThreadedEntry, ZeroBudgetIsNoOp)
{
    // Both instantiations enter through the step preamble without
    // counting a step, so advance(0) runs nothing, mid-run included.
    Image img = randomImage(9);
    for (DispatchTier t :
         { DispatchTier::Uop, DispatchTier::FastFunctional }) {
        NullBus bus;
        Machine m(img, bus, tierConfig(t));
        m.advance(3);
        ASSERT_EQ(m.status(), MachineStatus::Running)
            << dispatchTierName(t);
        const Cycles before = m.cycles();
        const MachineStats stats = m.stats();
        EXPECT_EQ(m.advance(0), MachineStatus::Running);
        EXPECT_EQ(m.cycles(), before) << dispatchTierName(t);
        expectStatsEqual(m.stats(), stats);
    }
}

// ----------------------------------------------------------------
// Fault injection: the core and the reference must agree bit-for-bit
// on what a physical upset does, including the detection
// diagnostics.
// ----------------------------------------------------------------

TEST(ThreadedFault, HeapBitFlipBitIdentical)
{
    for (uint64_t seed : { 3u, 11u, 27u, 44u }) {
        Image img = randomImage(seed);
        NullBus busA, busB;
        Machine ref(img, busA, tierConfig(DispatchTier::WordWalk));
        Machine uop(img, busB, tierConfig(DispatchTier::Uop));

        // Identical schedule on both machines: run a prefix, flip
        // the same heap bit, then run out.
        for (Machine *m : { &ref, &uop }) {
            m->advance(2000);
            m->injectHeapBitFlip(size_t(seed * 13 + 5),
                                 unsigned(seed % 31));
            m->run();
        }
        EXPECT_EQ(ref.status(), uop.status());
        EXPECT_EQ(ref.diagnostic(), uop.diagnostic());
        EXPECT_EQ(ref.cycles(), uop.cycles());
        expectStatsEqual(ref.stats(), uop.stats());
    }
}

TEST(ThreadedFault, OperandBitFlipBitIdentical)
{
    for (uint64_t seed : { 7u, 19u, 52u }) {
        Image img = randomImage(seed);
        NullBus busA, busB;
        Machine ref(img, busA, tierConfig(DispatchTier::WordWalk));
        Machine uop(img, busB, tierConfig(DispatchTier::Uop));
        for (Machine *m : { &ref, &uop }) {
            m->advance(1500);
            m->injectOperandBitFlip(unsigned(seed % 32));
            m->run();
        }
        EXPECT_EQ(ref.status(), uop.status());
        EXPECT_EQ(ref.diagnostic(), uop.diagnostic());
        EXPECT_EQ(ref.cycles(), uop.cycles());
        expectStatsEqual(ref.stats(), uop.stats());
    }
}

// ----------------------------------------------------------------
// Snapshot/restore: Uop and Threaded name one core, so snapshots
// restore under either name; the fast tier round-trips within its
// own family.
// ----------------------------------------------------------------

TEST(ThreadedSnapshot, CrossTierRestoreBitIdentical)
{
    Image img = randomImage(23);
    NullBus busA;
    Machine ref(img, busA, tierConfig(DispatchTier::WordWalk));
    Machine::Outcome straight = ref.run();

    // A snapshot taken mid-run under one name and finished under the
    // other, both ways, lands exactly where the straight run of the
    // word-walking reference landed.
    for (DispatchTier src : { DispatchTier::Uop,
                              DispatchTier::Threaded }) {
        DispatchTier dst = src == DispatchTier::Uop
                               ? DispatchTier::Threaded
                               : DispatchTier::Uop;
        NullBus busS, busD;
        Machine source(img, busS, tierConfig(src));
        source.advance(ref.cycles() / 2);
        auto snap = source.snapshot();
        Machine fork(img, busD, tierConfig(dst));
        fork.restore(*snap);
        Machine::Outcome out = fork.run();
        EXPECT_EQ(out.status, straight.status);
        EXPECT_EQ(fork.cycles(), ref.cycles());
        if (straight.status == MachineStatus::Done) {
            ASSERT_TRUE(out.value && straight.value);
            EXPECT_TRUE(Value::equal(*out.value, *straight.value));
        }
        expectStatsEqual(fork.stats(), ref.stats());
    }
}

TEST(ThreadedSnapshot, FastRoundTripsWithinItsFamily)
{
    Image img = randomImage(31);
    NullBus busA, busB;
    Machine straight(img, busA,
                     tierConfig(DispatchTier::FastFunctional));
    Machine::Outcome whole = straight.run();

    Machine rt(img, busB, tierConfig(DispatchTier::FastFunctional));
    rt.advance(straight.cycles() / 2);
    auto snap = rt.snapshot();
    Machine fork(img, busB, tierConfig(DispatchTier::FastFunctional));
    fork.restore(*snap);
    Machine::Outcome out = fork.run();
    EXPECT_EQ(out.status, whole.status);
    EXPECT_EQ(fork.cycles(), straight.cycles());
    if (whole.status == MachineStatus::Done) {
        ASSERT_TRUE(out.value && whole.value);
        EXPECT_TRUE(Value::equal(*out.value, *whole.value));
    }
}

TEST(ThreadedSnapshotDeathTest, CrossFamilyRestoreIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Image img = randomImage(5);
    NullBus busA, busB;
    Machine fast(img, busA, tierConfig(DispatchTier::FastFunctional));
    fast.advance(1000);
    auto snap = fast.snapshot();
    Machine uop(img, busB, tierConfig(DispatchTier::Uop));
    EXPECT_DEATH(uop.restore(*snap), "dispatch tier mismatch");
}

// ----------------------------------------------------------------
// ICD kernel workload
// ----------------------------------------------------------------

/** Back-to-back rig as in the Sec. 6 trace: the timer always
 *  fires, ECG samples come from a scripted heart. */
class BusyRig : public IoBus
{
  public:
    explicit BusyRig(ecg::Heart &h) : heart(h) {}

    SWord
    getInt(SWord port) override
    {
        if (port == sys::kPortTimer)
            return 1;
        if (port == sys::kPortEcgIn)
            return heart.nextSample();
        return 0;
    }

    void
    putInt(SWord port, SWord v) override
    {
        writes.push_back({ port, v });
    }

    ecg::Heart &heart;
    std::vector<std::pair<SWord, SWord>> writes;
};

/** Every field of two recorded event windows, oldest first. */
void
expectEventsEqual(const obs::Recorder &a, const obs::Recorder &b)
{
    EXPECT_EQ(a.emitted(), b.emitted());
    EXPECT_EQ(a.dropped(), b.dropped());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const obs::Event &x = a.at(i);
        const obs::Event &y = b.at(i);
        ASSERT_TRUE(x.kind == y.kind && x.ts == y.ts && x.a == y.a &&
                    x.b == y.b)
            << "event " << i << ": " << obs::eventName(x.kind) << "@"
            << x.ts << " vs " << obs::eventName(y.kind) << "@" << y.ts;
    }
}

TEST(ThreadedIcd, KernelTraceBitIdentical)
{
    // Include a VT episode so therapy paths execute in both runs.
    ecg::ScriptedHeart heartA({ { 20.0, 75.0 }, { 40.0, 190.0 } },
                              42);
    ecg::ScriptedHeart heartB({ { 20.0, 75.0 }, { 40.0, 190.0 } },
                              42);
    BusyRig rigA(heartA), rigB(heartB);
    Image img = icd::buildKernelImage();
    // Every machine event category; the ring keeps the newest 64Ki
    // events of each run, and the emitted/dropped counts cover the
    // rest.
    obs::Recorder recA(obs::TraceConfig{ 1u << 16, obs::kAllCats });
    obs::Recorder recB(obs::TraceConfig{ 1u << 16, obs::kAllCats });
    MachineConfig cfgA = tierConfig(DispatchTier::WordWalk);
    cfgA.trace = &recA;
    MachineConfig cfgB = tierConfig(DispatchTier::Uop);
    cfgB.trace = &recB;
    Machine ref(img, rigA, cfgA);
    Machine uop(img, rigB, cfgB);

    while (ref.cycles() < 3'000'000 &&
           ref.advance(500'000) == MachineStatus::Running) {}
    while (uop.cycles() < 3'000'000 &&
           uop.advance(500'000) == MachineStatus::Running) {}

    EXPECT_EQ(ref.cycles(), uop.cycles());
    EXPECT_EQ(rigA.writes, rigB.writes);
    expectStatsEqual(ref.stats(), uop.stats());
    expectEventsEqual(recA, recB);
}

TEST(ThreadedIcd, KernelOutputFastMatches)
{
    // The fast tier has no cycle clock, so drive both runs by I/O
    // progress instead: the kernel's pacing decisions for the same
    // sample stream must be identical.
    ecg::ScriptedHeart heartA({ { 20.0, 75.0 }, { 40.0, 190.0 } },
                              42);
    ecg::ScriptedHeart heartB({ { 20.0, 75.0 }, { 40.0, 190.0 } },
                              42);
    BusyRig rigA(heartA), rigB(heartB);
    Image img = icd::buildKernelImage();
    Machine uop(img, rigA, tierConfig(DispatchTier::Uop));
    Machine fast(img, rigB, tierConfig(DispatchTier::FastFunctional));

    while (uop.cycles() < 3'000'000 &&
           uop.advance(500'000) == MachineStatus::Running) {}
    while (rigB.writes.size() < rigA.writes.size() &&
           fast.advance(500'000) == MachineStatus::Running) {}

    ASSERT_GE(rigB.writes.size(), rigA.writes.size());
    rigB.writes.resize(rigA.writes.size());
    EXPECT_EQ(rigA.writes, rigB.writes);
}

// ----------------------------------------------------------------
// Export: the deep-force after Done runs on the tier's own clock.
// ----------------------------------------------------------------

TEST(ThreadedExport, FastExportChargesNoCycles)
{
    // The exported Pair's fields are thunks, so the deep-force runs
    // real steps after Done. On the step clock they count steps and
    // leave the execution-cycle ledger where advance() left it.
    Image img = encodeProgram(assembleOrDie(R"(
con Pair a b

fun main =
  let x = add 2 3
  let y = mul x 7
  let r = Pair x y
  result r
)"));
    NullBus bus;
    Machine m(img, bus, tierConfig(DispatchTier::FastFunctional));
    ASSERT_EQ(m.advance(1'000'000), MachineStatus::Done);
    const Cycles atDone = m.cycles();
    const MachineStats before = m.stats();
    Machine::Outcome o = m.run(0);
    ASSERT_EQ(o.status, MachineStatus::Done) << o.diagnostic;
    ASSERT_TRUE(o.value);
    EXPECT_TRUE(Value::equal(
        *o.value, *Value::makeCons(Program::idOf(0),
                                   { Value::makeInt(5),
                                     Value::makeInt(35) })))
        << o.value->toString();
    EXPECT_GT(m.cycles(), atDone); // the export's steps
    const MachineStats &after = m.stats();
    EXPECT_EQ(after.execCycles, before.execCycles);
    EXPECT_EQ(after.let.cycles, before.let.cycles);
    EXPECT_EQ(after.caseInstr.cycles, before.caseInstr.cycles);
    EXPECT_EQ(after.result.cycles, before.result.cycles);
    EXPECT_GT(after.forces, before.forces);
}

} // namespace
} // namespace zarf
