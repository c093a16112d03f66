/**
 * @file
 * Differential testing of the campaign-scale fast paths
 * (docs/PERF.md, "Campaign-scale execution"): machines constructed
 * from a shared LoadedImage, machines forked from a snapshot, and
 * campaigns run under the Fork LoadStrategy must be bit-identical to
 * the cold paths — results, total cycles, every statistic, the
 * per-FSM-state tally, trace events, the whole system state, and
 * campaign JSON — on random programs, under GC pressure, and on the
 * full two-layer system.
 */

#include <gtest/gtest.h>

#include "fuzz/genprog.hh"
#include "ecg/synth.hh"
#include "fault/campaign.hh"
#include "fault/plan.hh"
#include "icd/baseline.hh"
#include "icd/zarf_icd.hh"
#include "isa/binary.hh"
#include "isa/encoding.hh"
#include "machine/loaded_image.hh"
#include "machine/machine.hh"
#include "obs/trace.hh"
#include "system/system.hh"
#include "zasm/zasm.hh"

namespace zarf
{
namespace
{

/** Require every statistic to be identical between two machines. */
void
expectStatsEqual(const MachineStats &a, const MachineStats &b)
{
    EXPECT_EQ(a.let.count, b.let.count);
    EXPECT_EQ(a.let.cycles, b.let.cycles);
    EXPECT_EQ(a.caseInstr.count, b.caseInstr.count);
    EXPECT_EQ(a.caseInstr.cycles, b.caseInstr.cycles);
    EXPECT_EQ(a.result.count, b.result.count);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.branchHeads, b.branchHeads);
    EXPECT_EQ(a.letArgs, b.letArgs);
    EXPECT_EQ(a.allocations, b.allocations);
    EXPECT_EQ(a.allocatedWords, b.allocatedWords);
    EXPECT_EQ(a.forces, b.forces);
    EXPECT_EQ(a.whnfHits, b.whnfHits);
    EXPECT_EQ(a.updates, b.updates);
    EXPECT_EQ(a.errorsCreated, b.errorsCreated);
    EXPECT_EQ(a.loadCycles, b.loadCycles);
    EXPECT_EQ(a.execCycles, b.execCycles);
    EXPECT_EQ(a.callsPerFunc, b.callsPerFunc);
    EXPECT_EQ(a.gcRuns, b.gcRuns);
    EXPECT_EQ(a.gcCycles, b.gcCycles);
    EXPECT_EQ(a.gcObjectsCopied, b.gcObjectsCopied);
    EXPECT_EQ(a.gcWordsCopied, b.gcWordsCopied);
    EXPECT_EQ(a.gcRefChecks, b.gcRefChecks);
    EXPECT_EQ(a.gcMaxLiveWords, b.gcMaxLiveWords);
    EXPECT_EQ(a.gcMaxPauseCycles, b.gcMaxPauseCycles);
    // A field the list above does not name still counts.
    EXPECT_TRUE(a == b) << "statistics differ";
}

void
expectTallyEqual(const FsmTally &a, const FsmTally &b)
{
    EXPECT_EQ(a.visits, b.visits);
    EXPECT_EQ(a.cycles, b.cycles);
}

void
expectOutcomeEqual(const Machine::Outcome &a,
                   const Machine::Outcome &b)
{
    ASSERT_EQ(a.status, b.status)
        << "a: " << a.diagnostic << "\nb: " << b.diagnostic;
    EXPECT_EQ(a.diagnostic, b.diagnostic);
    if (a.status == MachineStatus::Done) {
        ASSERT_TRUE(a.value && b.value);
        EXPECT_TRUE(Value::equal(*a.value, *b.value))
            << "a: " << a.value->toString() << "\n"
            << "b: " << b.value->toString();
    }
}

std::vector<obs::Event>
collect(const obs::Recorder &rec)
{
    std::vector<obs::Event> out;
    out.reserve(rec.size());
    rec.forEach([&](const obs::Event &e) { out.push_back(e); });
    return out;
}

/**
 * The fork's post-restore events must be the source's post-snapshot
 * events. `forkPre` is how many events the fork had already emitted
 * before restore() (its own modelled load during construction) —
 * those precede the adopted timeline and are skipped. The remaining
 * trailing min(|a|,|b|) events must agree exactly (ring buffers
 * hold the most recent window, so suffixes are the comparable
 * part).
 */
void
expectTraceSuffixEqual(const obs::Recorder &a,
                       const obs::Recorder &b, size_t forkPre = 0)
{
    std::vector<obs::Event> ea = collect(a), eb = collect(b);
    ASSERT_LE(forkPre, eb.size());
    eb.erase(eb.begin(), eb.begin() + ptrdiff_t(forkPre));
    size_t n = std::min(ea.size(), eb.size());
    for (size_t i = 0; i < n; ++i) {
        const obs::Event &x = ea[ea.size() - n + i];
        const obs::Event &y = eb[eb.size() - n + i];
        ASSERT_EQ(x.ts, y.ts) << "event " << i;
        ASSERT_EQ(x.a, y.a) << "event " << i;
        ASSERT_EQ(x.b, y.b) << "event " << i;
        ASSERT_EQ(x.kind, y.kind) << "event " << i;
    }
}

MachineConfig
snapConfig(size_t semispaceWords, obs::Recorder *rec)
{
    MachineConfig cfg;
    cfg.semispaceWords = semispaceWords;
    cfg.fsmTally = true;
    cfg.trace = rec;
    return cfg;
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

/**
 * Three machines over one shared LoadedImage:
 *   fresh  — runs start to finish;
 *   source — runs a prefix, snapshots, then finishes;
 *   fork   — a new machine that adopts the snapshot mid-run.
 * All three must agree on outcome, cycles, stats, and tally; the
 * fork's trace must be exactly the source's post-snapshot events.
 */
void
forkDifferential(uint64_t seed, size_t semispaceWords)
{
    Image img = randomImage(seed);
    auto li = LoadedImage::load(img);

    obs::Recorder recFresh;
    NullBus busFresh;
    Machine fresh(li, busFresh,
                  snapConfig(semispaceWords, &recFresh));
    Machine::Outcome oFresh = fresh.run();

    obs::Recorder recSource;
    NullBus busSource;
    Machine source(li, busSource,
                   snapConfig(semispaceWords, &recSource));
    source.advance(fresh.cycles() / 2);
    std::shared_ptr<const MachineSnapshot> snap = source.snapshot();

    obs::Recorder recFork;
    NullBus busFork;
    Machine fork(li, busFork, snapConfig(semispaceWords, &recFork));
    size_t forkPre = recFork.size(); // its own load events
    fork.restore(*snap);
    EXPECT_EQ(fork.cycles(), source.cycles());

    Machine::Outcome oFork = fork.run();
    Machine::Outcome oSource = source.run();

    expectOutcomeEqual(oFresh, oSource);
    expectOutcomeEqual(oFresh, oFork);
    EXPECT_EQ(fresh.cycles(), source.cycles());
    EXPECT_EQ(fresh.cycles(), fork.cycles());
    expectStatsEqual(fresh.stats(), source.stats());
    expectStatsEqual(fresh.stats(), fork.stats());
    expectTallyEqual(fresh.fsmTally(), source.fsmTally());
    expectTallyEqual(fresh.fsmTally(), fork.fsmTally());

    // Past its own load, the fork emits only what the source had
    // left to emit.
    EXPECT_LE(recFork.emitted() - forkPre, recSource.emitted());
    expectTraceSuffixEqual(recSource, recFork, forkPre);
}

class SnapshotFork : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SnapshotFork, BitIdenticalOnRandomPrograms)
{
    forkDifferential(GetParam(), 1u << 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotFork,
                         ::testing::Range(uint64_t(0),
                                          uint64_t(40)));

class SnapshotForkGc : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SnapshotForkGc, BitIdenticalUnderGcPressure)
{
    // A heap barely above the safe-point margin forces frequent
    // collections, so snapshots capture mid-GC-era heap layouts —
    // forwarding state, both semispaces, slack — exactly.
    forkDifferential(GetParam(), 3 * 4096);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotForkGc,
                         ::testing::Range(uint64_t(0),
                                          uint64_t(20)));

TEST(SnapshotRoundTrip, SelfRestoreIsInvisible)
{
    // Straight run vs run-to-T / snapshot / restore-into-self /
    // continue: the round trip must not perturb a single event.
    Image img = randomImage(11);
    auto li = LoadedImage::load(img);

    obs::Recorder recA;
    NullBus busA;
    Machine straight(li, busA, snapConfig(1u << 16, &recA));
    Machine::Outcome oa = straight.run();

    obs::Recorder recB;
    NullBus busB;
    Machine rt(li, busB, snapConfig(1u << 16, &recB));
    rt.advance(straight.cycles() / 3);
    std::shared_ptr<const MachineSnapshot> snap = rt.snapshot();
    rt.restore(*snap);
    Machine::Outcome ob = rt.run();

    expectOutcomeEqual(oa, ob);
    EXPECT_EQ(straight.cycles(), rt.cycles());
    expectStatsEqual(straight.stats(), rt.stats());
    expectTallyEqual(straight.fsmTally(), rt.fsmTally());
    EXPECT_EQ(recA.emitted(), recB.emitted());
    EXPECT_EQ(recA.toChromeJson(), recB.toChromeJson());
}

TEST(MachineSnapshot, RestoreIntoADirtierMachineMatchesAFreshOne)
{
    // A snapshot holds the source's written store prefix. A receiver
    // that has already collected twice has written both semispaces
    // past that prefix, so restore() must zero its own words beyond
    // it: afterwards its store equals that of a fresh machine
    // restored from the same snapshot, word for word, and the two
    // runs end alike.
    Image img = encodeProgram(assembleOrDie(R"(
fun main =
  let s = spin 20000
  case s of
    7 =>
      result 1
  else
    result 0
fun spin n =
  case n of
    0 =>
      result 7
  else
    let n' = sub n 1
    let r = spin n'
    result r
)"));
    auto li = LoadedImage::load(img);
    MachineConfig cfg = snapConfig(3 * 4096, nullptr);

    NullBus busSource;
    Machine source(li, busSource, cfg);
    source.advance(500);
    ASSERT_EQ(source.status(), MachineStatus::Running);
    ASSERT_EQ(source.stats().gcRuns, 0u);
    std::shared_ptr<const MachineSnapshot> early = source.snapshot();

    NullBus busDirty;
    Machine dirty(li, busDirty, cfg);
    while (dirty.stats().gcRuns < 2 &&
           dirty.status() == MachineStatus::Running)
        dirty.advance(10000);
    ASSERT_GE(dirty.stats().gcRuns, 2u);
    NullBus busFresh;
    Machine fresh(li, busFresh, cfg);

    dirty.restore(*early);
    fresh.restore(*early);
    EXPECT_TRUE(dirty.heapStore() == fresh.heapStore());

    Machine::Outcome oDirty = dirty.run();
    Machine::Outcome oFresh = fresh.run();
    ASSERT_EQ(oFresh.status, MachineStatus::Done) << oFresh.diagnostic;
    expectOutcomeEqual(oFresh, oDirty);
    EXPECT_EQ(fresh.cycles(), dirty.cycles());
    expectStatsEqual(fresh.stats(), dirty.stats());
}

TEST(SnapshotLoadedImage, SharedArtifactMatchesRawImageCtor)
{
    for (uint64_t seed : { 1u, 5u, 23u }) {
        Image img = randomImage(seed);
        auto li = LoadedImage::load(img);

        NullBus busRaw, busLi;
        MachineConfig cfg;
        cfg.fsmTally = true;
        Machine raw(img, busRaw, cfg);
        Machine shared(li, busLi, cfg);
        Machine::Outcome oRaw = raw.run();
        Machine::Outcome oLi = shared.run();

        expectOutcomeEqual(oRaw, oLi);
        EXPECT_EQ(raw.cycles(), shared.cycles());
        expectStatsEqual(raw.stats(), shared.stats());
        expectTallyEqual(raw.fsmTally(), shared.fsmTally());
    }
}

// ----------------------------------------------------------------
// Two-layer system snapshot/restore
// ----------------------------------------------------------------

/** Two systems' states are equal whole: the system state and both
 *  imperative cores. */
void
expectSameSystemState(const sys::TwoLayerSystem &a,
                      const sys::TwoLayerSystem &b)
{
    std::shared_ptr<const sys::SystemSnapshot> sa = a.snapshot();
    std::shared_ptr<const sys::SystemSnapshot> sb = b.snapshot();
    EXPECT_TRUE(sa->state == sb->state);
    EXPECT_TRUE(sa->monitor == sb->monitor);
    ASSERT_EQ(sa->hasBaseline, sb->hasBaseline);
    EXPECT_TRUE(sa->baseline == sb->baseline);
}

TEST(SystemSnapshot, RoundTripPreservesEveryTraceEvent)
{
    Image img = icd::buildKernelImage();
    auto li = LoadedImage::load(img);
    mblaze::MbProgram monitor = icd::monitorProgram();
    mblaze::MbProgram fallback = icd::baselineIcdProgram();

    // A sensor fault mid-window so the round trip carries live
    // fault-effect latches and a consumed fault RNG, not just the
    // quiescent state.
    fault::FaultPlan plan = fault::singleKindPlan(
        fault::FaultKind::SensorNoise, 3,
        fault::FaultWindow{ 8'000'000, 18'000'000 }, 1);

    auto mkSystem = [&](obs::Recorder *rec, ecg::Heart &heart)
        -> sys::TwoLayerSystem {
        sys::SystemConfig scfg;
        scfg.fallbackProgram = fallback;
        scfg.faultPlan = plan;
        scfg.trace = rec;
        return sys::TwoLayerSystem(li, monitor, heart, scfg);
    };

    ecg::ScriptedHeart heartA({ { 600.0, 75.0 } }, 42);
    obs::Recorder recA;
    sys::TwoLayerSystem a = mkSystem(&recA, heartA);
    a.runUntil(20'000'000); // 0.4 s

    ecg::ScriptedHeart heartB({ { 600.0, 75.0 } }, 42);
    obs::Recorder recB;
    sys::TwoLayerSystem b = mkSystem(&recB, heartB);
    b.runUntil(12'000'000); // inside the fault window
    std::shared_ptr<const sys::SystemSnapshot> snap = b.snapshot();
    b.restore(*snap);
    b.runUntil(20'000'000);

    EXPECT_EQ(a.lambdaCycles(), b.lambdaCycles());
    EXPECT_EQ(recA.emitted(), recB.emitted());
    EXPECT_EQ(recA.toChromeJson(), recB.toChromeJson());
    expectSameSystemState(a, b);
}

TEST(SystemSnapshot, WarmForkMatchesColdRunUnderFaults)
{
    // The campaign's Fork strategy in miniature: a fault-free golden
    // run donates its state at the fault window's start; a forked
    // system with its own fault plan must match a cold faulted run.
    Image img = icd::buildKernelImage();
    auto li = LoadedImage::load(img);
    mblaze::MbProgram monitor = icd::monitorProgram();
    mblaze::MbProgram fallback = icd::baselineIcdProgram();

    constexpr Cycles kWindowBegin = 15'000'000;
    constexpr Cycles kEnd = 30'000'000; // 0.6 s
    fault::FaultPlan plan = fault::singleKindPlan(
        fault::FaultKind::HeapSeu, 77,
        fault::FaultWindow{ kWindowBegin, kEnd }, 1);

    // Cold reference.
    ecg::ScriptedHeart heartCold({ { 600.0, 75.0 } }, 42);
    obs::Recorder recCold;
    sys::SystemConfig scfg;
    scfg.fallbackProgram = fallback;
    scfg.faultPlan = plan;
    scfg.trace = &recCold;
    sys::TwoLayerSystem cold(li, monitor, heartCold, scfg);
    cold.runUntil(kEnd);

    // Fault-free warm donor.
    ecg::ScriptedHeart heartWarm({ { 600.0, 75.0 } }, 42);
    sys::SystemConfig warmCfg;
    warmCfg.fallbackProgram = fallback;
    sys::TwoLayerSystem donor(li, monitor, heartWarm, warmCfg);
    donor.runUntil(kWindowBegin);
    std::shared_ptr<const sys::SystemSnapshot> warm =
        donor.snapshot();
    std::unique_ptr<ecg::Heart> heartFork = heartWarm.clone();
    ASSERT_TRUE(heartFork);

    obs::Recorder recFork;
    scfg.trace = &recFork;
    sys::TwoLayerSystem fork(li, monitor, *heartFork, scfg);
    size_t forkPre = recFork.size(); // its own load events
    fork.restore(*warm);
    fork.runUntil(kEnd);

    EXPECT_EQ(cold.lambdaCycles(), fork.lambdaCycles());
    expectSameSystemState(cold, fork);
    // Past its own load, the fork emits only the cold run's
    // post-window events.
    EXPECT_LE(recFork.emitted() - forkPre, recCold.emitted());
    expectTraceSuffixEqual(recCold, recFork, forkPre);
}

TEST(SystemSnapshot, DegradedRoundTripRestoresTheWholeState)
{
    // Four uncorrectable heap faults: three watchdog restarts, and
    // the fourth degrades the system to the fallback detector. Its
    // snapshot carries a baseline core, a watchdog log and the
    // counters retired from three λ incarnations.
    Image img = icd::buildKernelImage();
    auto li = LoadedImage::load(img);
    mblaze::MbProgram monitor = icd::monitorProgram();
    sys::SystemConfig scfg;
    scfg.fallbackProgram = icd::baselineIcdProgram();
    for (Cycles at : { 20'000'000, 40'000'000, 60'000'000, 80'000'000 })
        scfg.faultPlan.events.push_back(
            { at, fault::FaultKind::HeapSeuDouble, 3, 0x0102 });

    ecg::ScriptedHeart heartSrc({ { 600.0, 75.0 } }, 42);
    sys::TwoLayerSystem src(li, monitor, heartSrc, scfg);
    src.runUntil(110'000'000);
    ASSERT_TRUE(src.degraded());
    ASSERT_EQ(src.watchdogRestarts(), 4u);

    std::shared_ptr<const sys::SystemSnapshot> snap = src.snapshot();
    std::unique_ptr<ecg::Heart> heartDst = heartSrc.clone();
    ASSERT_TRUE(heartDst);
    sys::TwoLayerSystem dst(li, monitor, *heartDst, scfg);
    dst.restore(*snap);
    std::shared_ptr<const sys::SystemSnapshot> back = dst.snapshot();
    EXPECT_TRUE(back->state == snap->state);
    EXPECT_TRUE(back->monitor == snap->monitor);
    ASSERT_TRUE(snap->hasBaseline && back->hasBaseline);
    EXPECT_TRUE(back->baseline == snap->baseline);

    src.runUntil(135'000'000);
    dst.runUntil(135'000'000);
    EXPECT_EQ(src.lambdaCycles(), dst.lambdaCycles());
    expectSameSystemState(src, dst);
}

// ----------------------------------------------------------------
// Campaign-level strategy equivalence
// ----------------------------------------------------------------

TEST(CampaignStrategies, ByteIdenticalJsonAcrossStrategiesAndThreads)
{
    // 13 scenarios cover all 11 sinus fault kinds plus two VT
    // scenarios; shortened horizons keep the test affordable while
    // still firing a good fraction of the planned faults.
    fault::CampaignConfig base;
    base.scenarios = 13;
    base.seedBase = 7;
    base.sinusSeconds = 0.8;
    base.vtSeconds = 2.0;
    base.threads = 3;

    fault::CampaignConfig cold = base;
    cold.strategy = fault::LoadStrategy::Cold;
    fault::CampaignReport rCold = fault::runCampaign(cold);

    fault::CampaignConfig fork = base;
    fork.strategy = fault::LoadStrategy::Fork;
    fault::CampaignReport rFork = fault::runCampaign(fork);

    fault::CampaignConfig fork1 = fork;
    fork1.threads = 1;
    fault::CampaignReport rFork1 = fault::runCampaign(fork1);

    ASSERT_EQ(rCold.results.size(), 13u);
    std::string jCold = rCold.toJson();
    EXPECT_EQ(jCold, rFork.toJson());
    EXPECT_EQ(jCold, rFork1.toJson());
    std::string mCold = rCold.metricsJson();
    EXPECT_EQ(mCold, rFork.metricsJson());
    EXPECT_EQ(mCold, rFork1.metricsJson());

    EXPECT_EQ(rCold.protectedSilentCorruptions(), 0u);
}

TEST(CampaignStrategies, ForkWithoutWarmStateMatchesCold)
{
    // The 0.25 s horizon ends before the 0.3 s fault window opens,
    // so the golden run captures no warm state and Fork runs every
    // scenario from cycle 0 over the shared image. Both strategies
    // must stop at the same absolute cycle, targetFor(0.25 s): each
    // scenario's 50th pacing write lands at cycle 12,500,107, just
    // past the slice boundary that ends the run, so a run that
    // counted its horizon from the end of the kernel's modelled load
    // would see one more write.
    fault::CampaignConfig base;
    base.scenarios = 11;
    base.seedBase = 7;
    base.sinusSeconds = 0.25;
    base.threads = 3;

    fault::CampaignConfig cold = base;
    cold.strategy = fault::LoadStrategy::Cold;
    fault::CampaignReport rCold = fault::runCampaign(cold);

    fault::CampaignConfig fork = base;
    fork.strategy = fault::LoadStrategy::Fork;
    fault::CampaignReport rFork = fault::runCampaign(fork);

    ASSERT_EQ(rCold.results.size(), 11u);
    EXPECT_EQ(rCold.toJson(), rFork.toJson());
    EXPECT_EQ(rCold.metricsJson(), rFork.metricsJson());
}

} // namespace
} // namespace zarf
