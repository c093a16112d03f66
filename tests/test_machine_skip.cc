/**
 * @file
 * Differential tests for the µop core's idle-poll fast-forward
 * (machine/threaded.cc, IoBus::quietRead, and the two-layer
 * system's LambdaBus).
 *
 * Skipping must be invisible. A machine whose bus reports quiet
 * reads ends every slice in exactly the state that the same machine
 * reaches by stepping every instruction, which it does while its
 * recorder wants MachineExec events: both semispaces word for word,
 * the live frames, the registers, every statistic, the FSM tally and
 * the bus's recorded I/O. Random poll programs mix loops that must
 * skip (the ICD kernel's `waitTick`, polls that read an old
 * constructor, allocate and force extra thunks, or read two quiet
 * ports) with loops that must step (a growing accumulator, a counting
 * argument, non-tail recursion, a `putint`, a port that is never
 * quiet) and loops that step until their first iteration has updated
 * an old thunk, under small semispaces, interval collections, the FSM
 * tally and a verify::Budget, in random slices. The µop runs must
 * also match a word-walk run's statistics, cycles and heap. The ICD
 * co-simulation under heap, operand and wedge faults and a watchdog
 * restart, a kernel that reads the ECG inside its timer poll, and a
 * degraded run's fallback detector must match their stepped runs.
 *
 * The test reads MachineSnapshot's fields, so it includes the
 * machine's internal header.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "ecg/synth.hh"
#include "fault/plan.hh"
#include "icd/baseline.hh"
#include "icd/zarf_icd.hh"
#include "machine/loaded_image.hh"
#include "machine/machine.hh"
#include "machine/machine_impl.hh"
#include "mblaze/cpu.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "system/ports.hh"
#include "system/system.hh"
#include "verify/budget.hh"
#include "zasm/zasm.hh"

namespace zarf
{
namespace
{

/**
 * Ports 0 and 3 read a level the test sets between slices; port 1
 * pops a FIFO (0 when empty); port 2 counts its reads; every other
 * port reads 0. The level ports and the unmapped ones are quiet, and
 * the FIFO while it is empty. `log` holds every write and every read
 * that was not quiet, each stamped with the machine's clock; `reads`
 * counts every getInt, so a run that skipped makes fewer.
 */
class PollBus : public IoBus
{
  public:
    struct Io
    {
        bool write;
        SWord port;
        SWord value;
        Cycles at;
        bool operator==(const Io &) const = default;
    };

    SWord
    getInt(SWord port) override
    {
        ++reads;
        bool quiet = quietRead(port);
        SWord v = 0;
        switch (port) {
          case 0:
            v = level0;
            break;
          case 3:
            v = level3;
            break;
          case 1:
            if (!fifo.empty()) {
                v = fifo.front();
                fifo.pop_front();
            }
            break;
          case 2:
            v = SWord(++counted);
            break;
          default:
            break;
        }
        if (!quiet)
            log.push_back({ false, port, v, machine->cycles() });
        return v;
    }

    void
    putInt(SWord port, SWord value) override
    {
        log.push_back({ true, port, value, machine->cycles() });
    }

    bool
    quietRead(SWord port) const override
    {
        return port == 1 ? fifo.empty() : port != 2;
    }

    const Machine *machine = nullptr;
    SWord level0 = 0;
    SWord level3 = 0;
    std::deque<SWord> fifo;
    uint64_t counted = 0;
    uint64_t reads = 0;
    std::vector<Io> log;
};

/** Two machine snapshots hold the same state. */
void
expectSameSnapshot(const MachineSnapshot &a, const MachineSnapshot &b)
{
    EXPECT_EQ(a.heap.base, b.heap.base);
    EXPECT_EQ(a.heap.allocPtr, b.heap.allocPtr);
    EXPECT_EQ(a.heap.limit, b.heap.limit);
    EXPECT_EQ(a.heap.oom, b.heap.oom);
    EXPECT_EQ(a.heap.corruptFlag, b.heap.corruptFlag);
    EXPECT_TRUE(a.heap.words == b.heap.words) << "heap words differ";
    ASSERT_EQ(a.frames.size(), b.frames.size());
    auto sameAct = [](const auto &x, const auto &y) {
        return x.funcId == y.funcId && x.pc == y.pc &&
               x.args == y.args && x.locals == y.locals;
    };
    for (size_t i = 0; i < a.frames.size(); ++i) {
        const auto &x = a.frames[i];
        const auto &y = b.frames[i];
        SCOPED_TRACE(strprintf("frame %zu", i));
        ASSERT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.target, y.target);
        EXPECT_TRUE(sameAct(x.act, y.act));
        EXPECT_EQ(x.prim, y.prim);
        EXPECT_TRUE(x.primArgs == y.primArgs);
        EXPECT_TRUE(x.collected == y.collected);
        EXPECT_EQ(x.nextArg, y.nextArg);
        EXPECT_TRUE(x.extra == y.extra);
    }
    EXPECT_TRUE(sameAct(a.act, b.act));
    EXPECT_EQ(a.vreg, b.vreg);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.curClass, b.curClass);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.diagnostic, b.diagnostic);
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.lastGcAt, b.lastGcAt);
    obs::Metrics ma, mb;
    exportStats(a.stats, ma, "");
    exportStats(b.stats, mb, "");
    EXPECT_EQ(ma.toJson(), mb.toJson());
    EXPECT_TRUE(a.tally.visits == b.tally.visits);
    EXPECT_TRUE(a.tally.cycles == b.tally.cycles);
}

/** The word-walk reference keeps its frames in its own form; its
 *  statistics, clock and heap must still equal the µop core's. */
void
expectSameLedger(const MachineSnapshot &a, const MachineSnapshot &b)
{
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.heap.allocPtr, b.heap.allocPtr);
    EXPECT_TRUE(a.heap.words == b.heap.words) << "heap words differ";
    obs::Metrics ma, mb;
    exportStats(a.stats, ma, "");
    exportStats(b.stats, mb, "");
    EXPECT_EQ(ma.toJson(), mb.toJson());
}

// ----------------------------------------------------------------
// Random poll programs
// ----------------------------------------------------------------

/** Poll loop shapes; each body is `fun poll x`, returning the word
 *  that ended the wait. */
enum class Shape
{
    // Must skip.
    WaitTick,    ///< The ICD kernel's waitTick.
    OldCons,     ///< Reads the fields of a constructor made before.
    ExtraThunks, ///< Allocates and forces two more thunks.
    TwoPorts,    ///< Polls two quiet ports.
    Fifo,        ///< Polls the FIFO: quiet only while it is empty.
    // Must step.
    Accumulator, ///< Conses every reading onto a growing list.
    Counting,    ///< Counts its iterations in its argument.
    NonTail,     ///< Recurses in a non-tail position.
    PutInt,      ///< Writes a port every iteration.
    NoisyPort,   ///< Also reads the counting port.
    // Steps once, then may skip.
    OldThunk,    ///< Forces a thunk made before the loop.
    NumShapes,
};

bool
mustSkip(Shape s)
{
    return s <= Shape::Fifo;
}

bool
mustStep(Shape s)
{
    return s >= Shape::Accumulator && s <= Shape::NoisyPort;
}

// The common tail of a poll body: return `t` once the wait ends, or
// loop with the argument `arg`. Indented for a body at depth `ind`.
std::string
loopOn(const std::string &cond, const std::string &t,
       const std::string &arg, int ind)
{
    std::string p(size_t(ind), ' ');
    return p + "case " + cond + " of\n" + p + "  0 =>\n" + p +
           "    result " + t + "\n" + p + "else\n" + p +
           "  let r = poll " + arg + "\n" + p + "  result r\n";
}

std::string
pollBody(Shape s)
{
    switch (s) {
      case Shape::WaitTick:
        return "fun poll k =\n"
               "  let t = getint 0\n"
               "  let c = eq t 0\n" +
               loopOn("c", "t", "k", 2);
      case Shape::OldCons:
        return "fun poll p =\n"
               "  case p of\n"
               "    Pair a b =>\n"
               "      let t = getint 0\n"
               "      let s = add t a\n"
               "      let c = eq t b\n" +
               loopOn("c", "s", "p", 6) +
               "  else\n"
               "    result 0\n";
      case Shape::ExtraThunks:
        return "fun poll k =\n"
               "  let t = getint 0\n"
               "  let a = add k 3\n"
               "  let b = mul a 2\n"
               "  let c = eq t 0\n"
               "  case b of\n"
               "    else\n" +
               loopOn("c", "t", "k", 6);
      case Shape::TwoPorts:
        return "fun poll k =\n"
               "  let t = getint 0\n"
               "  let u = getint 3\n"
               "  let s = add t u\n"
               "  let c = eq s 0\n" +
               loopOn("c", "s", "k", 2);
      case Shape::Fifo:
        return "fun poll k =\n"
               "  let t = getint 1\n"
               "  let u = getint 0\n"
               "  let s = add t u\n"
               "  let c = eq s 0\n" +
               loopOn("c", "s", "k", 2);
      case Shape::Accumulator:
        return "fun poll acc =\n"
               "  let t = getint 0\n"
               "  let c = eq t 0\n"
               "  let a2 = Pair t acc\n" +
               loopOn("c", "t", "a2", 2);
      case Shape::Counting:
        return "fun poll n =\n"
               "  let t = getint 0\n"
               "  let n2 = add n 1\n"
               "  let c = eq t 0\n"
               "  case n2 of\n"
               "    else\n" +
               loopOn("c", "t", "n2", 6);
      case Shape::NonTail:
        return "fun poll k =\n"
               "  let t = getint 0\n"
               "  let c = eq t 0\n"
               "  case c of\n"
               "    0 =>\n"
               "      result t\n"
               "  else\n"
               "    let r = poll k\n"
               "    let s = add r 0\n"
               "    result s\n";
      case Shape::PutInt:
        return "fun poll k =\n"
               "  let t = getint 0\n"
               "  let w = putint 5 t\n"
               "  let c = eq w 0\n" +
               loopOn("c", "t", "k", 2);
      case Shape::NoisyPort:
        return "fun poll k =\n"
               "  let n = getint 2\n"
               "  let t = getint 0\n"
               "  let c = eq t 0\n"
               "  case n of\n"
               "    else\n" +
               loopOn("c", "t", "k", 6);
      case Shape::OldThunk:
        return "fun poll x =\n"
               "  let t = getint 0\n"
               "  let y = add x t\n"
               "  let c = eq t 0\n"
               "  case y of\n"
               "    else\n" +
               loopOn("c", "t", "x", 6);
      case Shape::NumShapes:
        break;
    }
    return "";
}

/** The poll's first argument, built by `outer n` before each wait. */
std::string
pollArg(Shape s)
{
    switch (s) {
      case Shape::OldCons:
        return "  let m = add n 1\n  let arg = Pair m 0\n";
      case Shape::Accumulator:
        return "  let arg = Pair n 0\n";
      case Shape::OldThunk:
        return "  let arg = add n 5\n";
      default:
        return "  let arg = add n 0\n";
    }
}

/** A program that runs `poll` from an outer loop: after each wait
 *  the loop either writes the word that ended it and waits again
 *  (counting its rounds), or, with `once`, returns it. */
std::string
pollProgram(Shape s, bool once)
{
    std::string text = "con Pair a b\n"
                       "fun main =\n"
                       "  let r = outer 0\n"
                       "  result r\n"
                       "fun outer n =\n" +
                       pollArg(s) +
                       "  let t = poll arg\n"
                       "  case t of\n"
                       "    else\n";
    if (once) {
        text += "      result t\n";
    } else {
        text += "      let w = putint 7 t\n"
                "      case w of\n"
                "        else\n"
                "          let n2 = add n 1\n"
                "          let r = outer n2\n"
                "          result r\n";
    }
    return text + pollBody(s);
}

/** A slice of 1–40, 1–4000 or 1–10⁶ cycles. */
Cycles
randomSlice(Rng &rng)
{
    switch (rng.below(3)) {
      case 0:
        return 1 + rng.below(40);
      case 1:
        return 1 + rng.below(4000);
      default:
        return 1 + rng.below(1'000'000);
    }
}

struct Variant
{
    size_t semispaceWords = 1u << 14;
    bool gcOnExhaustion = true;
    Cycles gcIntervalCycles = 0;
    bool fsmTally = false;
    Cycles budgetCycles = 0; ///< verify::Budget λ-cycle limit; 0 = none.
};

Variant
randomVariant(Rng &rng)
{
    Variant v;
    switch (rng.below(6)) {
      case 0:
        break;
      case 1:
        v.semispaceWords = 3 * 4096;
        break;
      case 2:
        v.gcIntervalCycles = 2000 + rng.below(60'000);
        break;
      case 3:
        v.fsmTally = true;
        break;
      case 4:
        v.budgetCycles = 1 + rng.below(8'000'000);
        break;
      default:
        v.semispaceWords = 3 * 4096;
        v.gcOnExhaustion = false;
        break;
    }
    return v;
}

/** One leg of a differential run: a machine and its bus. */
struct Leg
{
    PollBus bus;
    std::unique_ptr<verify::Budget> budget;
    std::unique_ptr<Machine> m;

    Leg(const std::shared_ptr<const LoadedImage> &li, DispatchTier tier,
        const Variant &v, obs::Recorder *trace)
    {
        MachineConfig mc;
        mc.tier = tier;
        mc.semispaceWords = v.semispaceWords;
        mc.gcOnExhaustion = v.gcOnExhaustion;
        mc.gcIntervalCycles = v.gcIntervalCycles;
        mc.fsmTally = v.fsmTally;
        mc.trace = trace;
        if (v.budgetCycles) {
            verify::BudgetSpec spec;
            spec.maxLambdaCycles = v.budgetCycles;
            budget = std::make_unique<verify::Budget>(spec);
            mc.budget = budget.get();
        }
        m = std::make_unique<Machine>(li, bus, mc);
        bus.machine = m.get();
    }
};

obs::TraceConfig
execTrace()
{
    obs::TraceConfig t;
    t.mask = uint32_t(obs::Cat::MachineExec);
    t.capacity = 64;
    return t;
}

/**
 * Run one program on `tier` three ways — skipping, stepped by a
 * MachineExec recorder, and (for the µop tier) on the word-walk
 * reference — through the same random slices and bus changes, and
 * compare after every slice. Returns the skipping and the stepped
 * run's bus reads.
 */
std::pair<uint64_t, uint64_t>
differential(const std::string &text, DispatchTier tier,
             const Variant &v, uint64_t seed)
{
    Image img = encodeProgram(assembleOrDie(text));
    std::shared_ptr<const LoadedImage> li = LoadedImage::load(img);
    obs::Recorder rec(execTrace());
    Leg skip(li, tier, v, nullptr);
    Leg step(li, tier, v, &rec);
    bool walk = tier == DispatchTier::Uop;
    std::unique_ptr<Leg> ref;
    if (walk) {
        ref = std::make_unique<Leg>(LoadedImage::load(img, false),
                                    DispatchTier::WordWalk, v, nullptr);
    }
    Rng rng(seed);
    for (int slice = 0; slice < 30; ++slice) {
        // The bus moves between slices: a level rises or falls, or
        // the FIFO receives words.
        SWord l0 = rng.chance(0.2) ? SWord(rng.range(1, 3)) : 0;
        SWord l3 = rng.chance(0.2) ? SWord(rng.range(1, 3)) : 0;
        std::vector<SWord> feed;
        if (rng.chance(0.2))
            feed.assign(1 + rng.below(3), SWord(rng.below(3)));
        for (Leg *r : { &skip, &step, ref.get() }) {
            if (!r)
                continue;
            r->bus.level0 = l0;
            r->bus.level3 = l3;
            r->bus.fifo.insert(r->bus.fifo.end(), feed.begin(),
                               feed.end());
        }
        Cycles budget = randomSlice(rng);
        SCOPED_TRACE(strprintf("slice %d of %llu cycles", slice,
                               (unsigned long long)budget));
        skip.m->advance(budget);
        step.m->advance(budget);
        expectSameSnapshot(*skip.m->snapshot(), *step.m->snapshot());
        EXPECT_TRUE(skip.bus.log == step.bus.log) << "bus I/O differs";
        EXPECT_TRUE(skip.bus.fifo == step.bus.fifo);
        EXPECT_EQ(skip.bus.counted, step.bus.counted);
        if (walk) {
            ref->m->advance(budget);
            expectSameLedger(*skip.m->snapshot(), *ref->m->snapshot());
            EXPECT_TRUE(skip.bus.log == ref->bus.log);
        }
        if (::testing::Test::HasFailure())
            break;
    }
    if (tier == DispatchTier::Uop) {
        EXPECT_GT(rec.emitted(), 0u);
    }
    return { skip.bus.reads, step.bus.reads };
}

class MachineSkipDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(MachineSkipDifferential, QuietBusMatchesSteppingEverySlice)
{
    Rng rng(0x5eed0000 + GetParam());
    for (int prog = 0; prog < 6; ++prog) {
        Shape s = Shape(rng.below(uint64_t(Shape::NumShapes)));
        bool once = rng.chance(0.25);
        Variant v = randomVariant(rng);
        DispatchTier tier = rng.chance(0.7) ? DispatchTier::Uop
                                            : DispatchTier::FastFunctional;
        std::string text = pollProgram(s, once);
        SCOPED_TRACE(strprintf("program %d, shape %d, tier %s, "
                               "semispace %zu, interval %llu, tally %d, "
                               "budget %llu\n%s",
                               prog, int(s), dispatchTierName(tier),
                               v.semispaceWords,
                               (unsigned long long)v.gcIntervalCycles,
                               int(v.fsmTally),
                               (unsigned long long)v.budgetCycles,
                               text.c_str()));
        auto [skipReads, stepReads] =
            differential(text, tier, v, rng.next());
        if (::testing::Test::HasFailure())
            return;
        if (mustStep(s))
            EXPECT_EQ(skipReads, stepReads);
        else
            EXPECT_LE(skipReads, stepReads);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineSkipDifferential,
                         ::testing::Range(uint64_t(0), uint64_t(12)));

// Every shape that must skip does, on both tiers, under each
// variant's bounds; the ones that must step never do.
TEST(MachineSkip, ShapesSkipOrStepAsTheyMust)
{
    Rng rng(20261020);
    for (int si = 0; si < int(Shape::NumShapes); ++si) {
        Shape s = Shape(si);
        if (!mustSkip(s) && !mustStep(s))
            continue;
        for (DispatchTier tier :
             { DispatchTier::Uop, DispatchTier::FastFunctional }) {
            Variant v;
            v.fsmTally = tier == DispatchTier::Uop;
            SCOPED_TRACE(strprintf("shape %d, tier %s", si,
                                   dispatchTierName(tier)));
            Image img = encodeProgram(assembleOrDie(pollProgram(s, false)));
            std::shared_ptr<const LoadedImage> li = LoadedImage::load(img);
            obs::Recorder rec(execTrace());
            Leg skip(li, tier, v, nullptr);
            Leg step(li, tier, v, &rec);
            // Long waits, each ended by a word that stays up for a
            // few hundred cycles.
            for (int slice = 0; slice < 6; ++slice) {
                bool up = slice % 2 == 1;
                for (Leg *r : { &skip, &step })
                    r->bus.level0 = up ? 2 : 0;
                Cycles budget =
                    up ? 300 : 20'000 + rng.below(200'000);
                skip.m->advance(budget);
                step.m->advance(budget);
                expectSameSnapshot(*skip.m->snapshot(),
                                   *step.m->snapshot());
                EXPECT_TRUE(skip.bus.log == step.bus.log);
            }
            if (mustSkip(s))
                EXPECT_LT(skip.bus.reads * 4, step.bus.reads);
            else
                EXPECT_EQ(skip.bus.reads, step.bus.reads);
        }
    }
}

// A first iteration that updates an old thunk steps: the iteration
// that forced it changed an object older than the loop, so it is no
// period. The later ones, which find it updated, skip.
TEST(MachineSkip, OldThunkUpdateStepsThenSkips)
{
    Image img =
        encodeProgram(assembleOrDie(pollProgram(Shape::OldThunk, true)));
    std::shared_ptr<const LoadedImage> li = LoadedImage::load(img);
    obs::Recorder rec(execTrace());
    Variant v;
    Leg skip(li, DispatchTier::Uop, v, nullptr);
    Leg step(li, DispatchTier::Uop, v, &rec);
    for (Cycles budget : { Cycles(150), Cycles(150), Cycles(400'000) }) {
        skip.m->advance(budget);
        step.m->advance(budget);
        expectSameSnapshot(*skip.m->snapshot(), *step.m->snapshot());
    }
    EXPECT_LT(skip.bus.reads * 4, step.bus.reads);
}

/** Every read returns 0 and is quiet; writes are dropped. */
class QuietBus : public IoBus
{
  public:
    SWord getInt(SWord) override { return 0; }
    void putInt(SWord, SWord) override {}
    bool quietRead(SWord) const override { return true; }
};

// A 10⁹-cycle slice of the waitTick poll on a quiet bus ends where
// the closed form of stepping puts it. The closed form comes from
// single steps: their costs repeat with one period once the poll has
// settled, and the collections, which cost no mutator cycles and
// change no counter but their own, do not move it. Stepping the
// slice would take seconds; skipping it takes milliseconds.
TEST(MachineSkip, HugeIdleSliceMatchesClosedForm)
{
    Image img =
        encodeProgram(assembleOrDie(pollProgram(Shape::WaitTick, true)));
    std::shared_ptr<const LoadedImage> li = LoadedImage::load(img);
    MachineConfig mc;
    mc.semispaceWords = 1u << 16;
    QuietBus bus;

    // The step boundaries of a stepped run, one advance(1) each.
    struct Point
    {
        Cycles total;
        uint64_t instrs, allocated, calls;
    };
    auto point = [](const Machine &m) {
        const MachineStats &st = m.stats();
        uint64_t calls = 0;
        for (const auto &[fn, n] : st.callsPerFunc)
            calls += n;
        return Point{ m.cycles(), st.dynamicInstructions(),
                      st.allocatedWords, calls };
    };
    Machine probe(li, bus, mc);
    std::vector<Point> steps{ point(probe) };
    for (int i = 0; i < 400; ++i) {
        probe.advance(1);
        steps.push_back(point(probe));
    }
    // The period: the fewest steps m after which every step's
    // deltas repeat, over the last 200 steps.
    auto same = [&](size_t i, size_t j) {
        return steps[i + 1].total - steps[i].total ==
                   steps[j + 1].total - steps[j].total &&
               steps[i + 1].instrs - steps[i].instrs ==
                   steps[j + 1].instrs - steps[j].instrs &&
               steps[i + 1].allocated - steps[i].allocated ==
                   steps[j + 1].allocated - steps[j].allocated &&
               steps[i + 1].calls - steps[i].calls ==
                   steps[j + 1].calls - steps[j].calls;
    };
    auto repeats = [&](size_t p) {
        for (size_t i = 200; i + p + 1 < steps.size(); ++i) {
            if (!same(i, i + p))
                return false;
        }
        return true;
    };
    size_t m = 1;
    while (!repeats(m))
        ++m;
    ASSERT_LT(m, 60u);
    const size_t base = 200;
    const Point p0 = steps[base];
    const Point p1 = steps[base + m];
    const Cycles period = p1.total - p0.total;

    const Cycles budget = 1'000'000'000ull;
    Machine big(li, bus, mc);
    Cycles start = big.cycles();
    big.advance(budget);
    Cycles target = start + budget;
    // Whole periods from the base point, then the steps of a partial
    // one up to the first boundary at or past the target.
    uint64_t n = (target - p0.total) / period;
    Point want{ p0.total + n * period,
                p0.instrs + n * (p1.instrs - p0.instrs),
                p0.allocated + n * (p1.allocated - p0.allocated),
                p0.calls + n * (p1.calls - p0.calls) };
    for (size_t i = base; want.total < target; ++i) {
        want.total += steps[i + 1].total - steps[i].total;
        want.instrs += steps[i + 1].instrs - steps[i].instrs;
        want.allocated += steps[i + 1].allocated - steps[i].allocated;
        want.calls += steps[i + 1].calls - steps[i].calls;
    }
    Point got = point(big);
    EXPECT_EQ(big.status(), MachineStatus::Running);
    EXPECT_EQ(got.total, want.total);
    EXPECT_EQ(got.instrs, want.instrs);
    EXPECT_EQ(got.allocated, want.allocated);
    EXPECT_EQ(got.calls, want.calls);
    EXPECT_GT(big.stats().gcRuns, 100u);
}

// ----------------------------------------------------------------
// The co-simulation: the λ-layer skips on the system's bus; a
// MachineExec-wanting recorder steps it.
// ----------------------------------------------------------------

const std::shared_ptr<const LoadedImage> &
kernel()
{
    static const std::shared_ptr<const LoadedImage> li =
        LoadedImage::load(icd::buildKernelImage());
    return li;
}

/** Two systems' snapshots, the λ-machine's included, and their
 *  exported metrics are equal. */
void
expectSameSystem(const sys::TwoLayerSystem &a,
                 const sys::TwoLayerSystem &b)
{
    std::shared_ptr<const sys::SystemSnapshot> sa = a.snapshot();
    std::shared_ptr<const sys::SystemSnapshot> sb = b.snapshot();
    ASSERT_EQ(bool(sa->lambda), bool(sb->lambda));
    if (sa->lambda)
        expectSameSnapshot(*sa->lambda, *sb->lambda);
    EXPECT_TRUE(sa->state == sb->state);
    EXPECT_TRUE(sa->monitor == sb->monitor);
    ASSERT_EQ(sa->hasBaseline, sb->hasBaseline);
    EXPECT_TRUE(sa->baseline == sb->baseline);
    obs::Metrics ma, mb;
    a.exportMetrics(ma);
    b.exportMetrics(mb);
    EXPECT_EQ(ma.toJson(), mb.toJson());
}

std::string
metricsJson(const sys::TwoLayerSystem &s)
{
    obs::Metrics m;
    s.exportMetrics(m);
    return m.toJson();
}

constexpr Cycles kWindow = sys::kLambdaHz / 10; // 100 ms

TEST(MachineSkipCosim, FaultedIcdMatchesSteppedLambda)
{
    using fault::FaultKind;
    sys::SystemConfig cfg;
    // A smaller heap keeps the per-window snapshots cheap; the
    // kernel collects every iteration.
    cfg.semispaceWords = 1u << 15;
    cfg.lambdaFsmTally = true;
    cfg.faultPlan.heapEcc = false;
    cfg.faultPlan.operandParity = false;
    cfg.faultPlan.events = {
        // Unprotected upsets: a heap word and the value register.
        { 7'000'000, FaultKind::HeapSeu, 3, 5 },
        { 12'000'000, FaultKind::OperandSeu, 0, 2 },
        // A 50 ms wedge trips the 40 ms watchdog: a restart.
        { 17'000'000, FaultKind::LambdaWedge, 2'500'000, 0 },
        { 24'000'000, FaultKind::HeapSeu, 11, 30 },
    };

    ecg::ScriptedHeart heartA({ { 600.0, 75.0 } }, 42);
    sys::TwoLayerSystem a(kernel(), icd::monitorProgram(), heartA, cfg);
    obs::Recorder rec(execTrace());
    sys::SystemConfig stepped = cfg;
    stepped.trace = &rec;
    ecg::ScriptedHeart heartB({ { 600.0, 75.0 } }, 42);
    sys::TwoLayerSystem b(kernel(), icd::monitorProgram(), heartB,
                          stepped);
    sys::SystemConfig walked = cfg;
    walked.lambdaTier = DispatchTier::WordWalk;
    ecg::ScriptedHeart heartC({ { 600.0, 75.0 } }, 42);
    sys::TwoLayerSystem c(kernel(), icd::monitorProgram(), heartC,
                          walked);

    for (int w = 1; w <= 6; ++w) {
        SCOPED_TRACE(strprintf("window %d", w));
        for (sys::TwoLayerSystem *s : { &a, &b, &c })
            s->runUntil(Cycles(w) * kWindow);
        expectSameSystem(a, b);
        EXPECT_EQ(metricsJson(a), metricsJson(c));
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_GE(a.watchdogRestarts(), 1u);
    EXPECT_GT(rec.emitted(), 6 * kWindow / 100);
}

/** A kernel whose timer poll reads the ECG port and throws the
 *  sample away, and writes the word that ended each wait. */
const char *kEcgPollKernel = R"(
fun main =
  let r = loop 0
  result r
fun loop n =
  let t = wait 0
  case t of
    else
      let w = putint 2 n
      case w of
        else
          let n2 = add n 1
          let r = loop n2
          result r
fun wait k =
  let e = getint 0
  case e of
    else
      let t = getint 3
      let c = eq t 0
      case c of
        0 =>
          result t
      else
        let r = wait k
        result r
)";

// On a flat heart every ECG read returns the same word, so a bus
// that called the ECG port quiet would let the λ-layer skip reads
// that stepping makes: the sample count tells.
TEST(MachineSkipCosim, EcgReadsInsideTheTimerPollStep)
{
    std::shared_ptr<const LoadedImage> li = LoadedImage::load(
        encodeProgram(assembleOrDie(kEcgPollKernel)));
    ecg::EcgParams flat;
    flat.waves.clear();
    flat.noiseSigma = 0.0;
    flat.baselineAmpl = 0.0;
    sys::SystemConfig cfg;
    cfg.semispaceWords = 1u << 15;
    ecg::ScriptedHeart heartA({ { 600.0, 75.0 } }, 1, flat);
    sys::TwoLayerSystem a(li, icd::monitorProgram(), heartA, cfg);
    obs::Recorder rec(execTrace());
    cfg.trace = &rec;
    ecg::ScriptedHeart heartB({ { 600.0, 75.0 } }, 1, flat);
    sys::TwoLayerSystem b(li, icd::monitorProgram(), heartB, cfg);
    for (int w = 1; w <= 2; ++w) {
        SCOPED_TRACE(strprintf("window %d", w));
        a.runUntil(Cycles(w) * kWindow);
        b.runUntil(Cycles(w) * kWindow);
        expectSameSystem(a, b);
        if (::testing::Test::HasFailure())
            return;
    }
    std::shared_ptr<const sys::SystemSnapshot> s = a.snapshot();
    EXPECT_GE(s->state.nTicks, 39u);
    EXPECT_GT(s->state.nSamples, 10 * s->state.nTicks);
}

// With no restarts allowed, the first failure degrades to the
// imperative fallback detector, which reads the λ-side bus. Its bus
// reports no quiet read while degraded, so it steps like one whose
// recorder wants Mblaze events.
TEST(MachineSkipCosim, DegradedFallbackMatchesSteppedRunEverySlice)
{
    using fault::FaultKind;
    sys::SystemConfig cfg;
    cfg.semispaceWords = 1u << 15;
    cfg.watchdogMaxRestarts = 0;
    cfg.fallbackProgram = icd::baselineIcdProgram();
    cfg.faultPlan.events = {
        { 1'000'000, FaultKind::LambdaWedge, 2'500'000, 0 },
    };
    ecg::ScriptedHeart heartA({ { 600.0, 75.0 } }, 42);
    sys::TwoLayerSystem a(kernel(), icd::monitorProgram(), heartA, cfg);
    obs::TraceConfig tcfg;
    tcfg.mask = uint32_t(obs::Cat::Mblaze);
    tcfg.capacity = 64;
    obs::Recorder rec(tcfg);
    cfg.trace = &rec;
    ecg::ScriptedHeart heartB({ { 600.0, 75.0 } }, 42);
    sys::TwoLayerSystem b(kernel(), icd::monitorProgram(), heartB, cfg);

    // Run to the degradation, then compare the fallback slice by
    // slice for 20 ms.
    a.runUntil(4'000'000);
    b.runUntil(4'000'000);
    ASSERT_TRUE(a.degraded());
    Cycles t = 4'000'000;
    for (int slice = 1; slice <= 500; ++slice) {
        t += cfg.sliceCycles;
        a.runUntil(t);
        b.runUntil(t);
        SCOPED_TRACE(strprintf("slice %d", slice));
        std::shared_ptr<const sys::SystemSnapshot> sa = a.snapshot();
        std::shared_ptr<const sys::SystemSnapshot> sb = b.snapshot();
        ASSERT_TRUE(sa->hasBaseline && sb->hasBaseline);
        EXPECT_TRUE(sa->baseline == sb->baseline);
        EXPECT_TRUE(sa->state == sb->state);
        EXPECT_EQ(metricsJson(a), metricsJson(b));
        if (::testing::Test::HasFailure())
            return;
    }
}

} // namespace
} // namespace zarf
