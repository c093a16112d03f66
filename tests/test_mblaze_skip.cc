/**
 * @file
 * Differential tests for the imperative core's idle-loop
 * fast-forward (MbCpu::advance, IoBus::quietRead).
 *
 * Skipping must be invisible: a CPU on a bus that reports quiet reads
 * ends every slice in exactly the state that an identical CPU on an
 * identical bus that reports none reaches, and the state that one
 * whose recorder wants Mblaze events reaches by stepping every
 * instruction. Random programs cover idle loops over quiet and
 * non-quiet ports, loops that store, write a port or count in a
 * register, nested loops, `jal`/`jr` back-edges and faults, under
 * random slice sizes that often end mid-iteration. The ICD
 * co-simulation under channel, memory and watchdog faults, and a
 * monitor that throws away the words it pops from the system's
 * queues, must match the same run with a recorder that wants Mblaze
 * events, which steps the monitor.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ecg/synth.hh"
#include "fault/plan.hh"
#include "icd/baseline.hh"
#include "icd/zarf_icd.hh"
#include "mblaze/cpu.hh"
#include "mblaze/isa.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "system/ports.hh"
#include "system/system.hh"

namespace zarf
{
namespace
{

using mblaze::MbCpu;
using mblaze::MbState;

/** The two systems' snapshots (all but the λ-machine's own state,
 *  which the metrics cover) and exported metrics are equal. */
void
expectSameSystem(const sys::TwoLayerSystem &a,
                 const sys::TwoLayerSystem &b)
{
    std::shared_ptr<const sys::SystemSnapshot> sa = a.snapshot();
    std::shared_ptr<const sys::SystemSnapshot> sb = b.snapshot();
    EXPECT_TRUE(sa->state == sb->state);
    EXPECT_TRUE(sa->monitor == sb->monitor);
    ASSERT_EQ(sa->hasBaseline, sb->hasBaseline);
    EXPECT_TRUE(sa->baseline == sb->baseline);
    obs::Metrics ma, mb;
    a.exportMetrics(ma);
    b.exportMetrics(mb);
    EXPECT_EQ(ma.toJson(), mb.toJson());
}

/**
 * Port 0 reads a constant, port 1 pops a FIFO (0 when empty), port 2
 * counts its reads, and every other port reads 0; writes are logged.
 * With optIn the constant and unmapped ports are quiet and the FIFO
 * is quiet while empty; without it no read is quiet.
 */
class PollBus : public IoBus
{
  public:
    PollBus(SWord constant, bool optIn)
        : constant(constant), optIn(optIn)
    {}

    SWord
    getInt(SWord port) override
    {
        switch (port) {
          case 0:
            return constant;
          case 1: {
            if (fifo.empty())
                return 0;
            SWord v = fifo.front();
            fifo.pop_front();
            return v;
          }
          case 2:
            return SWord(++reads);
          default:
            return 0;
        }
    }

    void
    putInt(SWord port, SWord value) override
    {
        writes.emplace_back(port, value);
    }

    bool
    quietRead(SWord port) const override
    {
        if (!optIn)
            return false;
        if (port == 1)
            return fifo.empty();
        return port != 2;
    }

    SWord constant;
    bool optIn;
    std::deque<SWord> fifo;
    uint64_t reads = 0;
    std::vector<std::pair<SWord, SWord>> writes;
};

constexpr size_t kMemWords = 64;

/** A random program built from loop shapes, each exiting when its
 *  polled port reads nonzero (port 1 once the test feeds it). */
std::string
randomProgram(Rng &rng)
{
    std::string s = "start:\n";
    for (unsigned r = 1; r <= 8; ++r)
        s += strprintf("  movi r%u, %d\n", r, int(rng.range(-1, 3)));
    std::string subs;
    unsigned blocks = 1 + unsigned(rng.below(4));
    for (unsigned k = 0; k < blocks; ++k) {
        std::string top = strprintf("b%u", k);
        std::string out = strprintf("x%u", k);
        int port = int(rng.below(4));
        int other = int(rng.below(4));
        switch (rng.below(13)) {
          case 0: // Poll until nonzero.
            s += top + ":\n";
            s += strprintf("  in r1, %d\n", port);
            s += "  beq r1, r0, " + top + "\n";
            break;
          case 1: // Monitor-shaped: forward exits, one back-edge.
            s += top + ":\n";
            s += strprintf("  in r1, %d\n", port);
            s += "  bne r1, r0, " + out + "\n";
            s += strprintf("  in r2, %d\n", other);
            s += "  movi r3, 1\n";
            s += "  bne r2, r3, " + top + "\n";
            s += out + ":\n";
            break;
          case 2: // Multi-cycle operations in the idle body.
            s += top + ":\n";
            s += strprintf("  in r1, %d\n", port);
            s += "  mul r4, r5, r6\n";
            s += "  div r4, r5, r6\n";
            s += "  movi r7, 12345\n";
            s += "  beq r1, r0, " + top + "\n";
            break;
          case 3: // Stores every iteration.
            s += top + ":\n";
            s += strprintf("  in r1, %d\n", port);
            s += strprintf("  sw r5, r0, %d\n",
                           int(rng.below(kMemWords)));
            s += "  beq r1, r0, " + top + "\n";
            break;
          case 4: // Writes a port every iteration.
            s += top + ":\n";
            s += strprintf("  in r1, %d\n", port);
            s += "  out r5, 4\n";
            s += "  beq r1, r0, " + top + "\n";
            break;
          case 5: // Counts in a register: never a fixed point.
            s += strprintf("  movi r9, %d\n", int(1 + rng.below(400)));
            s += top + ":\n";
            s += "  addi r9, r9, -1\n";
            s += strprintf("  in r1, %d\n", port);
            s += "  bne r9, r0, " + top + "\n";
            break;
          case 6: // Converges: a register halves to 0, then repeats.
            s += strprintf("  movi r10, %d\n",
                           int(rng.below(1u << 20)));
            s += top + ":\n";
            s += "  srai r10, r10, 1\n";
            s += strprintf("  in r1, %d\n", port);
            s += "  beq r1, r0, " + top + "\n";
            break;
          case 7: // Nested: an outer count around an inner poll.
            s += strprintf("  movi r11, %d\n", int(1 + rng.below(5)));
            s += top + ":\n";
            s += top + "i:\n";
            s += strprintf("  in r1, %d\n", port);
            s += "  beq r1, r0, " + top + "i\n";
            s += "  addi r11, r11, -1\n";
            s += "  bne r11, r0, " + top + "\n";
            break;
          case 8: // A backward jal is the back-edge.
            s += top + ":\n";
            s += strprintf("  in r1, %d\n", port);
            s += "  bne r1, r0, " + out + "\n";
            s += "  jal r14, " + top + "\n";
            s += out + ":\n";
            break;
          case 9: // A jr is the back-edge.
            s += "  jal r15, " + top + "\n";
            s += top + ":\n";
            s += strprintf("  in r1, %d\n", port);
            s += "  bne r1, r0, " + out + "\n";
            s += "  jr r15\n";
            s += out + ":\n";
            break;
          case 10: // Call and return inside the loop: two heads.
            s += top + ":\n";
            s += "  jal r15, " + top + "s\n";
            s += "  beq r1, r0, " + top + "\n";
            subs += top + "s:\n";
            subs += strprintf("  in r1, %d\n", port);
            subs += "  jr r15\n";
            break;
          case 11: // Discards a read of the counting port.
            s += top + ":\n";
            s += "  in r2, 2\n";
            s += "  movi r2, 0\n";
            s += "  in r1, 1\n";
            s += "  beq r1, r0, " + top + "\n";
            break;
          case 12: // Walks memory until a load faults.
            s += "  movi r12, 0\n";
            s += top + ":\n";
            s += "  lw r1, r12, 0\n";
            s += strprintf("  addi r12, r12, %d\n",
                           int(1 + rng.below(9)));
            s += strprintf("  in r2, %d\n", port);
            s += "  beq r2, r0, " + top + "\n";
            break;
        }
    }
    switch (rng.below(3)) {
      case 0:
        s += "  j start\n";
        break;
      case 1:
        s += "  halt\n";
        break;
      default:
        s += "spin:\n";
        s += "  beq r0, r0, spin\n";
        break;
    }
    return s + subs;
}

Cycles
randomSlice(Rng &rng)
{
    switch (rng.below(3)) {
      case 0:
        return 1 + rng.below(40);
      case 1:
        return 1 + rng.below(4000);
      default:
        return 1 + rng.below(100'000);
    }
}

class MbSkipDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(MbSkipDifferential, QuietBusMatchesSteppingEverySlice)
{
    for (uint64_t p = 0; p < 25; ++p) {
        uint64_t seed = GetParam() * 1000 + p;
        Rng rng(seed);
        std::string text = randomProgram(rng);
        SCOPED_TRACE(strprintf("seed %llu\n", (unsigned long long)seed) +
                     text);
        mblaze::MbProgram prog = mblaze::assembleMbOrDie(text);
        SWord constant = rng.chance(0.5) ? 0 : SWord(rng.range(1, 3));
        PollBus quiet(constant, true), busy(constant, false),
            stepped(constant, true);
        MbCpu fast(prog, quiet, kMemWords);
        MbCpu slow(prog, busy, kMemWords);
        // The reference steps: its recorder wants Mblaze events.
        MbCpu ref(prog, stepped, kMemWords);
        obs::TraceConfig tcfg;
        tcfg.mask = uint32_t(obs::Cat::Mblaze);
        tcfg.capacity = 16;
        obs::Recorder rec(tcfg);
        ref.setTrace(&rec);
        for (int slice = 0; slice < 60; ++slice) {
            if (rng.chance(0.25)) {
                unsigned n = 1 + unsigned(rng.below(3));
                for (unsigned i = 0; i < n; ++i) {
                    SWord w = SWord(rng.below(3));
                    for (PollBus *bus : { &quiet, &busy, &stepped })
                        bus->fifo.push_back(w);
                }
            }
            Cycles budget = randomSlice(rng);
            ref.advance(budget);
            MbState want;
            ref.save(want);
            SCOPED_TRACE(strprintf("slice %d", slice));
            for (auto [cpu, bus] : { std::pair{ &fast, &quiet },
                                     std::pair{ &slow, &busy } }) {
                cpu->advance(budget);
                MbState got;
                cpu->save(got);
                EXPECT_TRUE(got == want);
                ASSERT_EQ(bus->reads, stepped.reads);
                ASSERT_TRUE(bus->fifo == stepped.fifo);
                ASSERT_TRUE(bus->writes == stepped.writes);
            }
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbSkipDifferential,
                         ::testing::Range(uint64_t(0), uint64_t(16)));

/** Every read returns 0 and is quiet; writes are dropped. */
class QuietBus : public IoBus
{
  public:
    SWord getInt(SWord) override { return 0; }
    void putInt(SWord, SWord) override {}
    bool quietRead(SWord) const override { return true; }
};

// A trillion-cycle slice of the monitor's idle poll on a quiet bus
// ends exactly where the closed form of stepping puts it. Stepping
// it would take hours, so this also shows that the skip happens.
TEST(MbSkip, HugeIdleSliceMatchesClosedForm)
{
    mblaze::MbProgram prog = icd::monitorProgram();
    QuietBus bus;
    MbCpu cpu(prog, bus);
    // `movi r1, 0; sw r1, r0, 0` take 2 + 1 cycles. The poll loop,
    // channel and diagnostic queue both empty, is `in` (2), taken
    // `beq` (3), `in` (2), `movi` (2), taken `bne` (3), `movi` (2),
    // taken `bne` (3): 7 instructions, 17 cycles.
    const Cycles kCost[] = { 2, 3, 2, 2, 3, 2, 3 };
    const size_t poll = size_t(prog.labelAt("poll"));
    const size_t diag = size_t(prog.labelAt("diag"));
    const size_t resync = size_t(prog.labelAt("try_resync"));
    // The pc after each of the seven instructions.
    const size_t kNext[] = { poll + 1, diag,       diag + 1, diag + 2,
                             resync,   resync + 1, poll };
    const Cycles budget = 1'000'000'000'000ull;
    cpu.advance(budget);
    Cycles iters = (budget - 3) / 17;
    Cycles total = 3 + iters * 17;
    uint64_t retired = 2 + iters * 7;
    size_t pc = poll;
    for (size_t i = 0; total < budget; ++i) {
        total += kCost[i];
        ++retired;
        pc = kNext[i];
    }
    EXPECT_EQ(cpu.cycles(), total);
    EXPECT_EQ(cpu.instructionsRetired(), retired);
    EXPECT_EQ(cpu.status(), mblaze::MbStatus::Running);
    MbState s;
    cpu.save(s);
    EXPECT_EQ(s.pc, pc);
}

// ----------------------------------------------------------------
// The co-simulation: the monitor skips on the system's bus; a
// Mblaze-wanting recorder steps it.
// ----------------------------------------------------------------

const std::shared_ptr<const LoadedImage> &
kernel()
{
    static const std::shared_ptr<const LoadedImage> li =
        LoadedImage::load(icd::buildKernelImage());
    return li;
}

TEST(MbSkipCosim, FaultedIcdMatchesSteppedMonitor)
{
    const auto &li = kernel();
    mblaze::MbProgram monitor = icd::monitorProgram();
    using fault::FaultKind;
    sys::SystemConfig cfg;
    cfg.fallbackProgram = icd::baselineIcdProgram();
    cfg.faultPlan.events = {
        { 10'000'000, FaultKind::ChanDrop, 0, 0 },
        { 15'000'000, FaultKind::ChanDup, 0, 0 },
        { 20'000'000, FaultKind::ChanOverflowBurst, 12, 0 },
        // Bit 0 of the monitor's episode count.
        { 30'000'000, FaultKind::MbMemSeu, 0, 0 },
        // Uncorrectable: a watchdog restart, which resyncs the
        // monitor over the diagnostic channel.
        { 40'000'000, FaultKind::HeapSeuDouble, 1, 0x0102 },
    };

    ecg::ScriptedHeart heartA({ { 600.0, 75.0 } }, 42);
    sys::TwoLayerSystem a(li, monitor, heartA, cfg);
    obs::TraceConfig tcfg;
    tcfg.mask = uint32_t(obs::Cat::Mblaze);
    tcfg.capacity = 64;
    obs::Recorder rec(tcfg);
    cfg.trace = &rec;
    ecg::ScriptedHeart heartB({ { 600.0, 75.0 } }, 42);
    sys::TwoLayerSystem b(li, monitor, heartB, cfg);

    constexpr Cycles kWindow = sys::kLambdaHz / 10; // 100 ms
    for (int w = 1; w <= 12; ++w) {
        SCOPED_TRACE(strprintf("window %d", w));
        a.runUntil(Cycles(w) * kWindow);
        b.runUntil(Cycles(w) * kWindow);
        if (w % 4 == 0) {
            // The diagnostic channel: a command and its answer.
            std::optional<SWord> qa = a.queryTreatments();
            std::optional<SWord> qb = b.queryTreatments();
            EXPECT_EQ(qa, qb);
        }
        expectSameSystem(a, b);
        if (::testing::Test::HasFailure())
            return;
    }
    // Every fault landed and the stepped run really stepped.
    EXPECT_EQ(a.watchdogRestarts(), 1u);
    EXPECT_EQ(a.channelFaultsDetected(), 2u);
    EXPECT_GT(a.channelOverflows(), 0u);
    EXPECT_EQ(a.mbMemFlips(), 1u);
    EXPECT_GT(rec.emitted(), a.mbCycles() / 17);
}

// A monitor that pops the channel and the diagnostic queue and
// throws each word away repeats its registers every iteration, but
// while a queue holds words each pop changes the bus: the system's
// bus must report those reads as not quiet, or the core skips pops
// that stepping makes. Overflow bursts and doubled resync commands
// queue several words at once, and the run must match a stepped one
// at every slice boundary.
TEST(MbSkipCosim, DiscardedQueueReadsMatchSteppedMonitor)
{
    mblaze::MbProgram drain = mblaze::assembleMbOrDie(
        strprintf("loop:\n"
                  "  in r1, %d\n"
                  "  movi r1, 0\n"
                  "  in r2, %d\n"
                  "  movi r2, 0\n"
                  "  j loop\n",
                  int(sys::kMbChanData), int(sys::kMbDiagCmd)));
    using fault::FaultKind;
    sys::SystemConfig cfg;
    // A smaller heap keeps the per-slice snapshots cheap.
    cfg.semispaceWords = 1u << 15;
    cfg.faultPlan.events = {
        { 300'000, FaultKind::ChanOverflowBurst, 12, 0 },
        { 1'100'000, FaultKind::ChanOverflowBurst, 5, 0 },
    };

    ecg::ScriptedHeart heartA({ { 600.0, 75.0 } }, 42);
    sys::TwoLayerSystem a(kernel(), drain, heartA, cfg);
    obs::TraceConfig tcfg;
    tcfg.mask = uint32_t(obs::Cat::Mblaze);
    tcfg.capacity = 64;
    obs::Recorder rec(tcfg);
    cfg.trace = &rec;
    ecg::ScriptedHeart heartB({ { 600.0, 75.0 } }, 42);
    sys::TwoLayerSystem b(kernel(), drain, heartB, cfg);

    Cycles t = 0;
    for (int slice = 1; slice <= 750; ++slice) {
        t += cfg.sliceCycles;
        a.runUntil(t);
        b.runUntil(t);
        SCOPED_TRACE(strprintf("slice %d", slice));
        expectSameSystem(a, b);
        if (::testing::Test::HasFailure())
            return;
        if (slice == 200 || slice == 700) {
            // Four diagnostic words: two resync commands, each
            // followed by its episode count.
            for (sys::TwoLayerSystem *s : { &a, &b }) {
                s->resyncMonitor();
                s->resyncMonitor();
            }
        }
    }
    // Every burst and command was drained by the end.
    std::shared_ptr<const sys::SystemSnapshot> end = a.snapshot();
    EXPECT_TRUE(end->state.channel.empty());
    EXPECT_TRUE(end->state.diagCmds.empty());
    EXPECT_GT(rec.emitted(), a.mbCycles() / 17);
}

} // namespace
} // namespace zarf
