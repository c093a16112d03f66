/**
 * @file
 * Fault-model unit tests below the system layer: the heap's
 * corruption detection (the conditions that used to abort the host
 * now latch recoverable state), the SEU injection APIs, the
 * imperative core's structured fault record, and the determinism of
 * seed-derived fault plans.
 */

#include <gtest/gtest.h>

#include "fault/plan.hh"
#include "machine/heap.hh"
#include "machine/machine.hh"
#include "mblaze/cpu.hh"
#include "mblaze/isa.hh"
#include "sem/io.hh"

namespace zarf
{
namespace
{

class HeapFixture : public ::testing::Test
{
  protected:
    TimingModel timing;
    MachineStats stats;
    Heap heap{ 1024, timing, stats };
};

// Satellite (a): a corrupted header can make the live set exceed a
// semispace. The seed panicked ("GC to-space overflow"); now the
// heap latches a sticky corruption flag and survives.
TEST_F(HeapFixture, GcToSpaceOverflowIsRecoverableNotFatal)
{
    std::vector<Word> roots;
    for (int i = 0; i < 20; ++i) {
        Word addr = heap.alloc(ObjKind::Cons, 0,
                               { mval::mkInt(i), mval::mkInt(i) });
        roots.push_back(mval::mkRef(addr));
    }
    ASSERT_FALSE(heap.corrupt());

    // An SEU in a header inflates one object's payload count to the
    // maximum (2047 words) — far beyond a 1024-word semispace.
    Word victim = mval::refOf(roots[3]);
    heap.setHeader(victim, mhdr::pack(ObjKind::Cons, 0x7ff, 0));

    heap.collect([&](const Heap::RootVisitor &v) {
        for (Word &r : roots)
            v(r);
    });

    EXPECT_TRUE(heap.corrupt());
    EXPECT_NE(std::string(heap.corruptWhy()).find("to-space overflow"),
              std::string::npos);
}

TEST_F(HeapFixture, ChaseDetectsIndirectionCycle)
{
    Word a = heap.alloc(ObjKind::Ind, 0, { mval::mkInt(0) });
    Word b = heap.alloc(ObjKind::Ind, 0, { mval::mkRef(a) });
    // Corruption closes the loop: a -> b -> a.
    heap.setPayload(a, 0, mval::mkRef(b));

    Word v = heap.chase(mval::mkRef(a));
    EXPECT_TRUE(mval::isInt(v)); // safe fallback value
    EXPECT_TRUE(heap.corrupt());
    EXPECT_NE(std::string(heap.corruptWhy()).find("indirection cycle"),
              std::string::npos);
}

TEST_F(HeapFixture, CollectDetectsIndirectionCycle)
{
    Word a = heap.alloc(ObjKind::Ind, 0, { mval::mkInt(0) });
    Word b = heap.alloc(ObjKind::Ind, 0, { mval::mkRef(a) });
    heap.setPayload(a, 0, mval::mkRef(b));

    Word root = mval::mkRef(a);
    heap.collect([&](const Heap::RootVisitor &v) { v(root); });

    EXPECT_TRUE(heap.corrupt());
    EXPECT_NE(std::string(heap.corruptWhy()).find("indirection cycle"),
              std::string::npos);
}

TEST_F(HeapFixture, ChaseRejectsWildReference)
{
    // A reference beyond both semispaces (bit-flipped address).
    Word v = heap.chase(mval::mkRef(3 * 1024));
    EXPECT_TRUE(mval::isInt(v));
    EXPECT_TRUE(heap.corrupt());
}

TEST_F(HeapFixture, FlipBitChangesOneAllocatedWord)
{
    Word addr =
        heap.alloc(ObjKind::Cons, 7, { mval::mkInt(5), mval::mkInt(6) });
    Word before = heap.payload(addr, 0);
    // The object is the only allocation: word offset addr+1 is its
    // first payload word.
    heap.flipBit(addr + 1, 3);
    EXPECT_EQ(heap.payload(addr, 0), before ^ (Word(1) << 3));

    // Offsets wrap modulo the used words instead of escaping.
    Word h = heap.header(addr);
    heap.flipBit(addr + heap.usedWords(), 0);
    EXPECT_EQ(heap.header(addr), h ^ 1u);
}

TEST_F(HeapFixture, FlipBitOnEmptyHeapIsNoOp)
{
    heap.flipBit(0, 0);
    EXPECT_FALSE(heap.corrupt());
    EXPECT_EQ(heap.usedWords(), 0u);
}

TEST(MachineStatusNames, AllStatusesNamed)
{
    EXPECT_STREQ(machineStatusName(MachineStatus::Running), "Running");
    EXPECT_STREQ(machineStatusName(MachineStatus::Done), "Done");
    EXPECT_STREQ(machineStatusName(MachineStatus::OutOfMemory),
                 "OutOfMemory");
    EXPECT_STREQ(machineStatusName(MachineStatus::Stuck), "Stuck");
    EXPECT_STREQ(machineStatusName(MachineStatus::HeapCorrupt),
                 "HeapCorrupt");
    EXPECT_STREQ(machineStatusName(MachineStatus::MemFault),
                 "MemFault");
}

// Satellite (b): the imperative core's fault record carries cause,
// pc, and address, so the system layer can report it over the
// diagnostic channel instead of seeing a bare Fault status.
class NullBus : public IoBus
{
  public:
    SWord getInt(SWord) override { return 0; }
    void putInt(SWord, SWord) override {}
};

TEST(MbFaultRecord, LoadOutOfRangeRecordsCausePcAddr)
{
    NullBus bus;
    mblaze::MbCpu cpu(mblaze::assembleMbOrDie(R"(
        movi r1, 99999999
        lw r2, r1, 0
        halt
    )"),
                      bus);
    EXPECT_EQ(cpu.run(), mblaze::MbStatus::Fault);
    const mblaze::MbFaultInfo &f = cpu.faultInfo();
    EXPECT_EQ(f.cause, mblaze::MbFaultInfo::Cause::LoadOutOfRange);
    EXPECT_EQ(f.pc, 1u);
    EXPECT_EQ(f.addr, 99999999);
}

TEST(MbFaultRecord, StoreOutOfRangeRecordsCause)
{
    NullBus bus;
    mblaze::MbCpu cpu(mblaze::assembleMbOrDie(R"(
        movi r1, -4
        sw r1, r1, 0
        halt
    )"),
                      bus);
    EXPECT_EQ(cpu.run(), mblaze::MbStatus::Fault);
    EXPECT_EQ(cpu.faultInfo().cause,
              mblaze::MbFaultInfo::Cause::StoreOutOfRange);
    EXPECT_EQ(cpu.faultInfo().addr, -4);
}

TEST(MbFaultRecord, HealthyCpuReportsNoCause)
{
    NullBus bus;
    mblaze::MbCpu cpu(mblaze::assembleMbOrDie("halt\n"), bus);
    EXPECT_EQ(cpu.run(), mblaze::MbStatus::Halted);
    EXPECT_EQ(cpu.faultInfo().cause,
              mblaze::MbFaultInfo::Cause::None);
}

TEST(FaultPlan, SingleKindPlanIsDeterministic)
{
    fault::FaultWindow w{ 1000, 2'000'000 };
    for (size_t k = 0; k < fault::kNumFaultKinds; ++k) {
        auto kind = fault::FaultKind(k);
        fault::FaultPlan p1 = fault::singleKindPlan(kind, 77, w, 5);
        fault::FaultPlan p2 = fault::singleKindPlan(kind, 77, w, 5);
        ASSERT_EQ(p1.events.size(), 5u);
        for (size_t i = 0; i < p1.events.size(); ++i) {
            EXPECT_EQ(p1.events[i].atCycle, p2.events[i].atCycle);
            EXPECT_EQ(p1.events[i].a, p2.events[i].a);
            EXPECT_EQ(p1.events[i].b, p2.events[i].b);
            EXPECT_GE(p1.events[i].atCycle, w.begin);
            EXPECT_LT(p1.events[i].atCycle, w.end);
            if (i > 0) {
                EXPECT_GE(p1.events[i].atCycle,
                          p1.events[i - 1].atCycle);
            }
        }
    }
}

TEST(FaultPlan, DifferentSeedsDiverge)
{
    fault::FaultWindow w{ 0, 50'000'000 };
    auto p1 = fault::singleKindPlan(fault::FaultKind::HeapSeu, 1, w);
    auto p2 = fault::singleKindPlan(fault::FaultKind::HeapSeu, 2, w);
    EXPECT_NE(p1.events[0].atCycle, p2.events[0].atCycle);
}

TEST(FaultPlan, EveryKindHasAName)
{
    for (size_t k = 0; k < fault::kNumFaultKinds; ++k)
        EXPECT_STRNE(fault::faultKindName(fault::FaultKind(k)), "?");
}

TEST(FaultPlan, DoubleBitSeuPacksTwoDistinctBits)
{
    fault::FaultWindow w{ 0, 1000 };
    for (uint64_t seed = 1; seed < 30; ++seed) {
        auto p = fault::singleKindPlan(fault::FaultKind::HeapSeuDouble,
                                       seed, w);
        uint64_t b1 = p.events[0].b & 0xff;
        uint64_t b2 = (p.events[0].b >> 8) & 0xff;
        EXPECT_LT(b1, 32u);
        EXPECT_LT(b2, 32u);
        EXPECT_NE(b1, b2);
    }
}

} // namespace
} // namespace zarf
