/**
 * @file
 * Heap and collector unit tests: tagged-word helpers, header
 * packing, allocation, indirection chasing, Cheney collection of
 * object graphs with sharing and indirection chains, and the
 * recycled stores' written mark.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "machine/heap.hh"

namespace zarf
{
namespace
{

TEST(MVal, TaggedWords)
{
    EXPECT_TRUE(mval::isInt(mval::mkInt(5)));
    EXPECT_TRUE(mval::isInt(mval::mkInt(-5)));
    EXPECT_TRUE(mval::isRef(mval::mkRef(123)));
    EXPECT_EQ(mval::intOf(mval::mkInt(5)), 5);
    EXPECT_EQ(mval::intOf(mval::mkInt(-5)), -5);
    EXPECT_EQ(mval::intOf(mval::mkInt(kIntMin)), kIntMin);
    EXPECT_EQ(mval::intOf(mval::mkInt(kIntMax)), kIntMax);
    EXPECT_EQ(mval::refOf(mval::mkRef(123)), 123u);
}

TEST(MHdr, HeaderFields)
{
    Word h = mhdr::pack(ObjKind::Cons, 3, 0x104);
    EXPECT_EQ(mhdr::kindOf(h), ObjKind::Cons);
    EXPECT_EQ(mhdr::countOf(h), 3u);
    EXPECT_EQ(mhdr::fnOf(h), 0x104u);
    EXPECT_FALSE(mhdr::padOf(h));
    EXPECT_EQ(mhdr::argsOf(h), 3u);

    Word p = mhdr::pack(ObjKind::App, 1, 0x100, true);
    EXPECT_TRUE(mhdr::padOf(p));
    EXPECT_EQ(mhdr::countOf(p), 1u);
    EXPECT_EQ(mhdr::argsOf(p), 0u);
}

struct HeapFixture : ::testing::Test
{
    TimingModel timing;
    MachineStats stats;
    Heap heap{ 4096, timing, stats };
};

TEST_F(HeapFixture, AllocAndRead)
{
    Word a = heap.alloc(ObjKind::Cons, 0x104,
                        { mval::mkInt(1), mval::mkInt(2) });
    EXPECT_EQ(mhdr::kindOf(heap.header(a)), ObjKind::Cons);
    EXPECT_EQ(heap.payload(a, 0), mval::mkInt(1));
    EXPECT_EQ(heap.payload(a, 1), mval::mkInt(2));
    EXPECT_EQ(heap.usedWords(), 3u);
    EXPECT_EQ(stats.allocations, 1u);
}

TEST_F(HeapFixture, ChaseFollowsIndirections)
{
    Word target = heap.alloc(ObjKind::Cons, 0x104, { mval::mkInt(9) });
    Word ind1 = heap.alloc(ObjKind::Ind, 0, { mval::mkRef(target) });
    Word ind2 = heap.alloc(ObjKind::Ind, 0, { mval::mkRef(ind1) });
    EXPECT_EQ(heap.chase(mval::mkRef(ind2)), mval::mkRef(target));
    // An indirection to an integer chases to the integer itself.
    Word ind3 = heap.alloc(ObjKind::Ind, 0, { mval::mkInt(-7) });
    EXPECT_EQ(heap.chase(mval::mkRef(ind3)), mval::mkInt(-7));
}

TEST_F(HeapFixture, CollectPreservesReachableGraph)
{
    // root -> Cons(1, inner), inner = Cons(2, shared), and a second
    // root shares `shared`.
    Word shared = heap.alloc(ObjKind::Cons, 0x105, { mval::mkInt(3) });
    Word inner = heap.alloc(ObjKind::Cons, 0x104,
                            { mval::mkInt(2), mval::mkRef(shared) });
    Word outer = heap.alloc(ObjKind::Cons, 0x104,
                            { mval::mkInt(1), mval::mkRef(inner) });
    Word garbage = heap.alloc(ObjKind::Cons, 0x106,
                              { mval::mkInt(99) });
    (void)garbage;

    Word root1 = mval::mkRef(outer);
    Word root2 = mval::mkRef(shared);
    heap.collect([&](const Heap::RootVisitor &v) {
        v(root1);
        v(root2);
    });

    // Garbage reclaimed: only outer (3 words) + inner (3 words) +
    // shared (2 words) survive.
    EXPECT_EQ(heap.usedWords(), 8u);

    Word o = mval::refOf(root1);
    EXPECT_EQ(heap.payload(o, 0), mval::mkInt(1));
    Word i = mval::refOf(heap.payload(o, 1));
    EXPECT_EQ(heap.payload(i, 0), mval::mkInt(2));
    // Sharing is preserved: inner's tail is the same object root2
    // points at.
    EXPECT_EQ(heap.payload(i, 1), root2);
    EXPECT_EQ(heap.payload(mval::refOf(root2), 0), mval::mkInt(3));
}

TEST_F(HeapFixture, CollectSquashesIndirectionChains)
{
    Word target = heap.alloc(ObjKind::Cons, 0x104, { mval::mkInt(5) });
    Word ind = heap.alloc(ObjKind::Ind, 0, { mval::mkRef(target) });
    Word root = mval::mkRef(ind);
    heap.collect([&](const Heap::RootVisitor &v) { v(root); });
    // The root now points directly at the constructor.
    EXPECT_EQ(mhdr::kindOf(heap.header(mval::refOf(root))),
              ObjKind::Cons);
    EXPECT_EQ(heap.usedWords(), 2u);
}

TEST_F(HeapFixture, CollectChargesPaperCosts)
{
    Word a = heap.alloc(ObjKind::Cons, 0x104,
                        { mval::mkInt(1), mval::mkInt(2) });
    Word root = mval::mkRef(a);
    Cycles before = stats.gcCycles;
    heap.collect([&](const Heap::RootVisitor &v) { v(root); });
    // One 3-word object: setup + (3+4) + one 2-cycle ref check.
    Cycles expect = timing.gcSetup + (3 + 4) + timing.gcRefCheck;
    EXPECT_EQ(stats.gcCycles - before, expect);
    EXPECT_EQ(stats.gcObjectsCopied, 1u);
    EXPECT_EQ(stats.gcWordsCopied, 3u);
}

TEST_F(HeapFixture, RepeatedCollectionsFlipSpaces)
{
    Word a = heap.alloc(ObjKind::Cons, 0x104, { mval::mkInt(4) });
    Word root = mval::mkRef(a);
    for (int i = 0; i < 6; ++i) {
        heap.collect([&](const Heap::RootVisitor &v) { v(root); });
        EXPECT_EQ(heap.payload(mval::refOf(root), 0), mval::mkInt(4));
        EXPECT_EQ(heap.usedWords(), 2u);
    }
    EXPECT_EQ(stats.gcRuns, 6u);
}

TEST_F(HeapFixture, CyclicReferencesViaUpdateSurviveCollection)
{
    // Updates can create cycles (an object updated to point into a
    // structure that references it); the copying collector must
    // terminate and preserve the cycle.
    Word a = heap.alloc(ObjKind::Cons, 0x104,
                        { mval::mkInt(0), mval::mkInt(0) });
    Word b = heap.alloc(ObjKind::Cons, 0x104,
                        { mval::mkInt(1), mval::mkRef(a) });
    heap.setPayload(a, 1, mval::mkRef(b)); // a <-> b cycle
    Word root = mval::mkRef(a);
    heap.collect([&](const Heap::RootVisitor &v) { v(root); });
    Word na = mval::refOf(root);
    Word nb = mval::refOf(heap.payload(na, 1));
    EXPECT_EQ(heap.payload(nb, 1), mval::mkRef(na));
    EXPECT_EQ(heap.usedWords(), 6u);
}

TEST_F(HeapFixture, RecycledStoreReadsZero)
{
    // A destroyed heap zeroes only the words below its written mark
    // before its store goes back to this thread's cache. Each block
    // below drives one write path so that it reaches past every
    // other write of its heap, so a path the mark leaves out shows
    // as a nonzero word in a store the next same-size heap takes.
    const size_t semi = heap.capacity();
    const Word last = Word(2 * semi - 1); // the last valid address
    auto collectWith = [](Heap &h, Word &root) {
        h.collect([&](const Heap::RootVisitor &v) { v(root); });
    };
    auto fillSpace = [](Heap &h) {
        std::vector<Word> junk(100, mval::mkInt(7));
        while (h.freeWords() > junk.size())
            h.alloc(ObjKind::Cons, 0x104, junk);
    };
    // Spaces 1 and 0 in turn: the second flip leaves space 1
    // written almost to its end below a low allocation pointer.
    auto flipThere = [&](Heap &h) {
        Word root = mval::mkRef(
            h.alloc(ObjKind::Cons, 0x104, { mval::mkInt(1) }));
        collectWith(h, root);
        fillSpace(h);
        collectWith(h, root);
        EXPECT_LT(h.top(), semi);
    };
    auto expectRecycledZero = [&](const char *path) {
        SCOPED_TRACE(path);
        // Takes every store the cache can hold for this size.
        std::vector<std::unique_ptr<Heap>> next;
        for (size_t i = 0; i < Heap::kRecycledStores; ++i)
            next.push_back(std::make_unique<Heap>(semi, timing, stats));
        for (const auto &h : next) {
            ASSERT_EQ(h->storeWords(), 2 * semi + 1 + 0x7ff);
            for (size_t a = 0; a < h->storeWords(); ++a)
                ASSERT_EQ(h->word(a), 0u) << "word " << a;
        }
    };

    {
        Heap h(semi, timing, stats);
        h.alloc(ObjKind::Cons, 0x104, { mval::mkInt(1), mval::mkInt(2) });
        h.flipBit(1, 3);
    }
    expectRecycledZero("allocation and flipBit");

    {
        Heap h(semi, timing, stats);
        flipThere(h);
    }
    expectRecycledZero("collections both ways");

    {
        // The scan meets a reference outside the heap after copying
        // both roots: to-space is written, and nothing flips.
        Heap h(semi, timing, stats);
        Word a = mval::mkRef(h.alloc(ObjKind::Cons, 0x104,
                                     { mval::mkInt(1), mval::mkInt(2) }));
        Word b = mval::mkRef(h.alloc(ObjKind::Cons, 0x104,
                                     { mval::mkRef(last + 100) }));
        h.collect([&](const Heap::RootVisitor &v) {
            v(a);
            v(b);
        });
        EXPECT_TRUE(h.corrupt());
        EXPECT_EQ(h.top(), 5u);
    }
    expectRecycledZero("aborted collection");

    {
        // A root at an address nothing wrote: evacuate copies the
        // zero header there and forwards it in place.
        Heap h(semi, timing, stats);
        Word root = mval::mkRef(last);
        collectWith(h, root);
        EXPECT_FALSE(h.corrupt());
    }
    expectRecycledZero("evacuate's forwarding word");

    {
        // An indirection chain ending at an address nothing wrote:
        // the links and the final object are forwarded.
        Heap h(semi, timing, stats);
        Word ind = h.alloc(ObjKind::Ind, 0, { mval::mkRef(last) });
        Word ind2 = h.alloc(ObjKind::Ind, 0, { mval::mkRef(ind) });
        Word root = mval::mkRef(ind2);
        collectWith(h, root);
        EXPECT_FALSE(h.corrupt());
    }
    expectRecycledZero("indirection chain");

    {
        // An indirection whose payload word was never written reads
        // as integer 0; forwarding it writes that word.
        Heap h(semi, timing, stats);
        h.setHeader(last - 1, mhdr::pack(ObjKind::Ind, 1, 0));
        Word root = mval::mkRef(last - 1);
        collectWith(h, root);
        EXPECT_FALSE(h.corrupt());
    }
    expectRecycledZero("indirection to an integer");

    {
        Heap h(semi, timing, stats);
        h.setHeader(last, mhdr::pack(ObjKind::Cons, 0x7ff, 0x104));
    }
    expectRecycledZero("setHeader at the last valid address");

    {
        Heap h(semi, timing, stats);
        h.setPayload(last, 0x7fe, mval::mkInt(5));
    }
    expectRecycledZero("setPayload into the slack");

    {
        // Three more periods of a loop that allocates a cell and
        // links an older object to it.
        Heap h(semi, timing, stats);
        Word old = h.alloc(ObjKind::Cons, 0x104, { mval::mkInt(0) });
        Word young = Word(h.top());
        Word cell = h.alloc(ObjKind::Cons, 0x104, { mval::mkRef(old) });
        h.setPayload(old, 0, mval::mkRef(cell));
        std::vector<Word> block = { h.word(cell), h.word(cell + 1) };
        std::vector<std::pair<Word, Word>> changed = {
            { old + 1, mval::mkRef(cell) }
        };
        h.replayPeriods(block, changed, young, 3);
        EXPECT_EQ(h.top(), size_t(young) + 4 * 2);
    }
    expectRecycledZero("replayPeriods");

    {
        // A fresh heap adopts a snapshot written across both spaces.
        Heap src(semi, timing, stats);
        flipThere(src);
        Heap::Snapshot snap;
        src.save(snap);
        EXPECT_GT(snap.words.size(), 2 * semi - 200);
        Heap dst(semi, timing, stats);
        dst.restore(snap);
        for (size_t a = 0; a < dst.storeWords(); ++a) {
            ASSERT_EQ(dst.word(a),
                      a < snap.words.size() ? snap.words[a] : 0u)
                << "word " << a;
        }
    }
    expectRecycledZero("restore into a fresh heap");

    {
        // A heap written into the slack adopts an earlier snapshot of
        // itself: everything past that snapshot's prefix reads zero.
        Heap h(semi, timing, stats);
        h.alloc(ObjKind::Cons, 0x104, { mval::mkInt(1) });
        Heap::Snapshot early;
        h.save(early);
        EXPECT_EQ(early.words.size(), 2u);
        h.setPayload(last, 0x7fe, mval::mkInt(5));
        flipThere(h);
        h.restore(early);
        for (size_t a = early.words.size(); a < h.storeWords(); ++a)
            ASSERT_EQ(h.word(a), 0u) << "word " << a;
    }
    expectRecycledZero("restore into a written heap");
}

} // namespace
} // namespace zarf
