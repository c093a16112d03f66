/**
 * @file
 * The word-addressed heap and semispace trace collector of the
 * λ-execution layer.
 *
 * Runtime values are single tagged words (paper, Sec. 3.2: "one bit
 * is attached to values at runtime"): bit 31 clear means a 31-bit
 * two's-complement integer; bit 31 set means a heap reference.
 *
 * Heap objects are a header word followed by payload words:
 *
 *   header  [31:28] object kind   [27:16] payload count
 *           [15:0]  function/constructor identifier
 *
 * Kinds: App (an application of a global identifier — a thunk when
 * saturated, a partial-application value otherwise), AppV (callee is
 * itself a value word, payload[0]), Cons (saturated constructor),
 * Ind (updated object; payload[0] is the value), Blackhole (under
 * evaluation), Fwd (GC forwarding pointer, payload[0] is the new
 * address; never visible outside a collection).
 *
 * Collection is a Cheney-style semispace copy. Costs follow Sec.
 * 5.2: N+4 cycles to copy an N-word object and 2 cycles to check a
 * reference that may already have been collected.
 *
 * Integrity: a structurally valid heap can never overflow to-space
 * (the live set is bounded by the from-space allocation) or contain
 * an indirection cycle. Both *can* happen once a single-event upset
 * has corrupted a header or payload word, so instead of aborting the
 * host, the heap detects these conditions — to-space overflow,
 * indirection cycles during evacuation, and runaway indirection
 * chains during chase() — and latches a sticky corruption flag with
 * a reason. The machine surfaces the flag as the recoverable
 * MachineStatus::HeapCorrupt so the system layer's watchdog can
 * restart the λ-layer (docs/RESILIENCE.md).
 *
 * Host hot paths (docs/PERF.md, "Campaign-scale execution"): the
 * heap tracks how far its store has ever been written, so a
 * destroyed heap zeroes only that prefix and hands the store to a
 * per-thread cache for the next same-size heap, and a snapshot
 * copies only that prefix; allocation and chase() are inlined
 * bump/short-circuit fast paths that fall out of line only on
 * overflow or an actual indirection; evacuation copies the common
 * non-indirection object without touching the chain scratch. None
 * of this changes a modelled cycle — the charge sequence is
 * byte-for-byte the seed's.
 */

#ifndef ZARF_MACHINE_HEAP_HH
#define ZARF_MACHINE_HEAP_HH

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "machine/stats.hh"
#include "machine/timing.hh"
#include "support/types.hh"

namespace zarf
{

/** Tagged machine value word helpers. */
namespace mval
{

constexpr Word kRefBit = 0x80000000u;

inline bool isRef(Word w) { return (w & kRefBit) != 0; }
inline bool isInt(Word w) { return (w & kRefBit) == 0; }

inline Word
mkInt(SWord v)
{
    return static_cast<Word>(v) & 0x7fffffffu;
}

inline SWord
intOf(Word w)
{
    Word payload = w & 0x7fffffffu;
    if (payload & 0x40000000u)
        payload |= 0x80000000u; // sign-extend bit 30
    return static_cast<SWord>(payload);
}

inline Word mkRef(Word addr) { return addr | kRefBit; }
inline Word refOf(Word w) { return w & 0x7fffffffu; }

/** `w` with a reference at or above address `young` moved up by
 *  `by` words; integers and older references unchanged (the λ
 *  core's idle-poll relocation, Heap::replayPeriods). */
inline Word
shifted(Word w, Word young, Word by)
{
    return isRef(w) && refOf(w) >= young ? w + by : w;
}

} // namespace mval

/** Heap object kinds. */
enum class ObjKind : Word
{
    App = 1,
    AppV = 2,
    Cons = 3,
    Ind = 4,
    Blackhole = 5,
    Fwd = 6,
};

/**
 * Header word helpers.
 *
 * Layout: [31:28] kind, [27] pad flag, [26:16] payload word count,
 * [15:0] function/constructor identifier. The pad flag marks App
 * objects whose payload was padded to at least one word so that an
 * in-place update to an indirection always fits; padded objects
 * carry count() payload words but count()-1 real arguments.
 */
namespace mhdr
{

inline Word
pack(ObjKind kind, Word count, Word fn, bool pad = false)
{
    return (static_cast<Word>(kind) << 28) |
           (static_cast<Word>(pad) << 27) | ((count & 0x7ffu) << 16) |
           (fn & 0xffffu);
}

inline ObjKind kindOf(Word h) { return static_cast<ObjKind>(h >> 28); }
inline bool padOf(Word h) { return ((h >> 27) & 1u) != 0; }
inline Word countOf(Word h) { return (h >> 16) & 0x7ffu; }
inline Word fnOf(Word h) { return h & 0xffffu; }

/** Real argument/field count (payload minus padding). */
inline Word
argsOf(Word h)
{
    return countOf(h) - (padOf(h) ? 1u : 0u);
}

} // namespace mhdr

/**
 * The semispace heap. Allocation bumps a pointer within the active
 * space; collection copies the live graph into the other space.
 */
class Heap
{
  public:
    /**
     * @param semispaceWords capacity of each semispace
     * @param timing cycle-cost model (GC costs)
     * @param stats machine statistics to account into
     */
    Heap(size_t semispaceWords, const TimingModel &timing,
         MachineStats &stats);
    /** Zeroes the written prefix and recycles the store. */
    ~Heap();
    Heap(const Heap &) = delete;
    Heap &operator=(const Heap &) = delete;

    /** Zeroed stores each thread keeps for its next heaps of the
     *  same size, the most recently released first: six machines are
     *  alive per oracle candidate, and a fresh calloc of a store
     *  glibc has served before is a memset of all of it. A store
     *  released on a thread that has built no heap, or whose cache
     *  has already been destroyed at thread exit, is freed. */
    static constexpr size_t kRecycledStores = 8;

    /**
     * Allocate an object. Returns the address of the header word,
     * or fails via the outOfMemory flag if even a collection cannot
     * make room (the caller must have registered roots first).
     *
     * @param kind object kind
     * @param fn function/constructor identifier
     * @param payload payload words
     * @param pad payload was padded by one word (see mhdr)
     */
    Word alloc(ObjKind kind, Word fn, const std::vector<Word> &payload,
               bool pad = false);

    /** Span overload: the hot path allocates straight from reused
     *  scratch buffers without materializing a payload vector. The
     *  bump fast path is inlined; only an exhausted space falls into
     *  the collect-hook slow path. */
    Word
    alloc(ObjKind kind, Word fn, const Word *payload, size_t n,
          bool pad = false)
    {
        size_t need = 1 + n;
        if (allocPtr + need > limit) [[unlikely]]
            return allocSlow(kind, fn, payload, n, pad);
        Word addr = static_cast<Word>(allocPtr);
        mem[allocPtr] = mhdr::pack(kind, static_cast<Word>(n), fn, pad);
        for (size_t i = 0; i < n; ++i)
            mem[allocPtr + 1 + i] = payload[i];
        allocPtr += need;
        ++stats.allocations;
        stats.allocatedWords += need;
        return addr;
    }

    /** Read the header of an object. */
    Word header(Word addr) const { return mem[addr]; }
    /** Read payload word i of an object. */
    Word payload(Word addr, Word i) const { return mem[addr + 1 + i]; }
    /** Overwrite the header (update/blackhole). */
    void
    setHeader(Word addr, Word h)
    {
        mem[addr] = h;
        noteWritten(size_t(addr) + 1);
    }
    /** Overwrite payload word i. */
    void
    setPayload(Word addr, Word i, Word v)
    {
        mem[addr + 1 + i] = v;
        noteWritten(size_t(addr) + 2 + i);
    }

    /** Follow indirections to a representative value word. Walks at
     *  most one chain link per live object; a longer walk (possible
     *  only on a corrupted heap: an Ind cycle) or a reference outside
     *  the heap latches the corruption flag and yields integer 0 so
     *  the machine can halt with HeapCorrupt instead of spinning.
     *  The common case — an integer, or a reference to a non-Ind
     *  object — is decided inline without entering the walk. */
    /** A header address is valid iff it lies inside the two
     *  semispaces (the trailing slack words are never object
     *  bases). */
    bool validAddr(Word addr) const { return addr < 2 * semiWords; }

    Word
    chase(Word value) const
    {
        if (mval::isInt(value))
            return value;
        Word addr = mval::refOf(value);
        if (validAddr(addr) &&
            mhdr::kindOf(mem[addr]) != ObjKind::Ind) [[likely]]
            return value;
        return chaseSlow(value);
    }

    /**
     * Run a collection. The root provider must call the supplied
     * callback on every root slot; the callback rewrites the slot
     * in place.
     */
    using RootVisitor = std::function<void(Word &slot)>;
    using RootProvider = std::function<void(const RootVisitor &)>;
    void collect(const RootProvider &roots);

    /** Set the hook invoked when alloc must collect. */
    void setCollectHook(RootProvider roots) { hook = std::move(roots); }

    /** Visit every object header in the active space. */
    template <typename F>
    void
    forEachObject(F &&f) const
    {
        size_t p = base;
        while (p < allocPtr) {
            Word h = mem[p];
            f(h);
            p += 1 + mhdr::countOf(h);
        }
    }

    /** The address the next allocation gets. */
    size_t top() const { return allocPtr; }
    /** Read any word of the store, object boundary or not. */
    Word word(size_t addr) const { return mem[addr]; }
    /** Words in the store: both semispaces and the slack. */
    size_t storeWords() const { return storeLen; }

    /**
     * Replay `k` more periods of a steady allocation pattern (the λ
     * core's idle-poll fast-forward, docs/PERF.md "Idle poll
     * loops"). `block` holds the Δ words the observed period
     * allocated, as they stood at its end, and `changed` the
     * (address, value) pairs it left in objects older than the
     * period. Period i (1..k) writes the block at top() + (i−1)Δ and
     * each changed word at address + iΔ, every reference at or above
     * `young` shifted by iΔ; a changed address below `young` is
     * written in place each period, so it ends holding its value
     * shifted by kΔ. The periods are written in order, as stepping
     * writes them. The allocation pointer moves by kΔ and nothing is
     * counted (the caller adds the period's statistics). The caller
     * guarantees that the k blocks fit below the limit and that every
     * changed address lies below top(), so each word written lies
     * below the new allocation pointer.
     */
    void replayPeriods(const std::vector<Word> &block,
                       const std::vector<std::pair<Word, Word>> &changed,
                       Word young, uint64_t k);

    /** Words currently allocated in the active space. */
    size_t usedWords() const { return allocPtr - base; }
    /** Words still free in the active space. */
    size_t freeWords() const { return limit - allocPtr; }
    /** Capacity of one semispace. */
    size_t capacity() const { return semiWords; }
    /** True once an allocation has failed irrecoverably. */
    bool outOfMemory() const { return oom; }
    /** True once heap corruption has been detected (GC to-space
     *  overflow, indirection cycle, out-of-range reference). Sticky;
     *  the heap contents are untrustworthy once set. */
    bool corrupt() const { return corruptFlag; }
    /** Human-readable reason for the latched corruption, or "". */
    const char *corruptWhy() const { return corruptWhyStr; }
    /** Flip one bit of an allocated word in the active space (SEU
     *  injection). `offset` is reduced modulo usedWords(); no-op on
     *  an empty heap. */
    void flipBit(size_t offset, unsigned bit);
    /** Cycles consumed by collections so far. */
    Cycles gcCycles() const { return stats.gcCycles; }

    /** Attribute GC cycle charges to FSM states in t (null to stop).
     *  The tally partitions stats.gcCycles exactly. */
    void setTally(FsmTally *t) { tally = t; }

    /**
     * A captured heap state (Machine::snapshot). The words vector
     * holds the backing store's written prefix — every word below
     * the highest one ever written, in both semispaces and the
     * slack — and the store is zero beyond it, so it equals a copy
     * of the entire store: after a restore, a fault campaign may
     * inject upsets whose corrupted references read the inactive
     * space or the slack region, and those reads must see exactly
     * what a never-restored run would have seen there.
     */
    struct Snapshot
    {
        size_t semiWords = 0;
        size_t base = 0;
        size_t allocPtr = 0;
        size_t limit = 0;
        bool oom = false;
        bool corruptFlag = false;
        const char *corruptWhyStr = "";
        std::vector<Word> words;
    };

    /** Capture the complete heap state into `out`. */
    void save(Snapshot &out) const;
    /** Restore a state captured by save(): copy its prefix and zero
     *  this heap's own written words beyond it. The snapshot must
     *  come from a heap of the same semispace size (fatal
     *  otherwise). */
    void restore(const Snapshot &s);

  private:
    /** Extend the written mark to cover words below `end`. */
    void
    noteWritten(size_t end)
    {
        writtenEnd = std::max(writtenEnd, end);
    }

    /** One past the highest word ever written: the allocation
     *  pointer covers the active space's bump writes between
     *  flips, and writtenEnd everything else. Every word from here
     *  to the end of the store is zero. */
    size_t written() const { return std::max(writtenEnd, allocPtr); }

    /** Out-of-line alloc tail: collect via the hook and retry, or
     *  latch outOfMemory. */
    Word allocSlow(ObjKind kind, Word fn, const Word *payload,
                   size_t n, bool pad);

    /** Out-of-line chase tail: the full guarded indirection walk. */
    Word chaseSlow(Word value) const;

    /** Copy one object into to-space; returns its new address. The
     *  inline body handles forwarding pointers and plain objects;
     *  indirections fall into evacuateInd. */
    Word evacuate(Word addr);

    /** Evacuate tail for indirection chains. `h` is the (already
     *  charged and validated) header of `addr`, known to be Ind. */
    Word evacuateInd(Word addr, Word h);

    /** Latch the corruption flag (first reason wins). Const because
     *  detection can happen on read paths (chase). */
    void
    markCorrupt(const char *why) const
    {
        if (!corruptFlag) {
            corruptFlag = true;
            corruptWhyStr = why;
        }
    }

    // The store, all zero when the heap is built: a recycled store of
    // the same size from this thread's cache, else a fresh calloc.
    size_t storeLen; // 2×semi + slack words
    Word *mem;
    size_t semiWords; // semispace size in words
    size_t base = 0;
    size_t allocPtr = 0;
    size_t limit = 0;
    // Written mark: the allocation pointer at every flip, to-space's
    // end, forwarding words and setHeader/setPayload targets (which
    // a corrupted heap can aim anywhere below 2×semi + slack).
    // Every word at or above written() is zero.
    size_t writtenEnd = 0;
    bool oom = false;
    mutable bool corruptFlag = false;
    mutable const char *corruptWhyStr = "";

    // GC working state.
    size_t toBase = 0;
    size_t toPtr = 0;
    std::vector<Word> indChain; // evacuateInd scratch: chain links

    RootProvider hook;
    const TimingModel &timing;
    MachineStats &stats;
    FsmTally *tally = nullptr;
};

} // namespace zarf

#endif // ZARF_MACHINE_HEAP_HH
