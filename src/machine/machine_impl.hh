/**
 * @file
 * The private implementation of the λ-machine, shared between the
 * translation units that define its execution tiers.
 *
 * This header holds the word-walking reference path; threaded.cc
 * holds the µop core, one member function template of the same Impl
 * over the same architectural state that runs the µop tier (with the
 * cycle model) and the fast-functional tier (without it); machine.cc
 * holds the public wrappers and snapshots. This header is internal
 * to src/machine — nothing outside the library may include it but
 * white-box tests that read a snapshot's fields; the public surface
 * is machine/machine.hh.
 */

#ifndef ZARF_MACHINE_MACHINE_IMPL_HH
#define ZARF_MACHINE_MACHINE_IMPL_HH

#include "machine/machine.hh"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <optional>

#include "isa/encoding.hh"
#include "isa/prims.hh"
#include "machine/loaded_image.hh"
#include "machine/predecode.hh"
#include "machine/testhooks.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "verify/budget.hh"

namespace zarf
{

/**
 * The implementation carries the execution tiers selected by
 * MachineConfig::tier (see DispatchTier in machine/machine.hh):
 *
 *  - The µop core (the default Uop tier, also named Threaded): the
 *    direct-threaded core of machine/threaded.cc with the cycle
 *    model, walking the predecoded streams of machine/predecode.hh
 *    on a pooled hot path — a free-list continuation-frame stack,
 *    reused scratch buffers, span-based heap allocation, and an
 *    identifier-metadata table built once at load. It is a member
 *    function over this class's state, which is why the class lives
 *    in a shared internal header.
 *
 *  - The fast-functional tier: the same core without the cycle
 *    model.
 *
 *  - The reference tier: the original word-walking machine, kept
 *    deliberately untouched (per-step vector construction, linear
 *    primById lookups and all) so that differential tests compare
 *    the µop core against the unmodified seed semantics *and* so
 *    the throughput benchmark measures the real cost delta.
 *
 * Both cycle-accurate implementations share load(), the heap, the
 * timing model, and the cycle/statistics accounting, and are
 * bit-identical in results, cycle counts, and statistics on every
 * well-formed image.
 */
class Machine::Impl
{
  public:
    friend class zarf::MachineSnapshot;

    static const std::shared_ptr<const LoadedImage> &
    requireLi(const std::shared_ptr<const LoadedImage> &p)
    {
        if (!p)
            fatal("machine: null LoadedImage");
        return p;
    }

    Impl(std::shared_ptr<const LoadedImage> loaded, IoBus &bus,
         MachineConfig config)
        : li(std::move(loaded)), image(requireLi(li)->image), bus(bus),
          cfg(config),
          heap(config.semispaceWords, this->cfg.timing, machineStats),
          funcs(li->funcs), pre(li->pre), idInfo(li->idInfo)
    {
        if (cfg.semispaceWords < 2 * kGcSafeMargin) {
            fatal("semispace of %zu words is below the minimum %zu",
                  cfg.semispaceWords, 2 * kGcSafeMargin);
        }
        if (tierUsesPredecode(cfg.tier) && !li->hasPredecode) {
            fatal("machine: predecode execution requested but the "
                  "LoadedImage was built without predecode support");
        }
        // Resolve the observability hooks once: the hot path tests
        // one cached bool per category instead of consulting the
        // recorder's mask per event.
        trace = cfg.trace;
        tbias = cfg.traceBias;
        traceLife = trace && trace->wants(obs::Cat::MachineLife);
        traceExec = trace && trace->wants(obs::Cat::MachineExec);
        traceGc = trace && trace->wants(obs::Cat::MachineGc);
        tallyOn = cfg.fsmTally;
        if (tallyOn)
            heap.setTally(&tally);
        load();
        if (status != MachineStatus::Stuck)
            boot();
    }

    MachineStatus
    advance(Cycles budget)
    {
        if (cfg.budget)
            return advanceBudgeted(budget);
        advanceTo(total + budget);
        return status;
    }

    /** The per-tier advance loops, shared by the budgeted and
     *  unbudgeted paths. Every tier stops at the first step boundary
     *  with total >= target, so targets are tier-invariant cut
     *  points for the cycle-accurate tiers. */
    void
    advanceTo(Cycles target)
    {
        switch (cfg.tier) {
          case DispatchTier::WordWalk:
            while (status == MachineStatus::Running && total < target) {
                if (exporting && mode == Mode::Deliver &&
                    contsV.empty()) {
                    status = MachineStatus::Done; // see forceForExport
                    break;
                }
                stepOnceRef();
            }
            break;
          case DispatchTier::Uop:
          case DispatchTier::Threaded:
            advanceThreaded<true>(target);
            break;
          case DispatchTier::FastFunctional:
            advanceThreaded<false>(target);
            break;
        }
    }

    /** Budget-enforcement chunk: between chunks the budget token is
     *  consulted, so a cancel or host-time blowout is observed
     *  within this many λ cycles of simulated progress. Small enough
     *  for sub-millisecond host reaction, large enough that the
     *  check (one clock read) vanishes in the noise. */
    static constexpr Cycles kBudgetCheckCycles = 65536;

    /**
     * Budgeted advance (MachineConfig::budget): run the normal tier
     * loop in bounded chunks and consult the token at the chunk
     * boundaries — step boundaries every tier reaches identically.
     * The λ-cycle limit additionally clamps the chunk target, so a
     * cycle trip latches at the first step boundary at/after the
     * limit on every cycle-accurate tier — the same cycle, the same
     * machine state, whatever the tier or the caller's advance()
     * slicing.
     */
    MachineStatus
    advanceBudgeted(Cycles budget)
    {
        verify::Budget &bud = *cfg.budget;
        Cycles target = total + budget;
        while (status == MachineStatus::Running && total < target) {
            verify::BudgetTrip t = bud.check(
                total, heap.usedWords() * sizeof(Word));
            if (t != verify::BudgetTrip::None) {
                tripBudget(t);
                break;
            }
            Cycles chunkEnd =
                std::min(target, total + kBudgetCheckCycles);
            Cycles limit = bud.spec().maxLambdaCycles;
            if (limit > total && limit < chunkEnd)
                chunkEnd = limit;
            advanceTo(chunkEnd);
        }
        // A budget armed mid-run may already be tripped on entry, or
        // the loop may have ended exactly on the cycle limit: latch
        // before reporting so the caller never spins.
        if (status == MachineStatus::Running) {
            verify::BudgetTrip t = bud.check(
                total, heap.usedWords() * sizeof(Word));
            if (t != verify::BudgetTrip::None)
                tripBudget(t);
        }
        return status;
    }

    /** Latch a budget trip (once, like the failure statuses). The
     *  machine state is a consistent step boundary: snapshots taken
     *  here restore, and stats()/cycles() stay coherent. */
    void
    tripBudget(verify::BudgetTrip t)
    {
        if (status != MachineStatus::Running)
            return;
        noteStatus(MachineStatus::BudgetExceeded);
        if (traceLife)
            emitT(obs::EventKind::BudgetTrip,
                  static_cast<int64_t>(t),
                  static_cast<int64_t>(total));
        status = MachineStatus::BudgetExceeded;
        if (diagnostic.empty())
            diagnostic = std::string("budget exceeded: ") +
                         verify::budgetTripName(t);
    }

    Machine::Outcome
    run(Cycles maxCycles)
    {
        advance(maxCycles);
        if (status != MachineStatus::Done)
            return { status, nullptr, diagnostic };
        ValuePtr v = exportValue(vreg, 0);
        if (!v)
            return { status == MachineStatus::Done
                         ? MachineStatus::Stuck
                         : status,
                     nullptr, diagnostic };
        return { MachineStatus::Done, std::move(v), "" };
    }

    Cycles cyclesTotal() const { return total; }

    const MachineStats &
    stats() const
    {
        syncStats();
        return machineStats;
    }

    size_t heapUsed() const { return heap.usedWords(); }
    const Heap &heapRef() const { return heap; }

    const FsmTally &tallyRef() const { return tally; }

    void
    exportMetricsImpl(obs::Metrics &m, const std::string &prefix) const
    {
        syncStats();
        exportStats(machineStats, m, prefix);
        m.setCounter(prefix + "cycles", total);
        m.setCounter(prefix + "status",
                     static_cast<uint64_t>(status));
        m.setGauge(prefix + "heap.used-words",
                   static_cast<int64_t>(heap.usedWords()));
        m.setGauge(prefix + "heap.free-words",
                   static_cast<int64_t>(heap.freeWords()));
        m.setGauge(prefix + "heap.capacity-words",
                   static_cast<int64_t>(heap.capacity()));
        if (tallyOn)
            exportTally(tally, m, prefix + "fsm");
    }

    void
    collectNow()
    {
        heap.collect(rootProvider());
    }

    std::vector<Machine::CensusEntry>
    census()
    {
        heap.collect(rootProvider());
        std::map<std::pair<Word, Word>, std::pair<size_t, size_t>> m;
        heap.forEachObject([&](Word h) {
            auto &e = m[{ Word(mhdr::kindOf(h)), mhdr::fnOf(h) }];
            e.first += 1;
            e.second += 1 + mhdr::countOf(h);
        });
        std::vector<Machine::CensusEntry> out;
        for (const auto &[k, v] : m) {
            out.push_back({ ObjKind(k.first), k.second, v.first,
                            v.second });
        }
        std::sort(out.begin(), out.end(),
                  [](const auto &a, const auto &b) {
                      return a.words > b.words;
                  });
        return out;
    }

    // Defined after MachineSnapshot below.
    std::shared_ptr<const MachineSnapshot> makeSnapshot() const;
    void restoreFrom(const MachineSnapshot &s);

  private:
    // ------------------------------------------------------------
    // Cycle accounting (shared)
    // ------------------------------------------------------------

    enum class InstrClass { None, Let, Case, Result };

    void
    chargeRaw(Cycles n)
    {
        total += n;
        machineStats.execCycles += n;
        switch (curClass) {
          case InstrClass::Let:
            machineStats.let.cycles += n;
            break;
          case InstrClass::Case:
            machineStats.caseInstr.cycles += n;
            break;
          case InstrClass::Result:
            machineStats.result.cycles += n;
            break;
          case InstrClass::None:
            break;
        }
    }

    /** Charge one visit of control state s costing n cycles. Every
     *  execution charge names its state so the FSM tally partitions
     *  the cycle ledger exactly (tested by the obs property suite). */
    void
    charge(Cycles n, MState s)
    {
        if (tallyOn)
            tally.add(s, n);
        chargeRaw(n);
    }

    /** Charge `visits` visits of s costing n cycles in total (per-
     *  word loops accounted in one step). */
    void
    chargeN(MState s, uint64_t visits, Cycles n)
    {
        if (tallyOn)
            tally.addN(s, visits, n);
        chargeRaw(n);
    }

    // ------------------------------------------------------------
    // Observability (docs/OBSERVABILITY.md). All hooks are gated on
    // bools cached at construction; with no recorder configured the
    // cost is one predicted branch per site.
    // ------------------------------------------------------------

    /** Stamp an event with the machine clock (plus the system
     *  layer's epoch bias). Callers guard on traceLife/Exec/Gc. */
    void
    emitT(obs::EventKind k, int64_t a = 0, int64_t b = 0)
    {
        trace->emit(k, tbias + total, a, b);
    }

    /** Record a status transition about to happen (MachDone for
     *  Done, MachFail with the status code otherwise). No-op unless
     *  currently Running, so latched conditions emit once. The Done
     *  that ends each deep-force of an export is no transition: the
     *  machine was already Done, so it emits nothing. */
    void
    noteStatus(MachineStatus st)
    {
        if (!traceLife || status != MachineStatus::Running ||
            (exporting && st == MachineStatus::Done))
            return;
        emitT(st == MachineStatus::Done ? obs::EventKind::MachDone
                                        : obs::EventKind::MachFail,
              static_cast<int64_t>(st));
    }

    /** Collect with begin/end trace events: GcBegin carries the live
     *  words before, GcEnd the live words after and the pause cost.
     *  GC runs off the mutator clock (see Machine::cycles()), so the
     *  end timestamp extends begin by the pause. */
    void
    runGc(const Heap::RootProvider &roots)
    {
        if (traceGc)
            emitT(obs::EventKind::GcBegin,
                  static_cast<int64_t>(heap.usedWords()));
        Cycles before = machineStats.gcCycles;
        heap.collect(roots);
        lastGcAt = total;
        if (traceGc) {
            Cycles pause = machineStats.gcCycles - before;
            trace->emit(obs::EventKind::GcEnd, tbias + total + pause,
                        static_cast<int64_t>(heap.usedWords()),
                        static_cast<int64_t>(pause));
        }
    }

    // ------------------------------------------------------------
    // Loading (the 4 load states, shared)
    // ------------------------------------------------------------

    void
    fail(std::string why)
    {
        noteStatus(MachineStatus::Stuck);
        status = MachineStatus::Stuck;
        if (diagnostic.empty())
            diagnostic = std::move(why);
    }

    void
    load()
    {
        // LoadMagic / LoadCount / LoadInfo / LoadBody: one cycle per
        // word streamed in. The tally books the stream against
        // LoadBody (the dominant state; the header states are a
        // handful of its words).
        machineStats.loadCycles = image.size() * cfg.timing.loadWord;
        total += machineStats.loadCycles;
        if (tallyOn)
            tally.addN(MState::LoadBody, image.size(),
                       machineStats.loadCycles);
        if (traceLife)
            emitT(obs::EventKind::MachLoad,
                  static_cast<int64_t>(image.size()),
                  static_cast<int64_t>(machineStats.loadCycles));

        // Structural validation happened once, in LoadedImage::load;
        // re-surface its verdict with the identical diagnostics a
        // direct parse produced before the artifact existed.
        if (!li->headerOk) {
            fail(li->headerError);
            return;
        }
        entry = li->entry;

        if (tierUsesPredecode(cfg.tier)) {
            callCounts.assign(funcs.size(), 0);
            if (!pre.ok) {
                fail("predecode: " + pre.error);
                return;
            }
        }
    }

    void
    boot()
    {
        // Allocate the entry thunk and start forcing it.
        Word root = allocAppRef(kFirstUserFuncId + entry, {});
        vreg = mval::mkRef(root);
        mode = Mode::EvalVal;
        status = MachineStatus::Running;
        if (traceLife)
            emitT(obs::EventKind::MachBoot,
                  static_cast<int64_t>(entry));
    }

    // ------------------------------------------------------------
    // Machine structure (mirrors the hardware's stacks; shared)
    // ------------------------------------------------------------

    struct Activation
    {
        Word funcId = 0;
        std::vector<Word> args;
        std::vector<Word> locals;
        size_t pc = 0;
    };

    struct Frame
    {
        enum class Kind { Update, Case, PrimArgs, Apply };

        Kind kind = Kind::Update;
        Word target = 0; ///< Update: object address to overwrite.
        Activation act;  ///< Case resumption.
        Prim prim{};
        std::vector<Word> primArgs;
        std::vector<SWord> collected;
        size_t nextArg = 0;
        std::vector<Word> extra; ///< Apply leftovers.

        /** Reset for reuse (µop path). clear() keeps vector
         *  capacity, so a recycled frame allocates nothing on the
         *  steady state. */
        void
        reset(Kind k)
        {
            kind = k;
            target = 0;
            act.funcId = 0;
            act.pc = 0;
            act.args.clear();
            act.locals.clear();
            primArgs.clear();
            collected.clear();
            nextArg = 0;
            extra.clear();
        }
    };

    /**
     * The continuation stack as a free-list pool (µop path only):
     * popping leaves the frame's storage in place for the next push
     * to recycle, so the per-step construct/destroy of a Frame's
     * vectors — a dominant host cost of the reference machine —
     * disappears. Slots at or above size() hold stale data and are
     * never visited by the GC root walk.
     */
    class FrameStack
    {
      public:
        Frame &
        push(Frame::Kind k)
        {
            if (n == store.size())
                store.emplace_back();
            Frame &f = store[n++];
            f.reset(k);
            return f;
        }

        Frame &top() { return store[n - 1]; }
        void
        pop()
        {
            if (--n < low)
                low = n;
        }
        bool empty() const { return n == 0; }
        size_t size() const { return n; }
        Frame &operator[](size_t i) { return store[i]; }

        /** The low-water mark of the µop core's idle-poll skip: the
         *  fewest frames held since resetLow(). The frames below it
         *  were neither popped nor rewritten since; of them, only
         *  the kind of the one just below can have been read, and a
         *  live frame's kind never changes. */
        size_t lowWater() const { return low; }
        void resetLow() { low = n; }
        /** The top frame is rewritten in place (a primitive collects
         *  an operand and stays), which counts as a pop. */
        void
        touchTop()
        {
            if (n - 1 < low)
                low = n - 1;
        }

        /** Copy the live frames (snapshot); stale pool slots above
         *  size() are not part of the machine state. */
        void
        copyTo(std::vector<Frame> &out) const
        {
            out.assign(store.begin(),
                       store.begin() +
                           static_cast<std::ptrdiff_t>(n));
        }

        /** Adopt a frame vector captured by copyTo (restore). */
        void
        assignFrom(const std::vector<Frame> &in)
        {
            store.assign(in.begin(), in.end());
            n = in.size();
        }

      private:
        std::vector<Frame> store;
        size_t n = 0;
        size_t low = 0;
    };

    enum class Mode { EvalVal, Exec, Deliver };

    /**
     * GC safe-point margin. Collection only happens between machine
     * steps, when every live reference is reachable from the
     * registers, frames, and activation (never from C++ temporaries)
     * — so each step must be guaranteed to fit its allocations in
     * this margin. The largest single allocation is one header plus
     * kMaxArity+1 payload words; a step performs at most two.
     */
    static constexpr size_t kGcSafeMargin = 4096;

    /**
     * Distinguished word returned by operand resolution after a
     * fail(): a reference to an address no configuration can reach,
     * never the valid tagged integer 0 a malformed image could
     * silently alias. Every resolve site checks the machine status
     * before the word can be consumed; the poisonGuard asserts it.
     */
    static constexpr Word kPoisonOperand =
        mval::kRefBit | 0x7fffffffu;

    void
    poisonGuard(Word v) const
    {
        assert(v != kPoisonOperand &&
               "poisoned operand consumed after fail()");
        (void)v;
    }

    void
    blackhole(Word addr, Word h)
    {
        heap.setHeader(addr, mhdr::pack(ObjKind::Blackhole,
                                        mhdr::countOf(h),
                                        mhdr::fnOf(h), mhdr::padOf(h)));
    }

    /** Step-top health gate: latch HeapCorrupt/OutOfMemory into the
     *  machine status. Corruption wins — an aborted collection can
     *  leave both conditions set, and the corruption is the cause. */
    bool
    heapHealthy()
    {
        if (heap.corrupt()) {
            noteStatus(MachineStatus::HeapCorrupt);
            status = MachineStatus::HeapCorrupt;
            if (diagnostic.empty())
                diagnostic = heap.corruptWhy();
            return false;
        }
        if (heap.outOfMemory()) {
            noteStatus(MachineStatus::OutOfMemory);
            status = MachineStatus::OutOfMemory;
            return false;
        }
        return true;
    }

  public:
    // ------------------------------------------------------------
    // Fault injection (see machine.hh)
    // ------------------------------------------------------------

    bool
    injectHeapBitFlip(size_t wordIndex, unsigned bit)
    {
        if (heap.usedWords() == 0)
            return false;
        heap.flipBit(wordIndex, bit);
        return true;
    }

    void
    injectOperandBitFlip(unsigned bit)
    {
        vreg ^= Word(1) << (bit & 31u);
    }

    void
    raiseMemFault(const std::string &why)
    {
        if (status != MachineStatus::Running)
            return;
        noteStatus(MachineStatus::MemFault);
        status = MachineStatus::MemFault;
        diagnostic = why;
    }

    MachineStatus currentStatus() const { return status; }
    const std::string &currentDiagnostic() const { return diagnostic; }

  private:

    // ============================================================
    // The µop core (machine/threaded.cc): direct-threaded dispatch
    // over the predecoded µop streams on the pooled hot path. With
    // the cycle model it runs the Uop tier (Threaded names the same
    // core); without it, the FastFunctional tier, the same steps on
    // a step clock.
    // ============================================================

    template <bool kCycleModel> void advanceThreaded(Cycles target);

    // ------------------------------------------------------------
    // Idle-poll fast-forward of the µop core (threaded.cc,
    // docs/PERF.md "Idle poll loops")
    // ------------------------------------------------------------

    /** Give up arming past this many reachable objects, object
     *  words, or register and frame value words. */
    static constexpr size_t kPollMaxObjects = 32;
    static constexpr size_t kPollMaxWords = 1024;

    /** The MachineStats counters a step can move. The GC fields move
     *  only in a collection, loadCycles only at load, and the µop
     *  path keeps callsPerFunc in callCounts. */
    template <typename F>
    static void
    forEachStepCounter(MachineStats &s, F &&f)
    {
        for (ClassStats *c : { &s.let, &s.caseInstr, &s.result }) {
            f(c->count);
            f(c->cycles);
        }
        for (uint64_t *p :
             { &s.branchHeads, &s.letArgs, &s.allocations,
               &s.allocatedWords, &s.forces, &s.whnfHits, &s.updates,
               &s.errorsCreated, &s.execCycles })
            f(*p);
    }

    /**
     * The state an iteration between two loop heads can read: the
     * activation, the value register, and every word of the frames
     * from `floor` up. raw(w) receives the words compared exactly
     * (identifiers, pcs, sizes, kinds, collected operands); val(w)
     * the value words, as a reference it may relocate (an Update
     * frame's target goes through as a reference too).
     */
    template <typename Raw, typename Val>
    void
    forEachPollWord(size_t floor, Raw &&raw, Val &&val)
    {
        auto activation = [&](Activation &a) {
            raw(a.funcId);
            raw(static_cast<Word>(a.pc));
            raw(static_cast<Word>(a.args.size()));
            raw(static_cast<Word>(a.locals.size()));
            for (Word &w : a.args)
                val(w);
            for (Word &w : a.locals)
                val(w);
        };
        activation(act);
        val(vreg);
        for (size_t i = floor; i < conts.size(); ++i) {
            Frame &f = conts[i];
            raw(static_cast<Word>(f.kind));
            switch (f.kind) {
              case Frame::Kind::Update: {
                Word r = mval::mkRef(f.target);
                val(r);
                f.target = mval::refOf(r);
                break;
              }
              case Frame::Kind::Case:
                activation(f.act);
                break;
              case Frame::Kind::PrimArgs:
                raw(static_cast<Word>(f.prim));
                raw(static_cast<Word>(f.nextArg));
                raw(static_cast<Word>(f.primArgs.size()));
                raw(static_cast<Word>(f.collected.size()));
                for (SWord c : f.collected)
                    raw(static_cast<Word>(c));
                for (Word &w : f.primArgs)
                    val(w);
                break;
              case Frame::Kind::Apply:
                raw(static_cast<Word>(f.extra.size()));
                for (Word &w : f.extra)
                    val(w);
                break;
            }
        }
    }

    void pollHead(Cycles target, size_t prevTop, Cycles gcInt);
    void pollArm(size_t prevTop);
    uint64_t pollPeriods(Cycles target, Cycles gcInt);
    void pollReplay(uint64_t k);

    // ------------------------------------------------------------
    // Identifier metadata (resolved once, in the LoadedImage)
    // ------------------------------------------------------------

    Word
    arityOf(Word id) const
    {
        return id < idInfo.size() ? idInfo[id].arity : 0;
    }

    bool
    isConsId(Word id) const
    {
        return id < idInfo.size() && idInfo[id].isCons;
    }

    /** Is this object, as it stands, a WHNF value? */
    bool
    objIsWhnfU(Word h) const
    {
        ObjKind k = mhdr::kindOf(h);
        if (k == ObjKind::Cons)
            return true;
        if (k != ObjKind::App)
            return false;
        return mhdr::argsOf(h) < arityOf(mhdr::fnOf(h));
    }

    Heap::RootProvider
    rootProviderU()
    {
        return [this](const Heap::RootVisitor &visit) {
            visit(vreg);
            for (Word &w : exportPending)
                visit(w);
            for (Word &w : act.args)
                visit(w);
            for (Word &w : act.locals)
                visit(w);
            for (size_t i = 0; i < conts.size(); ++i) {
                Frame &f = conts[i];
                switch (f.kind) {
                  case Frame::Kind::Update: {
                    Word slot = mval::mkRef(f.target);
                    visit(slot);
                    f.target = mval::refOf(slot);
                    break;
                  }
                  case Frame::Kind::Case:
                    for (Word &w : f.act.args)
                        visit(w);
                    for (Word &w : f.act.locals)
                        visit(w);
                    break;
                  case Frame::Kind::PrimArgs:
                    for (size_t j = f.nextArg; j < f.primArgs.size();
                         ++j) {
                        visit(f.primArgs[j]);
                    }
                    break;
                  case Frame::Kind::Apply:
                    for (Word &w : f.extra)
                        visit(w);
                    break;
                }
            }
        };
    }

    // ============================================================
    // Reference path: the original word-walking machine, unchanged
    // except for the poisoned-operand fix in resolveOperand. Do not
    // optimize this code — it is the baseline the differential
    // suite and the throughput benchmark compare against.
    // ============================================================

    Word
    allocAppRef(Word fn, std::vector<Word> args)
    {
        bool pad = args.empty();
        if (pad)
            args.push_back(0);
        charge(cfg.timing.allocHeader, MState::ApAllocHeader);
        chargeN(MState::ApWriteArg, args.size(),
                args.size() * cfg.timing.letPerArg);
        return heap.alloc(ObjKind::App, fn, args, pad);
    }

    Word
    allocAppVRef(Word callee, std::vector<Word> args)
    {
        args.insert(args.begin(), callee);
        charge(cfg.timing.allocHeader, MState::ApAllocHeader);
        chargeN(MState::ApWriteArg, args.size(),
                args.size() * cfg.timing.letPerArg);
        return heap.alloc(ObjKind::AppV, 0, args);
    }

    Word
    allocConsRef(Word id, std::vector<Word> fields)
    {
        bool pad = fields.empty();
        if (pad)
            fields.push_back(0);
        charge(cfg.timing.allocHeader, MState::ApAllocHeader);
        chargeN(MState::ApWriteArg, fields.size(),
                fields.size() * cfg.timing.letPerArg);
        return heap.alloc(ObjKind::Cons, id, fields, pad);
    }

    Word
    allocErrorRef(SWord code)
    {
        ++machineStats.errorsCreated;
        return allocConsRef(static_cast<Word>(Prim::Error),
                            { mval::mkInt(code) });
    }

    unsigned
    arityOfRef(Word id) const
    {
        if (isPrimId(id)) {
            auto p = primById(id);
            return p ? p->arity : 0;
        }
        size_t idx = id - kFirstUserFuncId;
        return idx < funcs.size() ? funcs[idx].arity : 0;
    }

    bool
    isConsIdRef(Word id) const
    {
        if (isPrimId(id)) {
            auto p = primById(id);
            return p && p->isConstructor;
        }
        size_t idx = id - kFirstUserFuncId;
        return idx < funcs.size() && funcs[idx].isCons;
    }

    bool
    idExistsRef(Word id) const
    {
        if (isPrimId(id))
            return primById(id).has_value();
        return id - kFirstUserFuncId < funcs.size();
    }

    void
    stepOnceRef()
    {
        if (!heapHealthy())
            return;
        if (cfg.gcOnExhaustion && heap.freeWords() < kGcSafeMargin) {
            runGc(rootProviderRef());
            if (!heapHealthy())
                return;
            if (heap.freeWords() < kGcSafeMargin) {
                noteStatus(MachineStatus::OutOfMemory);
                status = MachineStatus::OutOfMemory;
                diagnostic = "live set exceeds semispace capacity";
                return;
            }
        }
        if (cfg.gcIntervalCycles &&
            total - lastGcAt >= cfg.gcIntervalCycles) {
            runGc(rootProviderRef());
            if (!heapHealthy())
                return;
        }
        switch (mode) {
          case Mode::EvalVal:
            stepEvalRef();
            break;
          case Mode::Exec:
            stepExecRef();
            break;
          case Mode::Deliver:
            if (contsV.empty()) {
                noteStatus(MachineStatus::Done);
                status = MachineStatus::Done;
                return;
            }
            stepDeliverRef();
            break;
        }
    }

    bool
    objIsWhnfRef(Word h) const
    {
        ObjKind k = mhdr::kindOf(h);
        if (k == ObjKind::Cons)
            return true;
        if (k != ObjKind::App)
            return false;
        return mhdr::argsOf(h) < arityOfRef(mhdr::fnOf(h));
    }

    void
    stepEvalRef()
    {
        vreg = heap.chase(vreg);
        if (mval::isInt(vreg)) {
            mode = Mode::Deliver;
            return;
        }
        Word addr = mval::refOf(vreg);
        Word h = heap.header(addr);
        charge(cfg.timing.whnfCheck,
               MState::EvWhnfHit); // EvWhnfHit / EvDispatch
        ObjKind kind = mhdr::kindOf(h);
        if (kind == ObjKind::Blackhole) {
            fail("re-entered a thunk under evaluation");
            return;
        }
        if (objIsWhnfRef(h)) {
            ++machineStats.whnfHits;
            mode = Mode::Deliver;
            return;
        }

        while (!contsV.empty() &&
               contsV.back().kind == Frame::Kind::Update) {
            Word prev = contsV.back().target;
            Word ph = heap.header(prev);
            heap.setHeader(prev, mhdr::pack(ObjKind::Ind,
                                            mhdr::countOf(ph), 0,
                                            mhdr::padOf(ph)));
            heap.setPayload(prev, 0, vreg);
            contsV.pop_back();
            charge(cfg.timing.collapseUpdate, MState::EvCollapseUpd);
            ++machineStats.updates;
        }
        {
            Frame f;
            f.kind = Frame::Kind::Update;
            f.target = addr;
            contsV.push_back(std::move(f));
        }
        charge(cfg.timing.enterThunk, MState::EvEnterThunk);
        ++machineStats.forces;

        Word count = mhdr::argsOf(h);
        Word fn = mhdr::fnOf(h);
        if (traceExec)
            emitT(obs::EventKind::EvalEnter,
                  static_cast<int64_t>(fn),
                  static_cast<int64_t>(count));

        if (kind == ObjKind::AppV) {
            Word callee = heap.payload(addr, 0);
            Frame f;
            f.kind = Frame::Kind::Apply;
            for (Word i = 1; i < mhdr::countOf(h); ++i)
                f.extra.push_back(heap.payload(addr, i));
            blackhole(addr, h);
            contsV.push_back(std::move(f));
            vreg = callee;
            return;
        }

        std::vector<Word> args;
        args.reserve(count);
        for (Word i = 0; i < count; ++i)
            args.push_back(heap.payload(addr, i));
        blackhole(addr, h);

        unsigned arity = arityOfRef(fn);
        if (isConsIdRef(fn)) {
            vreg = mval::mkRef(allocErrorRef(kErrArity));
            return;
        }
        if (args.size() > arity) {
            Frame f;
            f.kind = Frame::Kind::Apply;
            f.extra.assign(args.begin() + arity, args.end());
            args.resize(arity);
            contsV.push_back(std::move(f));
            charge(cfg.timing.applyExtra, MState::EvApplyExtra);
        }
        if (isPrimId(fn)) {
            beginPrimRef(static_cast<Prim>(fn), std::move(args));
            return;
        }

        const PredecodedFunc &fe = funcs[fn - kFirstUserFuncId];
        charge(cfg.timing.callSetup, MState::EvCallSetup);
        ++machineStats.callsPerFunc[fn];
        act = Activation{};
        act.funcId = fn;
        act.args = std::move(args);
        act.pc = fe.bodyBegin;
        mode = Mode::Exec;
    }

    void
    beginPrimRef(Prim p, std::vector<Word> args)
    {
        curClass = InstrClass::Let;
        charge(cfg.timing.primSetup, MState::EvPrimSetup);
        Frame f;
        f.kind = Frame::Kind::PrimArgs;
        f.prim = p;
        f.primArgs = std::move(args);
        f.nextArg = 0;
        if (f.primArgs.empty()) {
            fail("zero-arity primitive application");
            return;
        }
        Word first = f.primArgs[0];
        contsV.push_back(std::move(f));
        vreg = first;
        mode = Mode::EvalVal;
    }

    /** Reserved 2-bit source/kind encodings (value 3) are invalid. */
    static bool
    srcFieldValid(Word w)
    {
        return ((w >> 26) & 0x3u) != 3u;
    }

    Word
    resolveOperand(const Operand &op)
    {
        switch (op.src) {
          case Src::Imm:
            return mval::mkInt(op.val);
          case Src::Arg:
            if (size_t(op.val) >= act.args.size()) {
                if (testhooks::poisonedOperandDefect)
                    return mval::mkInt(0); // seeded PR-1 defect
                fail("argument index out of range");
                return kPoisonOperand;
            }
            return act.args[size_t(op.val)];
          case Src::Local:
            if (size_t(op.val) >= act.locals.size()) {
                if (testhooks::poisonedOperandDefect)
                    return mval::mkInt(0); // seeded PR-1 defect
                fail("local index out of range");
                return kPoisonOperand;
            }
            return act.locals[size_t(op.val)];
        }
        return kPoisonOperand;
    }

    void
    stepExecRef()
    {
        if (act.pc >= image.size()) {
            fail("program counter ran off the image");
            return;
        }
        Word w = image[act.pc];
        if ((opOf(w) == Op::Let || opOf(w) == Op::Case ||
             opOf(w) == Op::Result) &&
            !srcFieldValid(w)) {
            fail("reserved source/kind field in instruction word");
            return;
        }
        switch (opOf(w)) {
          case Op::Let:
            curClass = InstrClass::Let;
            ++machineStats.let.count;
            charge(cfg.timing.letBase, MState::ApFetchLet);
            if (traceExec)
                emitT(obs::EventKind::ExecLet,
                      static_cast<int64_t>(act.funcId),
                      static_cast<int64_t>(unpackLet(w).nargs));
            execLetRef(w);
            return;
          case Op::Case: {
            curClass = InstrClass::Case;
            ++machineStats.caseInstr.count;
            charge(cfg.timing.caseBase, MState::EvFetchCase);
            if (traceExec)
                emitT(obs::EventKind::ExecCase,
                      static_cast<int64_t>(act.funcId));
            Word scrut = resolveOperand(unpackCaseScrut(w));
            if (status != MachineStatus::Running)
                return;
            poisonGuard(scrut);
            Frame f;
            f.kind = Frame::Kind::Case;
            f.act = act;
            vreg = scrut;
            contsV.push_back(std::move(f));
            mode = Mode::EvalVal;
            return;
          }
          case Op::Result: {
            curClass = InstrClass::Result;
            ++machineStats.result.count;
            charge(cfg.timing.resultBase, MState::EvFetchResult);
            if (traceExec)
                emitT(obs::EventKind::ExecResult,
                      static_cast<int64_t>(act.funcId));
            Word v = resolveOperand(unpackResult(w));
            if (status != MachineStatus::Running)
                return;
            poisonGuard(v);
            vreg = v;
            mode = Mode::EvalVal;
            return;
          }
          default:
            fail(strprintf("unexpected opcode at word %zu", act.pc));
            return;
        }
    }

    void
    execLetRef(Word head)
    {
        LetWord lw = unpackLet(head);
        if (act.pc + 1 + lw.nargs > image.size()) {
            fail("let argument list overruns the image");
            return;
        }
        std::vector<Word> args;
        args.reserve(lw.nargs);
        for (Word i = 0; i < lw.nargs; ++i) {
            Word aw = image[act.pc + 1 + i];
            if (opOf(aw) != Op::Arg || !srcFieldValid(aw)) {
                fail("malformed let argument word");
                return;
            }
            charge(cfg.timing.letPerArg, MState::ApFetchArg);
            Word v = resolveOperand(unpackOperand(aw));
            if (status != MachineStatus::Running)
                return;
            poisonGuard(v);
            args.push_back(v);
        }
        machineStats.letArgs += lw.nargs;

        Word bound = 0;
        if (lw.kind == CalleeKind::Func) {
            Word fn = lw.id;
            if (!idExistsRef(fn)) {
                fail("let names an unknown function identifier");
                return;
            }
            if (isConsIdRef(fn) && args.size() == arityOfRef(fn)) {
                bound = mval::mkRef(allocConsRef(fn, std::move(args)));
            } else if (isConsIdRef(fn) &&
                       args.size() > arityOfRef(fn)) {
                bound = mval::mkRef(allocErrorRef(kErrArity));
            } else {
                bound = mval::mkRef(allocAppRef(fn, std::move(args)));
            }
        } else {
            Word callee =
                lw.kind == CalleeKind::Local
                    ? (lw.id < act.locals.size()
                           ? act.locals[lw.id]
                           : (fail("callee local out of range"), 0u))
                    : (lw.id < act.args.size()
                           ? act.args[lw.id]
                           : (fail("callee arg out of range"), 0u));
            if (status != MachineStatus::Running)
                return;
            if (args.empty()) {
                charge(cfg.timing.collapseUpdate,
                       MState::ApAliasLocal);
                bound = callee;
            } else {
                Word c = heap.chase(callee);
                if (mval::isInt(c)) {
                    bound = mval::mkRef(allocErrorRef(kErrBadApply));
                } else {
                    Word h = heap.header(mval::refOf(c));
                    ObjKind k = mhdr::kindOf(h);
                    if (k == ObjKind::App && objIsWhnfRef(h)) {
                        // ApCopyPartial + ApExtendArgs.
                        Word fn = mhdr::fnOf(h);
                        Word have = mhdr::argsOf(h);
                        std::vector<Word> all;
                        all.reserve(have + args.size());
                        for (Word i = 0; i < have; ++i) {
                            all.push_back(
                                heap.payload(mval::refOf(c), i));
                        }
                        chargeN(MState::ApCopyPartial, have,
                                have * cfg.timing.copyPartialPerWord);
                        all.insert(all.end(), args.begin(),
                                   args.end());
                        if (isConsIdRef(fn) &&
                            all.size() == arityOfRef(fn)) {
                            bound = mval::mkRef(
                                allocConsRef(fn, std::move(all)));
                        } else if (isConsIdRef(fn) &&
                                   all.size() > arityOfRef(fn)) {
                            bound =
                                mval::mkRef(allocErrorRef(kErrArity));
                        } else {
                            bound = mval::mkRef(
                                allocAppRef(fn, std::move(all)));
                        }
                    } else if (k == ObjKind::Cons) {
                        bound = mhdr::fnOf(h) ==
                                        static_cast<Word>(Prim::Error)
                                    ? c
                                    : mval::mkRef(
                                          allocErrorRef(kErrArity));
                    } else {
                        // Callee is an unevaluated thunk: defer.
                        bound = mval::mkRef(
                            allocAppVRef(callee, std::move(args)));
                    }
                }
            }
        }
        act.locals.push_back(bound);
        act.pc += 1 + lw.nargs;
    }

    void
    stepDeliverRef()
    {
        Frame f = std::move(contsV.back());
        contsV.pop_back();
        switch (f.kind) {
          case Frame::Kind::Update: {
            Word h = heap.header(f.target);
            heap.setHeader(f.target,
                           mhdr::pack(ObjKind::Ind, mhdr::countOf(h),
                                      0, mhdr::padOf(h)));
            heap.setPayload(f.target, 0, vreg);
            charge(cfg.timing.update, MState::EvUpdate);
            ++machineStats.updates;
            return; // stay in Deliver
          }
          case Frame::Kind::Case:
            act = std::move(f.act);
            charge(cfg.timing.returnToCase, MState::EvReturn);
            resumeCaseRef();
            return;
          case Frame::Kind::PrimArgs:
            resumePrimRef(std::move(f));
            return;
          case Frame::Kind::Apply:
            resumeApplyRef(std::move(f));
            return;
        }
    }

    void
    resumeCaseRef()
    {
        curClass = InstrClass::Case;
        Word v = heap.chase(vreg);
        bool isInt = mval::isInt(v);
        Word h = 0;
        if (!isInt)
            h = heap.header(mval::refOf(v));

        // Walk the pattern words; 1 cycle per branch head.
        size_t pc = act.pc + 1;
        for (;;) {
            if (pc >= image.size()) {
                fail("case ran off the image");
                return;
            }
            Word pw = image[pc];
            Op op = opOf(pw);
            if (op == Op::PatElse) {
                act.pc = pc + 1;
                mode = Mode::Exec;
                return;
            }
            if (op != Op::PatLit && op != Op::PatCons) {
                fail("malformed case pattern word");
                return;
            }
            charge(cfg.timing.branchHead, MState::EvBranchHead);
            ++machineStats.branchHeads;
            PatWord pat = unpackPat(pw);
            bool match;
            if (pat.isCons) {
                match = !isInt &&
                        mhdr::kindOf(h) == ObjKind::Cons &&
                        mhdr::fnOf(h) == pat.consId;
            } else {
                match = isInt && mval::intOf(v) == pat.lit;
            }
            if (match) {
                if (pat.isCons) {
                    Word addr = mval::refOf(v);
                    Word n = mhdr::argsOf(h);
                    for (Word i = 0; i < n; ++i) {
                        act.locals.push_back(heap.payload(addr, i));
                        charge(cfg.timing.fieldPush,
                               MState::EvFieldPush);
                    }
                }
                act.pc = pc + 1;
                mode = Mode::Exec;
                return;
            }
            pc += 1 + pat.skip;
        }
    }

    void
    resumePrimRef(Frame f)
    {
        curClass = InstrClass::Let;
        Word v = heap.chase(vreg);
        Prim p = f.prim;
        charge(cfg.timing.primPerArg, MState::EvPrimArg);

        if (mval::isRef(v)) {
            Word h = heap.header(mval::refOf(v));
            if (mhdr::kindOf(h) == ObjKind::Cons &&
                mhdr::fnOf(h) == static_cast<Word>(Prim::Error)) {
                vreg = v;
                mode = Mode::Deliver;
                return;
            }
            SWord code = (p == Prim::GetInt || p == Prim::PutInt)
                             ? kErrIoNotInt
                             : kErrBadApply;
            vreg = mval::mkRef(allocErrorRef(code));
            mode = Mode::Deliver;
            return;
        }

        f.collected.push_back(mval::intOf(v));
        f.nextArg++;
        if (f.nextArg < f.primArgs.size()) {
            Word next = f.primArgs[f.nextArg];
            contsV.push_back(std::move(f));
            vreg = next;
            mode = Mode::EvalVal;
            return;
        }

        if (traceExec)
            emitT(obs::EventKind::PrimOp, static_cast<int64_t>(p),
                  static_cast<int64_t>(f.collected.size()));
        switch (p) {
          case Prim::GetInt:
            charge(cfg.timing.ioOp, MState::EvIoOp);
            vreg = mval::mkInt(wrapInt31(bus.getInt(f.collected[0])));
            break;
          case Prim::PutInt:
            charge(cfg.timing.ioOp, MState::EvIoOp);
            bus.putInt(f.collected[0], f.collected[1]);
            vreg = mval::mkInt(f.collected[1]);
            break;
          case Prim::InvokeGc:
            // The hardware GC-invocation function: collect now.
            runGc(rootProviderRef());
            vreg = mval::mkInt(f.collected[0]);
            break;
          default: {
            charge(cfg.timing.aluOp, MState::EvAluOp);
            PrimResult r = evalAlu(p, f.collected);
            vreg = r.ok ? mval::mkInt(r.value)
                        : mval::mkRef(allocErrorRef(r.errCode));
            break;
          }
        }
        mode = Mode::Deliver;
    }

    void
    resumeApplyRef(Frame f)
    {
        curClass = InstrClass::Let;
        charge(cfg.timing.applyExtra, MState::EvApplyExtra);
        Word v = heap.chase(vreg);
        if (mval::isInt(v)) {
            vreg = mval::mkRef(allocErrorRef(kErrBadApply));
            mode = Mode::Deliver;
            return;
        }
        Word addr = mval::refOf(v);
        Word h = heap.header(addr);
        if (mhdr::kindOf(h) == ObjKind::Cons) {
            vreg = mhdr::fnOf(h) == static_cast<Word>(Prim::Error)
                       ? v
                       : mval::mkRef(allocErrorRef(kErrArity));
            mode = Mode::Deliver;
            return;
        }
        // Partial application: extend and re-evaluate.
        Word fn = mhdr::fnOf(h);
        Word have = mhdr::argsOf(h);
        std::vector<Word> all;
        all.reserve(have + f.extra.size());
        for (Word i = 0; i < have; ++i)
            all.push_back(heap.payload(addr, i));
        chargeN(MState::ApCopyPartial, have,
                have * cfg.timing.copyPartialPerWord);
        all.insert(all.end(), f.extra.begin(), f.extra.end());
        if (isConsIdRef(fn) && all.size() == arityOfRef(fn))
            vreg = mval::mkRef(allocConsRef(fn, std::move(all)));
        else if (isConsIdRef(fn) && all.size() > arityOfRef(fn))
            vreg = mval::mkRef(allocErrorRef(kErrArity));
        else
            vreg = mval::mkRef(allocAppRef(fn, std::move(all)));
        mode = Mode::EvalVal;
    }

    Heap::RootProvider
    rootProviderRef()
    {
        return [this](const Heap::RootVisitor &visit) {
            visit(vreg);
            for (Word &w : exportPending)
                visit(w);
            for (Word &w : act.args)
                visit(w);
            for (Word &w : act.locals)
                visit(w);
            for (Frame &f : contsV) {
                switch (f.kind) {
                  case Frame::Kind::Update: {
                    Word slot = mval::mkRef(f.target);
                    visit(slot);
                    f.target = mval::refOf(slot);
                    break;
                  }
                  case Frame::Kind::Case:
                    for (Word &w : f.act.args)
                        visit(w);
                    for (Word &w : f.act.locals)
                        visit(w);
                    break;
                  case Frame::Kind::PrimArgs:
                    for (size_t i = f.nextArg; i < f.primArgs.size();
                         ++i) {
                        visit(f.primArgs[i]);
                    }
                    break;
                  case Frame::Kind::Apply:
                    for (Word &w : f.extra)
                        visit(w);
                    break;
                }
            }
        };
    }

    // ------------------------------------------------------------
    // Shared: GC roots dispatch, export, stats folding
    // ------------------------------------------------------------

    Heap::RootProvider
    rootProvider()
    {
        return tierUsesPredecode(cfg.tier) ? rootProviderU()
                                           : rootProviderRef();
    }

    ValuePtr
    exportValue(Word v, unsigned depth)
    {
        if (depth > 512) {
            fail("deep-force recursion limit");
            return nullptr;
        }
        // Force to WHNF using the machinery (EvDeepForce).
        if (!forceForExport(v))
            return nullptr;
        v = heap.chase(vreg);
        if (mval::isInt(v))
            return Value::makeInt(mval::intOf(v));
        Word addr = mval::refOf(v);
        Word h = heap.header(addr);
        Word n = mhdr::argsOf(h);
        Word fn = mhdr::fnOf(h);
        bool cons = mhdr::kindOf(h) == ObjKind::Cons;
        // The fields still to force are GC roots, pushed last field
        // first: a collection during one field's force moves the
        // later ones, and each is popped from where it lives now.
        size_t base = exportPending.size();
        for (Word i = n; i-- > 0;)
            exportPending.push_back(heap.payload(addr, i));
        std::vector<ValuePtr> items;
        items.reserve(n);
        while (exportPending.size() > base) {
            Word w = exportPending.back();
            exportPending.pop_back();
            ValuePtr f = exportValue(w, depth + 1);
            if (!f) {
                exportPending.resize(base);
                return nullptr;
            }
            items.push_back(std::move(f));
        }
        return cons ? Value::makeCons(fn, std::move(items))
                    : Value::makeClosure(fn, std::move(items));
    }

    /** Run the machine until `v` is WHNF; leaves it in vreg. Export
     *  starts only after Done, with the frame stack empty, so the
     *  tier's own Done (delivery with no frame left) is the stop,
     *  on the tier's own clock and with no cycle limit. The stop
     *  comes before that boundary's step preamble: a collection or
     *  health latch falling due there is left to the next field's
     *  first step, and the Done emits no MachDone (noteStatus). */
    bool
    forceForExport(Word v)
    {
        vreg = v;
        mode = Mode::EvalVal;
        status = MachineStatus::Running;
        exporting = true;
        advanceTo(std::numeric_limits<Cycles>::max());
        exporting = false;
        return status == MachineStatus::Done;
    }

    /** Fold the µop path's flat per-function activation counters
     *  into the stats map (kept flat on the hot path, folded on
     *  demand; the reference path writes the map directly). */
    void
    syncStats() const
    {
        ++statsFolds;
        for (size_t i = 0; i < callCounts.size(); ++i) {
            if (callCounts[i]) {
                machineStats.callsPerFunc[Word(kFirstUserFuncId + i)] +=
                    callCounts[i];
                callCounts[i] = 0;
            }
        }
    }

    // The shared load artifact; every per-image pure derivation
    // (header parse, identifier metadata, µop streams) lives there
    // and is referenced, not copied, here. Declared first: the
    // reference members below alias into it.
    std::shared_ptr<const LoadedImage> li;
    const Image &image;
    IoBus &bus;
    MachineConfig cfg;
    mutable MachineStats machineStats;
    Heap heap;

    const std::vector<PredecodedFunc> &funcs;
    Word entry = 0;

    // µop path state.
    const Predecoded &pre;
    const std::vector<LoadedImage::IdInfo> &idInfo;
    mutable std::vector<uint64_t> callCounts;
    FrameStack conts;

    // Reference path state.
    std::vector<Frame> contsV;

    // Shared machine registers.
    Activation act;
    Word vreg = 0;
    Mode mode = Mode::EvalVal;
    InstrClass curClass = InstrClass::None;
    MachineStatus status = MachineStatus::Running;
    std::string diagnostic;
    Cycles total = 0;
    Cycles lastGcAt = 0;
    /** Inside forceForExport (see noteStatus and advanceTo). */
    bool exporting = false;
    /** Constructor fields exportValue has yet to force (GC roots in
     *  both root providers; empty outside an export). */
    std::vector<Word> exportPending;

    /**
     * The µop core's idle-poll skip (threaded.cc): the armed loop
     * head, the inputs of the iteration it began, and scratch for
     * checking and replaying that iteration. Host-side only: no part
     * of the machine state or of a snapshot, disarmed at every
     * advance entry, and empty until a poll loop first arms it.
     */
    struct PollSkip
    {
        bool armed = false;
        size_t floor = 0; ///< Frames below it are no input.
        Word young = 0;   ///< τ moves references at or above it.
        size_t top = 0;   ///< Heap top at the armed head.
        Cycles total = 0; ///< Clock at the armed head.
        uint64_t gcRuns = 0;
        uint64_t folds = 0;
        std::vector<Word> raw, vals; ///< forEachPollWord's words.
        std::vector<Word> objAddr;   ///< The reachable objects...
        std::vector<Word> objWords;  ///< ...and their words, in turn.
        std::vector<uint64_t> counters; ///< forEachStepCounter's.
        std::vector<uint64_t> calls;    ///< callCounts at the head.
        std::vector<uint64_t> tallyAt; ///< Visits, then cycles.
        // Scratch of the check and the replay.
        std::vector<Word> raw2, vals2, block;
        std::vector<std::pair<Word, Word>> changed;
    } poll;
    /** Folds of callCounts into the stats map (syncStats): a fold
     *  between two loop heads voids the period's call deltas. */
    mutable uint64_t statsFolds = 0;

    // Observability (cached from cfg at construction; see charge()).
    obs::Recorder *trace = nullptr;
    Cycles tbias = 0;
    bool traceLife = false;
    bool traceExec = false;
    bool traceGc = false;
    bool tallyOn = false;
    FsmTally tally;

    // Reused scratch buffers (µop path; capacity persists across
    // steps; never GC roots — every word they hold is dead or also
    // rooted by the time a collection can run).
    std::vector<Word> evalScratch;
    std::vector<Word> letScratch;
    std::vector<Word> applyScratch;
    std::vector<Word> appvScratch;
};

/**
 * The complete architectural state of a machine at a step boundary:
 * everything a cold run accumulated that subsequent execution can
 * observe. Immutable once built, so one snapshot fans out to any
 * number of forked machines concurrently (docs/PERF.md,
 * "Campaign-scale execution"). Scratch buffers and cached trace
 * plumbing are deliberately absent — they carry no machine state.
 */
class MachineSnapshot
{
  public:
    std::shared_ptr<const LoadedImage> li;
    size_t semispaceWords = 0;
    DispatchTier tier = DispatchTier::Uop;
    Heap::Snapshot heap;
    MachineStats stats;
    FsmTally tally;
    std::vector<Machine::Impl::Frame> frames;    ///< µop conts
    std::vector<Machine::Impl::Frame> framesRef; ///< reference conts
    Machine::Impl::Activation act;
    Word vreg = 0;
    Machine::Impl::Mode mode = Machine::Impl::Mode::EvalVal;
    Machine::Impl::InstrClass curClass =
        Machine::Impl::InstrClass::None;
    MachineStatus status = MachineStatus::Running;
    std::string diagnostic;
    Cycles total = 0;
    Cycles lastGcAt = 0;
};

} // namespace zarf

#endif // ZARF_MACHINE_MACHINE_IMPL_HH
