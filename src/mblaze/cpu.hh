/**
 * @file
 * Cycle-level model of the imperative core (3-stage in-order RISC).
 *
 * Timing: one cycle per instruction; taken branches, jumps, and
 * calls pay a two-cycle pipeline flush; multiply takes 3 cycles,
 * divide 34 (a serial divider, as on MicroBlaze); movi takes 2
 * (IMM-prefix style). Loads and stores hit single-cycle on-chip
 * BRAM. The core runs at 100 MHz next to the λ-layer's 50 MHz
 * (paper, Table 1).
 */

#ifndef ZARF_MBLAZE_CPU_HH
#define ZARF_MBLAZE_CPU_HH

#include <array>
#include <vector>

#include "mblaze/isa.hh"
#include "sem/io.hh"
#include "support/types.hh"

namespace zarf::obs
{
class Recorder;
enum class EventKind : uint8_t;
} // namespace zarf::obs

namespace zarf::mblaze
{

/** CPU timing parameters. */
struct MbTiming
{
    Cycles base = 1;
    Cycles takenBranchPenalty = 2;
    Cycles mulExtra = 2;  ///< mul = 3 total
    Cycles divExtra = 33; ///< div = 34 total
    Cycles moviExtra = 1; ///< movi = 2 total
    Cycles ioExtra = 1;
};

/** CPU run state. */
enum class MbStatus
{
    Running,
    Halted,
    Fault, ///< Bad memory access or pc out of range.
};

/**
 * Structured record of a fault. A bare MbStatus::Fault is useless to
 * the system layer's recovery logic; this carries the cause, the
 * faulting pc, and (for memory faults) the offending data address so
 * it can be reported over the diagnostic channel.
 */
struct MbFaultInfo
{
    enum class Cause
    {
        None = 0,
        PcOutOfRange = 1,
        LoadOutOfRange = 2,
        StoreOutOfRange = 3,
    };

    Cause cause = Cause::None;
    size_t pc = 0;     ///< pc of the faulting instruction.
    int64_t addr = 0;  ///< Faulting data address (load/store only).

    bool operator==(const MbFaultInfo &) const = default;
};

/**
 * The complete mutable state of an MbCpu (system snapshot/fork,
 * docs/PERF.md "Machine and system snapshot/fork"). MbCpu holds it
 * as a private base, so save() and restore() copy it whole. The
 * program, bus binding, timing, and trace attachment are
 * construction-time configuration, and the idle-loop skip's head is
 * host-side bookkeeping of one advance() call; none of them is part
 * of the captured state.
 */
struct MbState
{
    std::array<SWord, kNumRegs> regs{};
    std::vector<SWord> dmem;
    size_t pc = 0;
    MbStatus st = MbStatus::Running;
    MbFaultInfo fault{};
    Cycles total = 0;
    uint64_t retired = 0;

    bool operator==(const MbState &) const = default;
};

/** The imperative core. */
class MbCpu : private MbState
{
  public:
    /**
     * The CPU owns a copy of the program, so callers may pass
     * temporaries safely.
     *
     * @param program decoded program (pc 0 is the entry)
     * @param bus the I/O bus `in`/`out` talk to
     * @param memWords data memory size in words
     */
    MbCpu(MbProgram program, IoBus &bus,
          size_t memWords = 1u << 16, MbTiming timing = {});

    /**
     * Run until halt/fault or `budget` more cycles pass.
     *
     * Idle poll loops are fast-forwarded, exactly. Every taken
     * backward control transfer (a branch, `j`, `jal` or `jr` whose
     * target is at or before its own pc) lands on a loop head. If a
     * head has the previous head's pc and registers, and nothing in
     * between had an effect (an `sw`, an `out`, or an `in` the bus
     * did not report as IoBus::quietRead), the next iteration
     * repeats the last one: memory and bus are unchanged too. The
     * whole iterations left before the budget runs out are then
     * added to cycles() and instructionsRetired() at once, and the
     * remainder is stepped, so every slice ends in the state
     * stepping reaches. The head is forgotten at each entry, because
     * setMem(), restore() and the bus's other users act only between
     * calls. A recorder that wants obs::Cat::Mblaze turns skipping
     * off, so every MbIn/MbBranch event is emitted.
     */
    MbStatus advance(Cycles budget);

    /** Run to completion (bounded); returns final status. */
    MbStatus run(Cycles maxCycles = 1'000'000'000ull);

    Cycles cycles() const { return total; }
    uint64_t instructionsRetired() const { return retired; }
    MbStatus status() const { return st; }
    /** Cause/pc/address of the fault; Cause::None while healthy. */
    const MbFaultInfo &faultInfo() const { return fault; }
    /** Data memory size in words. */
    size_t memWords() const { return dmem.size(); }

    /** Register read (tests). */
    SWord reg(unsigned i) const { return regs[i]; }
    /** Register write (test setup). */
    void setReg(unsigned i, SWord v);
    /** Data-memory access (tests). */
    SWord mem(size_t wordIndex) const;
    void setMem(size_t wordIndex, SWord v);

    /**
     * Attach an event recorder (null detaches). Event timestamps are
     * tsBias + cycles()/tsDiv: the system layer passes the
     * mblaze-to-λ clock ratio and its epoch so both layers stamp one
     * shared timeline (docs/OBSERVABILITY.md).
     */
    void setTrace(obs::Recorder *r, Cycles tsDiv = 1,
                  Cycles tsBias = 0);

    /** Capture the complete mutable state into `out`. */
    void save(MbState &out) const { out = *this; }

    /** Adopt a state captured by save(). The receiver must run the
     *  same program over the same memory size for the result to be
     *  meaningful; data memory is sized by the snapshot. */
    void restore(const MbState &s) { static_cast<MbState &>(*this) = s; }

  private:
    void step();
    void emitMb(obs::EventKind k, int64_t a, int64_t b) const;

    MbProgram prog;
    IoBus &bus;
    MbTiming timing;

    /** step() sets this on an `sw`, an `out` or a non-quiet `in`;
     *  advance() clears it at each loop head. */
    bool effect = false;

    // Observability (setTrace).
    obs::Recorder *trace = nullptr;
    Cycles tsDiv = 1;
    Cycles tsBias = 0;
    bool traceOn = false;
};

} // namespace zarf::mblaze

#endif // ZARF_MBLAZE_CPU_HH
