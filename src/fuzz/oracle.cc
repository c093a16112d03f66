#include "fuzz/oracle.hh"

#include <cinttypes>
#include <cstdio>

#include "ir/eval.hh"
#include "ir/lift.hh"
#include "isa/validate.hh"
#include "machine/loaded_image.hh"
#include "sem/bigstep.hh"
#include "sem/smallstep.hh"
#include "verify/budget.hh"

namespace zarf::fuzz
{

namespace
{

std::string
fmt(const char *what, uint64_t a, uint64_t b)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s: %" PRIu64 " vs %" PRIu64,
                  what, a, b);
    return buf;
}

bool
valuesEqual(const ValuePtr &a, const ValuePtr &b)
{
    if (bool(a) != bool(b))
        return false;
    return !a || Value::equal(*a, *b);
}

std::string
valueStr(const ValuePtr &v)
{
    return v ? v->toString() : "<none>";
}

bool
exprUsesIo(const Expr &e)
{
    if (e.isLet()) {
        const Let &l = e.asLet();
        if (l.callee.kind == CalleeKind::Func &&
            (l.callee.id == static_cast<Word>(Prim::GetInt) ||
             l.callee.id == static_cast<Word>(Prim::PutInt)))
            return true;
        return exprUsesIo(*l.body);
    }
    if (e.isCase()) {
        const Case &c = e.asCase();
        for (const auto &br : c.branches) {
            if (exprUsesIo(*br.body))
                return true;
        }
        return exprUsesIo(*c.elseBody);
    }
    return false;
}

} // namespace

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Agree:
        return "Agree";
      case Verdict::Rejected:
        return "Rejected";
      case Verdict::Skip:
        return "Skip";
      case Verdict::Divergence:
        return "Divergence";
    }
    return "?";
}

bool
usesIo(const Program &program)
{
    for (const auto &d : program.decls) {
        if (d.body && exprUsesIo(*d.body))
            return true;
    }
    return false;
}

std::string
diffStats(const MachineStats &a, const MachineStats &b)
{
#define ZARF_STAT(field)                                              \
    if (a.field != b.field)                                           \
        return fmt(#field, uint64_t(a.field), uint64_t(b.field));
    ZARF_STAT(let.count)
    ZARF_STAT(let.cycles)
    ZARF_STAT(caseInstr.count)
    ZARF_STAT(caseInstr.cycles)
    ZARF_STAT(result.count)
    ZARF_STAT(result.cycles)
    ZARF_STAT(branchHeads)
    ZARF_STAT(letArgs)
    ZARF_STAT(allocations)
    ZARF_STAT(allocatedWords)
    ZARF_STAT(forces)
    ZARF_STAT(whnfHits)
    ZARF_STAT(updates)
    ZARF_STAT(errorsCreated)
    ZARF_STAT(loadCycles)
    ZARF_STAT(execCycles)
    ZARF_STAT(gcRuns)
    ZARF_STAT(gcCycles)
    ZARF_STAT(gcObjectsCopied)
    ZARF_STAT(gcWordsCopied)
    ZARF_STAT(gcRefChecks)
    ZARF_STAT(gcMaxLiveWords)
    ZARF_STAT(gcMaxPauseCycles)
#undef ZARF_STAT
    if (a.callsPerFunc != b.callsPerFunc)
        return "callsPerFunc profiles differ";
    // A field the list above does not name still counts.
    if (!(a == b))
        return "unlisted fields differ";
    return "";
}

OracleResult
runOracle(const Image &image, const OracleConfig &cfg)
{
    OracleResult r;

    // µop-core machine: the instrumented run coverage comes from.
    obs::Recorder uopTrace(
        { 1u << 14, static_cast<uint32_t>(obs::Cat::MachineExec) |
                        static_cast<uint32_t>(obs::Cat::MachineGc) });
    RecordBus uopBus;
    MachineConfig mc;
    mc.semispaceWords = cfg.semispaceWords;
    mc.tier = DispatchTier::Uop;
    mc.trace = &uopTrace;
    mc.fsmTally = true;
    // Every machine below inherits the budget token via the copied
    // config, so a cancel reels in whichever evaluator is running.
    mc.budget = cfg.budget;
    // One load artifact serves every µop-core machine and the IR
    // lift; the word-walking reference loads the raw image itself.
    std::shared_ptr<const LoadedImage> li = LoadedImage::load(image);
    Machine uop(li, uopBus, mc);
    Machine::Outcome uopOut = uop.run(cfg.maxCycles);
    r.uopStatus = uopOut.status;
    r.uopDiagnostic = uopOut.diagnostic;
    r.uopCycles = uop.cycles();
    r.uopValue = uopOut.value;
    r.uopIo = uopBus.ops;
    r.coverage = collectCoverage(uop.fsmTally(), uopTrace,
                                 uop.stats(), uopOut.status,
                                 uopOut.value);

    // Word-walking machine, identically configured but untraced.
    RecordBus refBus;
    MachineConfig rc = mc;
    rc.tier = DispatchTier::WordWalk;
    rc.trace = nullptr;
    Machine ref(image, refBus, rc);
    Machine::Outcome refOut = ref.run(cfg.maxCycles);

    // The threaded leg re-runs the µop core untraced (Threaded names
    // the same core), so it checks that tracing does not change a
    // run. It and the fast-functional tier run even on images the
    // oracle later classifies Rejected: like the two machines above,
    // the assertion there is "no crash, no UB" under the sanitizer
    // presets. Their comparisons happen after the rejection gates.
    RecordBus thrBus;
    MachineConfig tc = mc;
    tc.tier = DispatchTier::Threaded;
    tc.trace = nullptr;
    Machine thr(li, thrBus, tc);
    Machine::Outcome thrOut{ MachineStatus::Running, nullptr, "" };
    if (cfg.compareThreaded)
        thrOut = thr.run(cfg.maxCycles);

    RecordBus fastBus;
    MachineConfig fc = mc;
    fc.tier = DispatchTier::FastFunctional;
    fc.trace = nullptr;
    fc.fsmTally = false;
    Machine fast(li, fastBus, fc);
    Machine::Outcome fastOut{ MachineStatus::Running, nullptr, "" };
    if (cfg.compareFast)
        fastOut = fast.run(cfg.maxCycles);

    // Budget trip anywhere above => Skip before any comparison: a
    // latched token stops the *other* machines at cycle 0, and a
    // host-time trip lands at a tier-dependent point, so none of the
    // bit-exact claims apply to these runs.
    if (cfg.budget &&
        cfg.budget->tripped() != verify::BudgetTrip::None) {
        r.verdict = Verdict::Skip;
        r.detail = std::string("budget: ") +
                   verify::budgetTripName(cfg.budget->tripped());
        return r;
    }

    DecodeResult dec = decodeProgram(image);
    r.decodeOk = dec.ok;
    if (!dec.ok) {
        // Both machines already took their bounded runs above; the
        // assertion for undecodable images is only "no crash".
        r.verdict = Verdict::Rejected;
        r.detail = "decode: " + dec.error;
        return r;
    }

    if (uopOut.status == MachineStatus::Stuck &&
        uopOut.diagnostic.rfind("predecode:", 0) == 0) {
        // Load-time vs run-time strictness (equivalence map).
        r.verdict = Verdict::Rejected;
        r.detail = uopOut.diagnostic;
        return r;
    }

    // The word-walking reference and the untraced re-run vs the µop
    // run: bit-exact on everything observable (status, diagnostic,
    // total cycles, value, the full statistics block, the I/O log).
    auto machineDiffVs = [&](Machine &m, const Machine::Outcome &out,
                             RecordBus &bus) -> std::string {
        if (uopOut.status != out.status)
            return std::string("machine status: ") +
                   machineStatusName(uopOut.status) + " vs " +
                   machineStatusName(out.status);
        if (uopOut.diagnostic != out.diagnostic)
            return "machine diagnostic: \"" + uopOut.diagnostic +
                   "\" vs \"" + out.diagnostic + "\"";
        if (uop.cycles() != m.cycles())
            return fmt("machine cycles", uop.cycles(), m.cycles());
        if (!valuesEqual(uopOut.value, out.value))
            return "machine value: " + valueStr(uopOut.value) +
                   " vs " + valueStr(out.value);
        std::string sd = diffStats(uop.stats(), m.stats());
        if (!sd.empty())
            return "machine stats " + sd;
        if (!(uopBus.ops == bus.ops))
            return "machine io logs differ";
        return "";
    };
    if (std::string d = machineDiffVs(ref, refOut, refBus);
        !d.empty()) {
        r.verdict = Verdict::Divergence;
        r.detail = "uop-vs-ref " + d;
        return r;
    }
    if (cfg.compareThreaded) {
        if (std::string d = machineDiffVs(thr, thrOut, thrBus);
            !d.empty()) {
            r.verdict = Verdict::Divergence;
            r.detail = "uop-vs-threaded " + d;
            return r;
        }
    }

    // Fast-functional tier: outcome equality only — status,
    // diagnostic, value, and the I/O log — and only when both runs
    // terminated. The fast tier has no cycle clock, so the resource
    // bounds (cycle budget, out-of-memory under a different GC
    // cadence) legitimately fire at different points; those runs
    // compare nothing, like the Skip arm of the reference engines.
    if (cfg.compareFast) {
        auto terminal = [](MachineStatus st) {
            return st == MachineStatus::Done ||
                   st == MachineStatus::Stuck;
        };
        if (terminal(uopOut.status) && terminal(fastOut.status)) {
            r.fastCompared = true;
            auto fastDiff = [&]() -> std::string {
                if (uopOut.status != fastOut.status)
                    return std::string("status: ") +
                           machineStatusName(uopOut.status) + " vs " +
                           machineStatusName(fastOut.status);
                if (uopOut.diagnostic != fastOut.diagnostic)
                    return "diagnostic: \"" + uopOut.diagnostic +
                           "\" vs \"" + fastOut.diagnostic + "\"";
                if (!valuesEqual(uopOut.value, fastOut.value))
                    return "value: " + valueStr(uopOut.value) +
                           " vs " + valueStr(fastOut.value);
                if (!(uopBus.ops == fastBus.ops))
                    return "io logs differ";
                return "";
            };
            if (std::string d = fastDiff(); !d.empty()) {
                r.verdict = Verdict::Divergence;
                r.detail = "uop-vs-fast " + d;
                return r;
            }
        }
    }

    // Fault-injection-only statuses must never latch spontaneously.
    if (uopOut.status == MachineStatus::HeapCorrupt ||
        uopOut.status == MachineStatus::MemFault) {
        r.verdict = Verdict::Divergence;
        r.detail = std::string("machine latched ") +
                   machineStatusName(uopOut.status) +
                   " without fault injection: " + uopOut.diagnostic;
        return r;
    }

    // Machine resource bounds decide Skip whatever the small-step
    // reference returns, so check them before running it.
    if (uopOut.status == MachineStatus::Running) {
        r.verdict = Verdict::Skip;
        r.detail = "machine cycle budget exhausted";
        return r;
    }
    if (uopOut.status == MachineStatus::OutOfMemory) {
        r.verdict = Verdict::Skip;
        r.detail = "machine out of memory";
        return r;
    }

    // The lazy reference semantics.
    RecordBus semBus;
    SmallStep sem(dec.program, semBus, { cfg.semSteps });
    RunResult semOut = sem.runMain();
    if (semOut.status == RunResult::Status::OutOfFuel) {
        r.verdict = Verdict::Skip;
        r.detail = "small-step fuel exhausted";
        return r;
    }

    if (uopOut.status == MachineStatus::Done &&
        semOut.status == RunResult::Status::Done) {
        if (!valuesEqual(uopOut.value, semOut.value)) {
            r.verdict = Verdict::Divergence;
            r.detail = "machine-vs-smallstep value: " +
                       valueStr(uopOut.value) + " vs " +
                       valueStr(semOut.value);
            return r;
        }
        if (!(uopBus.ops == semBus.ops)) {
            r.verdict = Verdict::Divergence;
            r.detail = "machine-vs-smallstep io logs differ";
            return r;
        }
    } else if (uopOut.status == MachineStatus::Stuck &&
               semOut.status == RunResult::Status::Stuck) {
        // Agreement; diagnostic texts are implementation-specific.
    } else {
        r.verdict = Verdict::Divergence;
        r.detail = std::string("machine-vs-smallstep status: ") +
                   machineStatusName(uopOut.status) + " (\"" +
                   uopOut.diagnostic + "\") vs " +
                   (semOut.status == RunResult::Status::Done
                        ? "Done"
                        : "Stuck") +
                   " (\"" + semOut.where + "\")";
        return r;
    }

    // The lifted-IR reference evaluator — the fifth evaluator
    // family. The µop run terminated (Done or Stuck) inside its
    // bounds at this point, so lifting must succeed and the IR
    // evaluation must match it bit-exactly: outcome class, value,
    // I/O log, and the full λ-cycle ledger including load and the
    // deep-force export. The machine's final cycle count doubles as
    // the evaluator's hard stop: a correct lift ends at exactly that
    // total, so the bound never fires except on a lifting bug.
    if (cfg.compareIr) {
        ir::LiftResult lift = ir::liftLoaded(*li, dec.program);
        if (!lift.ok) {
            r.verdict = Verdict::Divergence;
            r.detail =
                "uop-vs-ir lift rejected a machine-accepted image: " +
                lift.error;
            return r;
        }
        RecordBus irBus;
        ir::EvalConfig ic;
        ic.maxCycles = cfg.maxCycles;
        ic.hardStopCycles = r.uopCycles;
        ir::Outcome irOut = ir::evalModule(lift.module, irBus, ic);
        r.irCompared = true;
        auto irDiff = [&]() -> std::string {
            bool wantDone = uopOut.status == MachineStatus::Done;
            bool isDone = irOut.status == ir::Outcome::Status::Done;
            bool isStuck =
                irOut.status == ir::Outcome::Status::Stuck;
            if (wantDone != isDone || (!wantDone && !isStuck))
                return std::string("status: ") +
                       machineStatusName(uopOut.status) + " vs " +
                       ir::outcomeStatusName(irOut.status) + " (\"" +
                       irOut.diagnostic + "\")";
            if (irOut.cycles != r.uopCycles)
                return fmt("cycles", r.uopCycles, irOut.cycles);
            if (wantDone && !valuesEqual(uopOut.value, irOut.value))
                return "value: " + valueStr(uopOut.value) + " vs " +
                       valueStr(irOut.value);
            if (!(uopBus.ops == irBus.ops))
                return "io logs differ";
            return "";
        };
        if (std::string d = irDiff(); !d.empty()) {
            r.verdict = Verdict::Divergence;
            r.detail = "uop-vs-ir " + d;
            return r;
        }
    }

    // The eager reference, where the equivalence map admits it.
    if (cfg.compareBigStep && validateProgram(dec.program).ok() &&
        !usesIo(dec.program)) {
        NullBus nb;
        BigStepConfig bc;
        bc.maxSteps = cfg.bigSteps;
        BigStep big(dec.program, nb, bc);
        EvalResult bigOut = big.runMain();
        if (bigOut.status == EvalResult::Status::Ok ||
            bigOut.status == EvalResult::Status::Stuck) {
            r.comparedBigStep = true;
            bool bigDone = bigOut.status == EvalResult::Status::Ok;
            bool machDone = uopOut.status == MachineStatus::Done;
            if (bigDone != machDone ||
                (bigDone &&
                 !valuesEqual(uopOut.value, bigOut.value))) {
                r.verdict = Verdict::Divergence;
                r.detail = "machine-vs-bigstep: " +
                           std::string(
                               machineStatusName(uopOut.status)) +
                           " " + valueStr(uopOut.value) + " vs " +
                           (bigDone ? "Ok " : "Stuck ") +
                           valueStr(bigOut.value) + " (\"" +
                           bigOut.where + "\")";
                return r;
            }
        }
        // OutOfFuel/DepthExceeded skip only the eager comparison.
    }

    // Snapshot/restore replay of the µop run.
    if (cfg.snapshotReplay) {
        MachineConfig sc = mc;
        sc.trace = nullptr;
        sc.fsmTally = false;
        RecordBus snapBus;
        Machine src(li, snapBus, sc);
        src.advance(uop.cycles() / 2);
        auto snap = src.snapshot();
        Machine fork(li, snapBus, sc);
        fork.restore(*snap);
        Machine::Outcome forkOut = fork.run(cfg.maxCycles);
        r.snapshotChecked = true;
        auto snapDiff = [&]() -> std::string {
            if (forkOut.status != uopOut.status)
                return std::string("status: ") +
                       machineStatusName(forkOut.status) + " vs " +
                       machineStatusName(uopOut.status);
            if (forkOut.diagnostic != uopOut.diagnostic)
                return "diagnostic differs";
            if (fork.cycles() != uop.cycles())
                return fmt("cycles", fork.cycles(), uop.cycles());
            if (!valuesEqual(forkOut.value, uopOut.value))
                return "value: " + valueStr(forkOut.value) + " vs " +
                       valueStr(uopOut.value);
            std::string sd = diffStats(fork.stats(), uop.stats());
            if (!sd.empty())
                return "stats " + sd;
            if (!(snapBus.ops == uopBus.ops))
                return "io logs differ";
            return "";
        };
        if (std::string d = snapDiff(); !d.empty()) {
            // A budget trip mid-replay is a host abort, not a
            // divergence.
            if (cfg.budget && cfg.budget->tripped() !=
                                  verify::BudgetTrip::None) {
                r.verdict = Verdict::Skip;
                r.detail =
                    std::string("budget: ") +
                    verify::budgetTripName(cfg.budget->tripped());
                return r;
            }
            r.verdict = Verdict::Divergence;
            r.detail = "snapshot replay " + d;
            return r;
        }
    }

    r.verdict = Verdict::Agree;
    return r;
}

} // namespace zarf::fuzz
