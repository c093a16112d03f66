/**
 * @file
 * Reference evaluation of lifted modules: the evaluator core
 * (ir/core.hh) over the concrete domain, where a non-reference word
 * carries the 32-bit pattern of a machine integer.
 */

#include "ir/eval.hh"

#include <utility>

#include "ir/core.hh"

namespace zarf::ir
{
namespace
{

inline uint64_t mkInt(SWord v) { return uint64_t(uint32_t(v)); }
inline SWord intOf(uint64_t w) { return SWord(uint32_t(w)); }

/** The concrete domain: integers, a real I/O bus, Value exports. */
class Concrete
{
  public:
    using Export = ValuePtr;

    explicit Concrete(IoBus &bus) : bus(bus) {}

    uint64_t imm(uint32_t, SWord v) const { return mkInt(v); }
    uint64_t errorCode(SWord code) const { return mkInt(code); }

    int
    caseArm(uint64_t v, const Pattern *pats, uint32_t n) const
    {
        for (uint32_t i = 0; i < n; ++i) {
            if (!pats[i].isCons && pats[i].lit == intOf(v))
                return int(i);
        }
        return int(n);
    }

    PrimOut
    alu(Prim p, const std::vector<uint64_t> &operands)
    {
        ints.resize(operands.size());
        for (size_t i = 0; i < operands.size(); ++i)
            ints[i] = intOf(operands[i]);
        PrimResult r = evalAlu(p, ints);
        return r.ok ? PrimOut::value(mkInt(r.value))
                    : PrimOut::error(r.errCode);
    }

    PrimOut
    getInt(uint64_t port)
    {
        return PrimOut::value(mkInt(wrapInt31(bus.getInt(intOf(port)))));
    }

    void
    putInt(uint64_t port, uint64_t value)
    {
        bus.putInt(intOf(port), intOf(value));
    }

    Export exportLeaf(uint64_t v) const { return Value::makeInt(intOf(v)); }

    Export
    exportNode(bool cons, Word fn, std::vector<Export> items) const
    {
        return cons ? Value::makeCons(fn, std::move(items))
                    : Value::makeClosure(fn, std::move(items));
    }

  private:
    IoBus &bus;
    std::vector<SWord> ints; ///< evalAlu's operand list, reused
};

} // namespace

const char *
outcomeStatusName(Outcome::Status st)
{
    switch (st) {
      case Outcome::Status::Done:
        return "Done";
      case Outcome::Status::Stuck:
        return "Stuck";
      case Outcome::Status::OutOfFuel:
        return "OutOfFuel";
    }
    return "?";
}

Outcome
evalModule(const Module &m, IoBus &bus, const EvalConfig &config)
{
    Concrete dom(bus);
    Evaluator<Concrete> ev(m, dom, config.timing);
    // The cycle budget starts after load and boot.
    ev.run(ev.cycles() + config.maxCycles, kUnbounded);
    Outcome out;
    if (ev.state() == RunState::Done)
        out.value = ev.exportResult(ev.stepCount() + config.exportFuel,
                                    config.hardStopCycles);
    out.cycles = ev.cycles();
    switch (ev.state()) {
      case RunState::Done:
        out.status = Outcome::Status::Done;
        break;
      case RunState::Running:
        out.status = Outcome::Status::OutOfFuel;
        out.diagnostic = "cycle budget exhausted";
        break;
      case RunState::Fuel:
        out.status = Outcome::Status::OutOfFuel;
        out.diagnostic = ev.diagnostic();
        break;
      case RunState::Stuck:
      case RunState::Cut:
        out.status = Outcome::Status::Stuck;
        out.diagnostic = ev.diagnostic();
        break;
    }
    return out;
}

} // namespace zarf::ir
