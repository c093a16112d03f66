#include "mblaze/cpu.hh"

#include "obs/trace.hh"

namespace zarf::mblaze
{

MbCpu::MbCpu(MbProgram program, IoBus &bus, size_t memWords,
             MbTiming timing)
    : prog(std::move(program)), bus(bus), timing(timing)
{
    dmem.assign(memWords, 0);
    if (prog.code.empty())
        st = MbStatus::Halted;
}

MbStatus
MbCpu::advance(Cycles budget)
{
    Cycles target = total + budget;
    // The last loop head (see the header): its pc, registers and
    // counters.
    bool haveHead = false;
    size_t headPc = 0;
    std::array<SWord, kNumRegs> headRegs{};
    Cycles headTotal = 0;
    uint64_t headRetired = 0;
    while (st == MbStatus::Running && total < target) {
        size_t from = pc;
        step();
        if (pc > from || st != MbStatus::Running || traceOn)
            continue;
        if (haveHead && !effect && pc == headPc && regs == headRegs &&
            total > headTotal && total < target) {
            Cycles period = total - headTotal;
            uint64_t k = (target - total) / period;
            retired += k * (retired - headRetired);
            total += k * period;
        }
        haveHead = true;
        headPc = pc;
        headRegs = regs;
        headTotal = total;
        headRetired = retired;
        effect = false;
    }
    return st;
}

MbStatus
MbCpu::run(Cycles maxCycles)
{
    return advance(maxCycles);
}

void
MbCpu::setReg(unsigned i, SWord v)
{
    if (i != 0 && i < kNumRegs)
        regs[i] = v;
}

SWord
MbCpu::mem(size_t wordIndex) const
{
    return wordIndex < dmem.size() ? dmem[wordIndex] : 0;
}

void
MbCpu::setMem(size_t wordIndex, SWord v)
{
    if (wordIndex < dmem.size())
        dmem[wordIndex] = v;
}

void
MbCpu::setTrace(obs::Recorder *r, Cycles div, Cycles bias)
{
    trace = r;
    tsDiv = div ? div : 1;
    tsBias = bias;
    traceOn = trace && trace->wants(obs::Cat::Mblaze);
}

void
MbCpu::emitMb(obs::EventKind k, int64_t a, int64_t b) const
{
    trace->emit(k, tsBias + total / tsDiv, a, b);
}

void
MbCpu::step()
{
    if (pc >= prog.code.size()) {
        st = MbStatus::Fault;
        fault = { MbFaultInfo::Cause::PcOutOfRange, pc, 0 };
        if (traceOn)
            emitMb(obs::EventKind::MbTrap,
                   static_cast<int64_t>(fault.cause),
                   static_cast<int64_t>(pc));
        return;
    }
    const Instr &ins = prog.code[pc];
    Cycles cost = timing.base;
    size_t next = pc + 1;
    ++retired;

    auto wr = [&](SWord v) {
        if (ins.rd != 0)
            regs[ins.rd] = v;
    };
    SWord a = regs[ins.ra];
    SWord b = regs[ins.rb];

    switch (ins.opc) {
      case Opc::Add: wr(a + b); break;
      case Opc::Sub: wr(a - b); break;
      case Opc::Mul:
        wr(SWord(int64_t(a) * int64_t(b)));
        cost += timing.mulExtra;
        break;
      case Opc::Div:
        wr(b == 0 ? 0 : a / b);
        cost += timing.divExtra;
        break;
      case Opc::Rem:
        wr(b == 0 ? 0 : a % b);
        cost += timing.divExtra;
        break;
      case Opc::And: wr(a & b); break;
      case Opc::Or: wr(a | b); break;
      case Opc::Xor: wr(a ^ b); break;
      case Opc::Shl: wr(SWord(Word(a) << (Word(b) & 31))); break;
      case Opc::Shr: wr(SWord(Word(a) >> (Word(b) & 31))); break;
      case Opc::Sra: wr(a >> (Word(b) & 31)); break;
      case Opc::Slt: wr(a < b ? 1 : 0); break;

      case Opc::Addi: wr(a + ins.imm); break;
      case Opc::Muli:
        wr(SWord(int64_t(a) * ins.imm));
        cost += timing.mulExtra;
        break;
      case Opc::Andi: wr(a & ins.imm); break;
      case Opc::Ori: wr(a | ins.imm); break;
      case Opc::Xori: wr(a ^ ins.imm); break;
      case Opc::Shli: wr(SWord(Word(a) << (Word(ins.imm) & 31))); break;
      case Opc::Shri: wr(SWord(Word(a) >> (Word(ins.imm) & 31))); break;
      case Opc::Srai: wr(a >> (Word(ins.imm) & 31)); break;
      case Opc::Slti: wr(a < ins.imm ? 1 : 0); break;

      case Opc::Movi:
        wr(ins.imm);
        cost += timing.moviExtra;
        break;

      case Opc::Lw: {
        int64_t addr = int64_t(a) + ins.imm;
        if (addr < 0 || size_t(addr) >= dmem.size()) {
            st = MbStatus::Fault;
            fault = { MbFaultInfo::Cause::LoadOutOfRange, pc, addr };
            if (traceOn)
                emitMb(obs::EventKind::MbTrap,
                       static_cast<int64_t>(fault.cause),
                       static_cast<int64_t>(pc));
            return;
        }
        wr(dmem[size_t(addr)]);
        break;
      }
      case Opc::Sw: {
        int64_t addr = int64_t(a) + ins.imm;
        if (addr < 0 || size_t(addr) >= dmem.size()) {
            st = MbStatus::Fault;
            fault = { MbFaultInfo::Cause::StoreOutOfRange, pc, addr };
            if (traceOn)
                emitMb(obs::EventKind::MbTrap,
                       static_cast<int64_t>(fault.cause),
                       static_cast<int64_t>(pc));
            return;
        }
        dmem[size_t(addr)] = regs[ins.rd];
        effect = true;
        break;
      }

      case Opc::Beq:
      case Opc::Bne:
      case Opc::Blt:
      case Opc::Ble:
      case Opc::Bgt:
      case Opc::Bge: {
        // Branches compare rd (first operand) with ra (second).
        SWord x = regs[ins.rd];
        SWord y = regs[ins.ra];
        bool taken = false;
        switch (ins.opc) {
          case Opc::Beq: taken = x == y; break;
          case Opc::Bne: taken = x != y; break;
          case Opc::Blt: taken = x < y; break;
          case Opc::Ble: taken = x <= y; break;
          case Opc::Bgt: taken = x > y; break;
          case Opc::Bge: taken = x >= y; break;
          default: break;
        }
        if (taken) {
            next = size_t(ins.imm);
            cost += timing.takenBranchPenalty;
            if (traceOn)
                emitMb(obs::EventKind::MbBranch,
                       static_cast<int64_t>(pc),
                       static_cast<int64_t>(next));
        }
        break;
      }
      case Opc::J:
        next = size_t(ins.imm);
        cost += timing.takenBranchPenalty;
        break;
      case Opc::Jal:
        wr(SWord(pc + 1));
        next = size_t(ins.imm);
        cost += timing.takenBranchPenalty;
        break;
      case Opc::Jr:
        next = size_t(regs[ins.rd]);
        cost += timing.takenBranchPenalty;
        break;

      case Opc::In: {
        if (!bus.quietRead(ins.imm))
            effect = true;
        SWord v = bus.getInt(ins.imm);
        wr(v);
        cost += timing.ioExtra;
        if (traceOn)
            emitMb(obs::EventKind::MbIn,
                   static_cast<int64_t>(ins.imm),
                   static_cast<int64_t>(v));
        break;
      }
      case Opc::Out:
        bus.putInt(ins.imm, regs[ins.rd]);
        effect = true;
        cost += timing.ioExtra;
        if (traceOn)
            emitMb(obs::EventKind::MbOut,
                   static_cast<int64_t>(ins.imm),
                   static_cast<int64_t>(regs[ins.rd]));
        break;

      case Opc::Halt:
        st = MbStatus::Halted;
        total += cost;
        if (traceOn)
            emitMb(obs::EventKind::MbHalt,
                   static_cast<int64_t>(pc), 0);
        return;
      case Opc::Nop:
        break;
    }

    total += cost;
    pc = next;
}

} // namespace zarf::mblaze
