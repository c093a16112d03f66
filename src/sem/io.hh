/**
 * @file
 * The I/O port interface shared by every Zarf execution engine.
 *
 * getint and putint are the only effectful functions in the system
 * (paper, Sec. 3.4); they move single words over numbered ports. The
 * engines (big-step, small-step, cycle machine) are parameterized
 * over an IoBus so the same program can face test fixtures, the
 * two-layer system's channel, or recorded traces.
 */

#ifndef ZARF_SEM_IO_HH
#define ZARF_SEM_IO_HH

#include <deque>
#include <unordered_map>
#include <vector>

#include "support/types.hh"

namespace zarf
{

/** Abstract word-port bus. */
class IoBus
{
  public:
    virtual ~IoBus() = default;

    /** Read one word from a port (the getint primitive). */
    virtual SWord getInt(SWord port) = 0;

    /** Write one word to a port (the putint primitive). */
    virtual void putInt(SWord port, SWord value) = 0;

    /**
     * Is a read of this port quiet right now? Quiet means the read
     * changes no bus state and touches no state of the reader, and
     * the port returns the same word to every read the reader makes
     * until it writes or makes a non-quiet read, or its current
     * advance call reaches its cycle target: nothing else moves the
     * bus during the call. The promise ends at the target because a
     * port may move with the reader's own clock. Both cores
     * fast-forward a poll loop whose reads are all quiet
     * (mblaze::MbCpu::advance, and the λ-machine's µop core,
     * docs/PERF.md "Idle poll loops"), replaying whole iterations
     * that end by the target. A bus that cannot promise this keeps
     * the default, and its readers step every instruction.
     */
    virtual bool quietRead(SWord) const { return false; }
};

/** A bus where every read returns zero and writes are dropped. */
class NullBus : public IoBus
{
  public:
    SWord getInt(SWord) override { return 0; }
    void putInt(SWord, SWord) override {}
};

/** Scripted bus for tests: per-port input queues, recorded outputs. */
class ScriptBus : public IoBus
{
  public:
    /** Queue input words on a port, served FIFO; empty queues read 0. */
    void
    feed(SWord port, const std::vector<SWord> &words)
    {
        auto &q = inputs[port];
        q.insert(q.end(), words.begin(), words.end());
    }

    SWord
    getInt(SWord port) override
    {
        auto it = inputs.find(port);
        if (it == inputs.end() || it->second.empty())
            return 0;
        SWord v = it->second.front();
        it->second.pop_front();
        return v;
    }

    void
    putInt(SWord port, SWord value) override
    {
        outputs[port].push_back(value);
        log.push_back({ port, value });
    }

    /** All writes to a port, in order. */
    const std::vector<SWord> &
    written(SWord port)
    {
        return outputs[port];
    }

    /** Full interleaved write log. */
    struct WriteEvent { SWord port; SWord value; };
    std::vector<WriteEvent> log;

  private:
    std::unordered_map<SWord, std::deque<SWord>> inputs;
    std::unordered_map<SWord, std::vector<SWord>> outputs;
};

} // namespace zarf

#endif // ZARF_SEM_IO_HH
