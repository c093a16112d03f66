#include "obs/trace.hh"

#include "support/logging.hh"

namespace zarf::obs
{

namespace
{

struct KindInfo
{
    const char *name;
    Cat cat;
    Track track;
    char phase;
};

constexpr KindInfo kKinds[kNumEventKinds] = {
    // MachineLife
    { "mach.load", Cat::MachineLife, Track::Lambda, 'i' },
    { "mach.boot", Cat::MachineLife, Track::Lambda, 'i' },
    { "mach.done", Cat::MachineLife, Track::Lambda, 'i' },
    { "mach.fail", Cat::MachineLife, Track::Lambda, 'i' },
    // MachineGc
    { "gc", Cat::MachineGc, Track::LambdaGc, 'B' },
    { "gc", Cat::MachineGc, Track::LambdaGc, 'E' },
    // MachineExec
    { "exec.let", Cat::MachineExec, Track::Lambda, 'i' },
    { "exec.case", Cat::MachineExec, Track::Lambda, 'i' },
    { "exec.result", Cat::MachineExec, Track::Lambda, 'i' },
    { "eval.enter", Cat::MachineExec, Track::Lambda, 'i' },
    { "prim.op", Cat::MachineExec, Track::Lambda, 'i' },
    // System
    { "tick", Cat::System, Track::System, 'i' },
    { "deadline.miss", Cat::System, Track::System, 'i' },
    { "shock", Cat::System, Track::System, 'i' },
    { "chan.push", Cat::System, Track::System, 'i' },
    { "chan.pop", Cat::System, Track::System, 'i' },
    { "chan.overflow", Cat::System, Track::System, 'i' },
    { "chan.fault.drop", Cat::System, Track::System, 'i' },
    { "chan.fault.dup", Cat::System, Track::System, 'i' },
    { "sensor.alert", Cat::System, Track::System, 'i' },
    { "fault.injected", Cat::System, Track::System, 'i' },
    { "monitor.fault", Cat::System, Track::System, 'i' },
    { "watchdog.trip", Cat::System, Track::System, 'i' },
    { "watchdog.restart", Cat::System, Track::System, 'i' },
    { "watchdog.degraded", Cat::System, Track::System, 'i' },
    { "watchdog.lambda-dead", Cat::System, Track::System, 'i' },
    { "watchdog.resync", Cat::System, Track::System, 'i' },
    // Mblaze
    { "mb.branch", Cat::Mblaze, Track::Mblaze, 'i' },
    { "mb.trap", Cat::Mblaze, Track::Mblaze, 'i' },
    { "mb.halt", Cat::Mblaze, Track::Mblaze, 'i' },
    { "mb.in", Cat::Mblaze, Track::Mblaze, 'i' },
    { "mb.out", Cat::Mblaze, Track::Mblaze, 'i' },
    // Harness resilience (appended; ordinals above must not move).
    { "budget.trip", Cat::MachineLife, Track::Lambda, 'i' },
    { "task.retry", Cat::System, Track::System, 'i' },
    { "quarantine", Cat::System, Track::System, 'i' },
};

constexpr const char *kTrackNames[] = {
    "lambda-machine",
    "lambda-gc",
    "mblaze-core",
    "system-devices",
};

} // namespace

const char *
eventName(EventKind k)
{
    return kKinds[static_cast<size_t>(k)].name;
}

Cat
eventCat(EventKind k)
{
    return kKinds[static_cast<size_t>(k)].cat;
}

Track
eventTrack(EventKind k)
{
    return kKinds[static_cast<size_t>(k)].track;
}

char
eventPhase(EventKind k)
{
    return kKinds[static_cast<size_t>(k)].phase;
}

const char *
trackName(Track t)
{
    return kTrackNames[static_cast<size_t>(t)];
}

Recorder::Recorder(TraceConfig config) : cfg(config)
{
    if (cfg.capacity == 0)
        cfg.capacity = 1;
}

void
Recorder::clear()
{
    head = 0;
    count = 0;
    nEmitted = 0;
    nDropped = 0;
}

std::string
Recorder::toChromeJson() const
{
    std::string s;
    s.reserve(128 + count * 96);
    s += "{\n\"traceEvents\": [\n";

    // Track-name metadata first, so Perfetto labels the rows.
    for (size_t t = 0; t < size_t(Track::NumTracks); ++t) {
        s += strprintf("{\"name\": \"thread_name\", \"ph\": \"M\", "
                       "\"pid\": 1, \"tid\": %zu, "
                       "\"args\": {\"name\": \"%s\"}},\n",
                       t, kTrackNames[t]);
    }

    for (size_t i = 0; i < count; ++i) {
        const Event &e = at(i);
        char ph = eventPhase(e.kind);
        s += strprintf(
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\"%s, "
            "\"ts\": %llu, \"pid\": 1, \"tid\": %u, "
            "\"args\": {\"a\": %lld, \"b\": %lld}}%s\n",
            eventName(e.kind), trackName(eventTrack(e.kind)), ph,
            ph == 'i' ? ", \"s\": \"t\"" : "",
            (unsigned long long)e.ts,
            unsigned(eventTrack(e.kind)), (long long)e.a,
            (long long)e.b, i + 1 < count ? "," : "");
    }

    s += "],\n";
    s += "\"displayTimeUnit\": \"ms\",\n";
    s += strprintf("\"otherData\": {\"clock\": \"lambda-cycles\", "
                   "\"emitted\": %llu, \"dropped\": %llu}\n",
                   (unsigned long long)nEmitted,
                   (unsigned long long)nDropped);
    s += "}\n";
    return s;
}

} // namespace zarf::obs
