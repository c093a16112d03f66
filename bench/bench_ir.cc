/**
 * @file
 * Analysis-IR cost model: what lifting costs, and what the reference
 * IR evaluation costs next to the µop machine it mirrors.
 *
 * Four rows over one fixed-seed generated workload:
 *
 *   lift          images lifted to IR per second (and words/sec) —
 *                 the price every IR consumer pays once per image
 *   machine-build µs per Machine construction (image load, predecode,
 *                 heap) — the machine's per-image setup, timed apart
 *   machine-uop   λ-cycles per host-second executing on the machine
 *                 (Machine::run only)
 *   ir-eval       λ-cycles per host-second on the IR evaluator
 *                 (evalModule only), with every run cross-checked
 *                 bit-exact against the machine (outcome,
 *                 value-class, cycles, I/O length)
 *
 * Both execution rows time execution alone. Each rep first builds
 * every machine and lifts every module, then times the batch of
 * Machine::run calls as one interval and the batch of evalModule
 * calls as another, so no timed run sits right after a machine's
 * construction or teardown and on the short runs of this workload
 * the two rates compare like for like. With the whole batch alive,
 * each run starts with its machine's memory out of cache, so both
 * rows read lower as --programs grows.
 *
 * Emits BENCH_ir_throughput.json in the working directory.
 *
 *   bench_ir [--seed N] [--programs N] [--reps N] [--smoke]
 *
 * --smoke shrinks the workload and exits nonzero when lift
 * throughput falls below the 2,000 lifts/sec acceptance floor, or
 * when any cross-check fails (which would be a real bug, not a perf
 * regression). Under asan/ubsan the floor is informational only.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_sanitized.hh"
#include "fuzz/genprog.hh"
#include "fuzz/oracle.hh"
#include "ir/eval.hh"
#include "ir/lift.hh"
#include "isa/encoding.hh"
#include "machine/machine.hh"

using namespace zarf;

namespace
{

double
secsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seed = 1;
    size_t nPrograms = 96;
    size_t reps = 50;
    bool smoke = false;

    for (int i = 1; i < argc; ++i) {
        if (!strcmp(argv[i], "--seed") && i + 1 < argc) {
            seed = uint64_t(atoll(argv[++i]));
        } else if (!strcmp(argv[i], "--programs") && i + 1 < argc) {
            nPrograms = size_t(atoll(argv[++i]));
        } else if (!strcmp(argv[i], "--reps") && i + 1 < argc) {
            reps = size_t(atoll(argv[++i]));
        } else if (!strcmp(argv[i], "--smoke")) {
            smoke = true;
            nPrograms = 48;
            reps = 10;
        } else {
            fprintf(stderr,
                    "usage: %s [--seed N] [--programs N] [--reps N] "
                    "[--smoke]\n",
                    argv[0]);
            return 2;
        }
    }

    // Fixed-seed workload: generated programs the machine runs to
    // completion (Done or Stuck) within a modest budget.
    std::vector<Image> images;
    size_t totalWords = 0;
    for (uint64_t s = seed; images.size() < nPrograms; ++s) {
        fuzz::ProgramGenerator gen(s);
        BuildResult b = gen.generate().tryBuild();
        if (!b.ok)
            continue;
        Image img = encodeProgram(b.program);
        if (!ir::liftImage(img).ok)
            continue; // loader-rejected: not part of the workload
        fuzz::RecordBus bus;
        MachineConfig mc;
        mc.semispaceWords = 1u << 15;
        Machine m(img, bus, mc);
        Machine::Outcome o = m.run(200'000);
        if (o.status != MachineStatus::Done &&
            o.status != MachineStatus::Stuck)
            continue;
        totalWords += img.size();
        images.push_back(std::move(img));
    }

    printf("=== analysis-IR throughput (%zu programs, %zu words)"
           "%s ===\n\n",
           images.size(), totalWords, smoke ? " (smoke)" : "");

    // ---- Row 1: lift throughput -------------------------------
    size_t lifts = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (size_t r = 0; r < reps; ++r) {
        for (const Image &img : images) {
            ir::LiftResult lift = ir::liftImage(img);
            if (!lift.ok) {
                fprintf(stderr, "lift regressed: %s\n",
                        lift.error.c_str());
                return 1;
            }
            ++lifts;
        }
    }
    double liftSecs = secsSince(t0);
    double liftsPerSec = liftSecs > 0 ? double(lifts) / liftSecs : 0;
    double wordsPerSec =
        liftSecs > 0 ? double(totalWords * reps) / liftSecs : 0;
    printf("  %-13s %7zu lifts in %7.3f s = %9.0f lifts/sec "
           "(%.2e words/sec)\n",
           "lift", lifts, liftSecs, liftsPerSec, wordsPerSec);

    // ---- Rows 2-4: machine setup, machine vs. IR execution -----
    struct EvalRow
    {
        uint64_t cycles = 0;
        size_t runs = 0;
        double secs = 0;
    } build, mach, ireval;

    const size_t n = images.size();
    MachineConfig mc;
    mc.semispaceWords = 1u << 15;
    ir::EvalConfig ic;
    ic.maxCycles = 200'000;
    size_t mismatches = 0;
    for (size_t r = 0; r < reps; ++r) {
        // Setup: every machine built (the machine-build row) and
        // every module lifted before either execution timer starts.
        std::vector<fuzz::RecordBus> mbus(n), ibus(n);
        std::vector<std::unique_ptr<Machine>> machines;
        machines.reserve(n);
        auto b0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < n; ++i)
            machines.push_back(
                std::make_unique<Machine>(images[i], mbus[i], mc));
        build.secs += secsSince(b0);
        build.runs += n;
        std::vector<ir::LiftResult> lifts;
        lifts.reserve(n);
        for (const Image &img : images)
            lifts.push_back(ir::liftImage(img));

        std::vector<Machine::Outcome> mo(n);
        auto m0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < n; ++i)
            mo[i] = machines[i]->run(200'000);
        mach.secs += secsSince(m0);
        mach.runs += n;

        std::vector<ir::Outcome> io(n);
        auto i0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < n; ++i)
            io[i] = ir::evalModule(lifts[i].module, ibus[i], ic);
        ireval.secs += secsSince(i0);
        ireval.runs += n;

        for (size_t i = 0; i < n; ++i) {
            mach.cycles += machines[i]->cycles();
            ireval.cycles += io[i].cycles;
            bool mDone = mo[i].status == MachineStatus::Done;
            bool iDone = io[i].status == ir::Outcome::Status::Done;
            if (mDone != iDone || io[i].cycles != machines[i]->cycles() ||
                !(mbus[i].ops == ibus[i].ops))
                ++mismatches;
        }
    }
    auto report = [](const char *name, const EvalRow &e) {
        double cps = e.secs > 0 ? double(e.cycles) / e.secs : 0;
        printf("  %-13s %7zu runs, %10llu lambda-cycles in %7.3f s "
               "= %.2e cycles/sec\n",
               name, e.runs, (unsigned long long)e.cycles, e.secs,
               cps);
        return cps;
    };
    double buildUs =
        build.runs ? 1e6 * build.secs / double(build.runs) : 0;
    printf("  %-13s %7zu machines built in %7.3f s = %.2f us/machine\n",
           "machine-build", build.runs, build.secs, buildUs);
    double machCps = report("machine-uop", mach);
    double irCps = report("ir-eval", ireval);
    if (machCps > 0 && irCps > 0)
        printf("\n  ir-eval runs at %.0f%% of the machine's "
               "cycle rate; %zu cross-check mismatches\n\n",
               100.0 * irCps / machCps, mismatches);

    std::string outPath = "BENCH_ir_throughput.json";
    FILE *f = fopen(outPath.c_str(), "w");
    if (f) {
        fprintf(f,
                "{\n  \"smoke\": %s,\n  \"programs\": %zu,\n"
                "  \"image_words\": %zu,\n  \"rows\": [\n",
                smoke ? "true" : "false", images.size(), totalWords);
        fprintf(f,
                "    {\"phase\": \"lift\", \"lifts\": %zu, "
                "\"wall_sec\": %.6f, \"lifts_per_sec\": %.1f, "
                "\"words_per_sec\": %.1f},\n",
                lifts, liftSecs, liftsPerSec, wordsPerSec);
        fprintf(f,
                "    {\"phase\": \"machine-build\", \"runs\": %zu, "
                "\"wall_sec\": %.6f, \"us_per_machine\": %.3f},\n",
                build.runs, build.secs, buildUs);
        fprintf(f,
                "    {\"phase\": \"machine-uop\", \"runs\": %zu, "
                "\"lambda_cycles\": %llu, \"wall_sec\": %.6f, "
                "\"cycles_per_sec\": %.1f},\n",
                mach.runs, (unsigned long long)mach.cycles,
                mach.secs, machCps);
        fprintf(f,
                "    {\"phase\": \"ir-eval\", \"runs\": %zu, "
                "\"lambda_cycles\": %llu, \"wall_sec\": %.6f, "
                "\"cycles_per_sec\": %.1f, \"mismatches\": %zu}\n",
                ireval.runs, (unsigned long long)ireval.cycles,
                ireval.secs, irCps, mismatches);
        fprintf(f, "  ]\n}\n");
        fclose(f);
        printf("wrote %s\n", outPath.c_str());
    } else {
        perror(outPath.c_str());
    }

    if (mismatches) {
        printf("  FAIL: %zu machine-vs-ir cross-check mismatches\n",
               mismatches);
        return 1;
    }
    if (smoke && liftsPerSec < 2000.0) {
        if (ZARF_SANITIZED) {
            printf("  below the 2000 lifts/sec floor "
                   "(informational: sanitized build)\n");
        } else {
            printf("  FAIL: below the 2000 lifts/sec floor\n");
            return 1;
        }
    }
    return 0;
}
