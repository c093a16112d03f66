/**
 * @file
 * zarf-sym — the concolic symbolic-execution driver (docs/SYMBOLIC.md;
 * the CI nightly job runs `--replay-all` over the checked-in corpus).
 *
 *   zarf-sym (--image FILE | --replay-all DIR)
 *            [--max-paths N] [--max-depth N] [--max-vars N]
 *            [--threads N] [--bfs] [--no-replay]
 *            [--prove-wcet] [--check-noninterference MASK]
 *            [--max-oracle-cycles N] [--max-oracle-ms N]
 *            [--max-oracle-heap BYTES] [--out DIR]
 *
 * For each image the driver explores the symbolic path space, solves
 * every path condition, and (unless --no-replay) concretizes and
 * replays every satisfiable path through the differential oracle —
 * any prediction/machine mismatch is a divergence: the reproducer
 * image is written to --out (default: sym-findings) and the exit
 * status is 1.
 *
 * --prove-wcet additionally requires the per-program cycle bound to
 * be *complete* (exhaustive exploration, no truncated path); an
 * incomplete bound exits 1. --check-noninterference treats mask bit
 * k as "symbolic variable k is secret" and reports any path whose
 * observables depend on a secret; a violation exits 3 (it is a
 * property of the program, not a harness failure).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "fuzz/corpus.hh"
#include "sym/concolic.hh"

using namespace zarf;
using namespace zarf::sym;

namespace
{

uint64_t
parseU64(const char *s)
{
    return std::strtoull(s, nullptr, 0);
}

struct RunTally
{
    size_t images = 0;
    size_t explored = 0;
    size_t skippedImages = 0;
    size_t divergences = 0;
    size_t incompleteWcet = 0;
    size_t niViolations = 0;
};

void
runOne(const std::string &name, const Image &img,
       const ConcolicConfig &cfg, bool proveWcet, bool checkNi,
       uint64_t secretMask, const std::string &outDir,
       RunTally &tally)
{
    tally.images++;
    ConcolicReport rep = runConcolic(img, cfg);
    if (!rep.originalUsable) {
        tally.skippedImages++;
        std::printf("%s: skipped (%s)\n", name.c_str(),
                    rep.originalDetail.c_str());
        return;
    }
    tally.explored++;
    std::printf(
        "%s: vars=%u paths=%zu (%llu feasible, %llu replayed, "
        "%llu unsat, %llu unknown, %llu truncated, %llu skipped)%s "
        "wcet=%llu%s\n",
        name.c_str(), rep.numVars, rep.paths.size(),
        (unsigned long long)rep.feasiblePaths,
        (unsigned long long)rep.replayedPaths,
        (unsigned long long)rep.unsatPaths,
        (unsigned long long)rep.unknownPaths,
        (unsigned long long)rep.truncatedPaths,
        (unsigned long long)rep.skippedPaths,
        rep.exhaustive ? "" : " [frontier capped]",
        (unsigned long long)rep.wcetBound,
        rep.wcetComplete ? " [complete]" : " [partial]");

    for (size_t i = 0; i < rep.paths.size(); ++i) {
        const PathReport &pr = rep.paths[i];
        if (pr.check != PathCheck::Diverged)
            continue;
        tally.divergences++;
        std::printf("  DIVERGENCE path %zu: %s\n", i,
                    pr.detail.c_str());
        if (!pr.witness.empty()) {
            std::string p =
                fuzz::saveCorpusEntry(outDir, pr.witness);
            if (!p.empty())
                std::printf("  reproducer written to %s\n",
                            p.c_str());
        }
    }

    if (proveWcet) {
        if (rep.wcetComplete) {
            std::printf("  WCET proved: %llu cycles (load "
                        "included), cycles exact on %llu "
                        "replayed paths\n",
                        (unsigned long long)rep.wcetBound,
                        (unsigned long long)rep.replayedPaths);
        } else {
            tally.incompleteWcet++;
            std::printf("  WCET not proved: %s\n",
                        rep.exhaustive
                            ? "a path was truncated"
                            : "path frontier was capped");
        }
    }

    if (checkNi) {
        NiResult ni =
            checkNoninterference(img, rep, secretMask, cfg);
        if (ni.holds) {
            std::printf("  non-interference holds for secret mask "
                        "0x%llx\n",
                        (unsigned long long)secretMask);
        } else {
            tally.niViolations++;
            std::printf("  non-interference VIOLATED: %zu leaky "
                        "path(s)%s%s\n",
                        ni.leakyPaths.size(),
                        ni.witnessFound ? "; witness: " : "",
                        ni.witnessFound ? ni.witnessDetail.c_str()
                                        : "");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ConcolicConfig cfg;
    std::string imageFile, corpusDir, outDir = "sym-findings";
    bool proveWcet = false, checkNi = false;
    uint64_t secretMask = 0;

    for (int i = 1; i < argc; ++i) {
        auto val = [&](const char *) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", argv[i]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--image"))
            imageFile = val("image");
        else if (!std::strcmp(argv[i], "--replay-all"))
            corpusDir = val("replay-all");
        else if (!std::strcmp(argv[i], "--max-paths"))
            cfg.explore.maxPaths = parseU64(val("max-paths"));
        else if (!std::strcmp(argv[i], "--max-depth"))
            cfg.eval.maxChoices =
                unsigned(parseU64(val("max-depth")));
        else if (!std::strcmp(argv[i], "--max-vars"))
            cfg.eval.maxVars = unsigned(parseU64(val("max-vars")));
        else if (!std::strcmp(argv[i], "--threads"))
            cfg.threads = unsigned(parseU64(val("threads")));
        else if (!std::strcmp(argv[i], "--bfs"))
            cfg.explore.breadthFirst = true;
        else if (!std::strcmp(argv[i], "--no-replay"))
            cfg.replay = false;
        else if (!std::strcmp(argv[i], "--prove-wcet"))
            proveWcet = true;
        else if (!std::strcmp(argv[i], "--check-noninterference")) {
            checkNi = true;
            secretMask = parseU64(val("check-noninterference"));
        } else if (!std::strcmp(argv[i], "--max-oracle-cycles"))
            cfg.replayBudget.maxLambdaCycles =
                parseU64(val("max-oracle-cycles"));
        else if (!std::strcmp(argv[i], "--max-oracle-ms"))
            cfg.replayBudget.maxHostMillis =
                parseU64(val("max-oracle-ms"));
        else if (!std::strcmp(argv[i], "--max-oracle-heap"))
            cfg.replayBudget.maxHeapBytes =
                parseU64(val("max-oracle-heap"));
        else if (!std::strcmp(argv[i], "--out"))
            outDir = val("out");
        else {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        }
    }
    if (imageFile.empty() == corpusDir.empty()) {
        std::fprintf(stderr,
                     "exactly one of --image or --replay-all is "
                     "required\n");
        return 2;
    }

    RunTally tally;
    if (!imageFile.empty()) {
        std::FILE *f = std::fopen(imageFile.c_str(), "rb");
        if (!f) {
            std::fprintf(stderr, "cannot read %s\n",
                         imageFile.c_str());
            return 2;
        }
        std::string text;
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
        fuzz::ParsedImage parsed = fuzz::imageFromText(text);
        if (!parsed.ok) {
            std::fprintf(stderr, "%s: %s\n", imageFile.c_str(),
                         parsed.error.c_str());
            return 2;
        }
        runOne(imageFile, parsed.image, cfg, proveWcet, checkNi,
               secretMask, outDir, tally);
    } else {
        fuzz::CorpusLoad load = fuzz::loadCorpusDir(corpusDir);
        for (const auto &err : load.errors)
            std::fprintf(stderr, "corpus: %s\n", err.c_str());
        for (const auto &e : load.entries)
            runOne(fuzz::hashName(e.hash), e.image, cfg, proveWcet,
                   checkNi, secretMask, outDir, tally);
    }

    std::printf("total: %zu image(s), %zu explored, %zu skipped, "
                "%zu divergence(s)\n",
                tally.images, tally.explored, tally.skippedImages,
                tally.divergences);
    if (tally.divergences)
        return 1;
    if (proveWcet && tally.incompleteWcet)
        return 1;
    if (checkNi && tally.niViolations)
        return 3;
    return 0;
}
