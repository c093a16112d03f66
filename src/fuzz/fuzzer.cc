#include "fuzz/fuzzer.hh"

#include <cstdio>

#include "fuzz/corpus.hh"
#include "support/logging.hh"
#include "verify/parallel.hh"
#include "verify/quarantine.hh"

namespace zarf::fuzz
{

namespace
{

/** Deterministically derive one candidate image from the corpus so
 *  far and the candidate's own seed. */
Image
makeCandidate(uint64_t seed, const FuzzConfig &cfg,
              const std::vector<Image> &corpus)
{
    Rng rng(seed);
    double r = rng.real();
    if (!corpus.empty()) {
        if (r < cfg.astMutateP) {
            const Image &base = corpus[rng.below(corpus.size())];
            if (auto m = mutateAst(base, rng, cfg.mutate))
                return *m;
            // Unencodable mutant: degrade to an image-level mutant
            // of the same base (still seed-deterministic).
            return mutateImage(base, rng, cfg.mutate);
        }
        if (r < cfg.astMutateP + cfg.imageMutateP) {
            return mutateImage(corpus[rng.below(corpus.size())], rng,
                               cfg.mutate);
        }
        if (r < cfg.astMutateP + cfg.imageMutateP + cfg.spliceP) {
            const Image &a = corpus[rng.below(corpus.size())];
            const Image &b = corpus[rng.below(corpus.size())];
            if (auto s = spliceImages(a, b, rng))
                return *s;
            return mutateImage(a, rng, cfg.mutate);
        }
    }
    ProgramGenerator gen(rng.next(), cfg.gen);
    return encodeProgram(gen.generate().build());
}

/** One candidate's supervised oracle evaluation. */
struct SupervisedOracle
{
    OracleResult o;
    unsigned attempts = 1;
    bool quarantined = false;
};

/**
 * Run the oracle, supervised when FuzzConfig::oracleBudget is armed:
 * each attempt gets a fresh Budget (its host deadline enforced by
 * Budget::check at the oracle's SYNC points), transient trips retry
 * with backoff, and a terminal trip quarantines the candidate image
 * — the campaign then proceeds without it, counting it as Skip.
 */
SupervisedOracle
runOracleSupervised(const Image &img, const FuzzConfig &cfg)
{
    SupervisedOracle s;
    if (!cfg.oracleBudget.any()) {
        s.o = runOracle(img, cfg.oracle);
        return s;
    }
    verify::SupervisedRun sr = verify::superviseTask(
        cfg.oracleBudget, cfg.retry,
        [&](verify::Budget &b, unsigned) {
            OracleConfig oc = cfg.oracle;
            oc.budget = &b;
            s.o = runOracle(img, oc);
        });
    s.attempts = sr.attempts;
    if (sr.wedged && !cfg.quarantineDir.empty()) {
        std::string verdict = strprintf(
            "{ \"type\": \"fuzz-candidate\", \"hash\": "
            "\"%016llx\", \"trip\": \"%s\", \"attempts\": %u, "
            "\"detail\": \"%s\" }\n",
            (unsigned long long)imageHash(img),
            verify::budgetTripName(sr.trip), sr.attempts,
            s.o.detail.c_str());
        s.quarantined =
            verify::quarantineStore(cfg.quarantineDir,
                                    imageToText(img), ".zimg",
                                    verdict)
                .ok;
    }
    return s;
}

/** Fold one oracle result into the campaign state. */
void
fold(FuzzResult &out, std::vector<Image> &corpus, Image &&img,
     const OracleResult &o, bool fromSeedCorpus)
{
    ++out.executed;
    switch (o.verdict) {
      case Verdict::Agree:
        ++out.agreed;
        break;
      case Verdict::Rejected:
        ++out.rejected;
        break;
      case Verdict::Skip:
        ++out.skipped;
        break;
      case Verdict::Divergence:
        out.findings.push_back(
            { img, imageHash(img), o.detail });
        break;
    }
    if (o.coverage.newBits(out.coverage) > 0) {
        out.coverage.mergeFrom(o.coverage);
        corpus.push_back(img);
        if (!fromSeedCorpus)
            out.retained.push_back(std::move(img));
    }
}

} // namespace

std::string
FuzzResult::summary() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%zu executed: %zu agree, %zu rejected, %zu "
                  "skipped, %zu divergences; corpus +%zu (%s)",
                  executed, agreed, rejected, skipped,
                  findings.size(), retained.size(),
                  coverage.summary().c_str());
    std::string s = buf;
    if (retries || quarantined) {
        std::snprintf(buf, sizeof(buf),
                      "; %zu retries, %zu quarantined", retries,
                      quarantined);
        s += buf;
    }
    return s;
}

FuzzResult
runFuzz(const FuzzConfig &cfg, const std::vector<Image> &seedCorpus)
{
    FuzzResult out;
    std::vector<Image> corpus;

    // Seed entries first: prime coverage, surface stale findings.
    for (const Image &img : seedCorpus) {
        SupervisedOracle s = runOracleSupervised(img, cfg);
        out.retries += s.attempts > 1 ? s.attempts - 1 : 0;
        out.quarantined += s.quarantined ? 1 : 0;
        Image copy = img;
        fold(out, corpus, std::move(copy), s.o, true);
        if (out.findings.size() >= cfg.maxDivergences)
            return out;
    }

    for (size_t round = 0; round < cfg.rounds; ++round) {
        // Candidates derive from the pre-round corpus, sequentially.
        std::vector<Image> batch;
        batch.reserve(cfg.perRound);
        for (size_t i = 0; i < cfg.perRound; ++i) {
            uint64_t ordinal = round * cfg.perRound + i;
            batch.push_back(makeCandidate(
                verify::shardSeed(cfg.seed, ordinal), cfg, corpus));
        }

        // Oracle fan-out over the shared worker pool; results come
        // back in candidate order whatever the interleaving.
        verify::ParallelConfig pc;
        pc.threads = cfg.threads;
        pc.seedBase = cfg.seed;
        pc.shards = batch.size();
        std::vector<SupervisedOracle> results = verify::shardMap(
            pc, [&](size_t i, uint64_t) {
                return runOracleSupervised(batch[i], cfg);
            });

        for (size_t i = 0; i < batch.size(); ++i) {
            out.retries +=
                results[i].attempts > 1 ? results[i].attempts - 1 : 0;
            out.quarantined += results[i].quarantined ? 1 : 0;
            fold(out, corpus, std::move(batch[i]), results[i].o,
                 false);
            if (out.findings.size() >= cfg.maxDivergences)
                return out;
        }
    }
    return out;
}

OracleResult
replayImage(const Image &image, const FuzzConfig &cfg)
{
    return runOracle(image, cfg.oracle);
}

} // namespace zarf::fuzz
