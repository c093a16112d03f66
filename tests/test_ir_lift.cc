/**
 * @file
 * Lifter soundness at the rejection boundary, and the canonical
 * operand-site walk it shares with the symbolic engine:
 *
 *  - structure-aware corruptions the decoder rejects (reserved
 *    operand-source bits, truncated argument lists, image prefixes)
 *    are rejected by the lifter too — a decoder-refused image never
 *    becomes well-formed IR;
 *  - conversely, whatever the lifter accepts the decoder accepted,
 *    on random bit-mutants of valid images (lift.ok ⇒ decode ok);
 *  - a callee id outside every table is *not* a rejection: it lifts
 *    to CalleeClass::Unknown and faults at evaluation time with the
 *    machine's exact status and cycle count (the decoder's documented
 *    wide-id leniency, carried through the IR unchanged);
 *  - the site walk (isa/sites.hh) the lifter uses to enumerate entry
 *    immediates is byte-identical to the recursive walk sym's
 *    collectSymSites shipped with before the IR existed — pointer
 *    list and value list both — so solver models keep landing on the
 *    same operand sites after the consolidation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/testprogs.hh"
#include "fuzz/genprog.hh"
#include "ir/eval.hh"
#include "ir/lift.hh"
#include "isa/binary.hh"
#include "isa/encoding.hh"
#include "isa/sites.hh"
#include "machine/machine.hh"
#include "sem/io.hh"
#include "support/random.hh"
#include "sym/eval.hh"
#include "zasm/zasm.hh"

namespace zarf
{
namespace
{

/** A freshly generated, known-good image plus its declaration spans
 *  (offset of each decl's info word and one-past its body). */
struct SpannedImage
{
    Image img;
    std::vector<std::pair<size_t, size_t>> spans;
};

SpannedImage
generateSpanned(uint64_t seed)
{
    fuzz::ProgramGenerator gen(seed);
    BuildResult b = gen.generate().tryBuild();
    EXPECT_TRUE(b.ok);
    SpannedImage s;
    s.img = encodeProgram(b.program);
    size_t pos = 2;
    for (Word i = 0; i < s.img[1] && pos + 2 <= s.img.size(); ++i) {
        size_t len = s.img[pos + 1];
        s.spans.push_back({ pos, pos + 2 + len });
        pos += 2 + len;
    }
    return s;
}

/** The lifter must agree with the decoder gate on this image: both
 *  accept or both reject, never one without the other. */
void
expectGateAgreement(const Image &img)
{
    bool decodes = decodeProgram(img).ok;
    ir::LiftResult lift = ir::liftImage(img);
    if (!decodes) {
        EXPECT_FALSE(lift.ok)
            << "lifter accepted a decoder-rejected image";
    } else if (lift.ok) {
        // Accepted: the module must at least be structurally sane.
        EXPECT_FALSE(lift.module.funcs.empty());
    }
    // decode-ok + lift-reject is legitimate: the lifter also applies
    // the machine's stricter predecode gate (fuzz/oracle.hh).
}

class LiftStructured : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(LiftStructured, ReservedSrcBitsAreRejected)
{
    SpannedImage s = generateSpanned(GetParam() * 613 + 9);
    size_t tried = 0;
    for (auto [lo, hi] : s.spans) {
        for (size_t w = lo + 2; w < hi && tried < 8; ++w) {
            Op op = opOf(s.img[w]);
            if (op != Op::Arg && op != Op::Case && op != Op::Result)
                continue;
            ++tried;
            Image mut = s.img;
            mut[w] |= Word(3) << 26;
            EXPECT_FALSE(decodeProgram(mut).ok);
            ir::LiftResult lift = ir::liftImage(mut);
            EXPECT_FALSE(lift.ok)
                << "lifter accepted reserved source bits";
            EXPECT_FALSE(lift.error.empty());
        }
    }
}

TEST_P(LiftStructured, TruncatedArgListsAreRejected)
{
    SpannedImage s = generateSpanned(GetParam() * 409 + 1);
    for (auto [lo, hi] : s.spans) {
        for (size_t w = lo + 2; w < hi; ++w) {
            if (opOf(s.img[w]) != Op::Let)
                continue;
            LetWord let = unpackLet(s.img[w]);
            for (Word extra : { Word(1), Word(16), kMaxArgs }) {
                Word nargs = std::min(let.nargs + extra, kMaxArgs);
                if (nargs == let.nargs)
                    continue;
                Image mut = s.img;
                mut[w] = (mut[w] & ~(Word(0x3ff) << 16)) |
                         (nargs << 16);
                expectGateAgreement(mut);
            }
        }
    }
}

TEST_P(LiftStructured, RandomMutantsNeverLiftWhatDecodeRejects)
{
    SpannedImage s = generateSpanned(GetParam() * 131 + 5);
    Rng rng(GetParam() * 2654435761u + 11);
    for (int trial = 0; trial < 20; ++trial) {
        Image mut = s.img;
        int flips = 1 + int(rng.below(4));
        for (int f = 0; f < flips; ++f) {
            size_t at = rng.below(mut.size());
            mut[at] ^= Word(1) << rng.below(32);
        }
        expectGateAgreement(mut);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiftStructured,
                         ::testing::Range(uint64_t(0), uint64_t(25)));

TEST(LiftGates, TruncationSweep)
{
    Program p = assembleOrDie(testing::mapProgramText());
    Image img = encodeProgram(p);
    for (size_t n = 0; n <= img.size(); ++n) {
        Image cut(img.begin(), img.begin() + ptrdiff_t(n));
        expectGateAgreement(cut);
    }
    // The untruncated image lifts.
    EXPECT_TRUE(ir::liftImage(img).ok);
}

TEST(LiftGates, BadHeaderNamesItsGate)
{
    Image img = encodeProgram(assembleOrDie(testing::mapProgramText()));
    img[0] ^= 1; // break the magic
    ir::LiftResult lift = ir::liftImage(img);
    ASSERT_FALSE(lift.ok);
    EXPECT_EQ(lift.error.rfind("header: ", 0), 0u) << lift.error;
}

/** A callee id past every declaration: decoder-accepted, lifted as
 *  Unknown, and faulting at runtime in lockstep with the machine. */
TEST(LiftLeniency, OutOfBandCalleeIdLatchesLikeTheMachine)
{
    Program p;
    Let l{ calleeFunc(kFirstUserFuncId + 5), { opImm(1) }, nullptr };
    l.body = std::make_unique<Expr>(Result{ opLocal(0) });
    p.decls.push_back(
        Decl{ false, "main", 0, 1,
              std::make_unique<Expr>(std::move(l)) });
    Image img = encodeProgram(p);
    ASSERT_TRUE(decodeProgram(img).ok);

    ir::LiftResult lift = ir::liftImage(img);
    ASSERT_TRUE(lift.ok) << lift.error;
    const ir::Module &m = lift.module;
    ASSERT_TRUE(m.hasEntry);
    const ir::Op &op = m.ops[m.funcs[m.entry].body];
    ASSERT_EQ(op.kind, ir::OpKind::Let);
    EXPECT_EQ(op.callee.cls, ir::CalleeClass::Unknown);

    NullBus nb;
    MachineConfig mc;
    mc.semispaceWords = 1u << 13;
    Machine mach(img, nb, mc);
    Machine::Outcome mo = mach.run(100'000);
    ASSERT_EQ(mo.status, MachineStatus::Stuck) << mo.diagnostic;

    NullBus ib;
    ir::Outcome io = ir::evalModule(m, ib);
    EXPECT_EQ(io.status, ir::Outcome::Status::Stuck)
        << io.diagnostic;
    EXPECT_EQ(io.cycles, mach.cycles());
}

// ----------------------------------------------------------------
// Site-walk regression: the canonical walk vs. the legacy one
// ----------------------------------------------------------------

/** The recursive walk collectSymSites used before isa/sites.hh
 *  existed, reproduced verbatim as the regression baseline. */
void
legacyWalk(Expr &e, unsigned maxVars, std::vector<Operand *> &out)
{
    auto claim = [&](Operand &op) {
        if (op.src == Src::Imm && out.size() < maxVars)
            out.push_back(&op);
    };
    if (e.isLet()) {
        Let &l = e.asLet();
        for (Operand &a : l.args)
            claim(a);
        legacyWalk(*l.body, maxVars, out);
        return;
    }
    if (e.isCase()) {
        Case &c = e.asCase();
        claim(c.scrut);
        for (auto &br : c.branches)
            legacyWalk(*br.body, maxVars, out);
        legacyWalk(*c.elseBody, maxVars, out);
        return;
    }
    claim(e.asResult().value);
}

std::vector<Operand *>
legacySites(Program &p, unsigned maxVars)
{
    std::vector<Operand *> out;
    int entry = p.entryIndex();
    if (entry >= 0 && p.decls[size_t(entry)].body)
        legacyWalk(*p.decls[size_t(entry)].body, maxVars, out);
    return out;
}

TEST(SiteWalk, CanonicalWalkMatchesLegacyOrderEverywhere)
{
    size_t programsWithSites = 0;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        fuzz::ProgramGenerator gen(seed * 17 + 3);
        BuildResult b = gen.generate().tryBuild();
        if (!b.ok)
            continue;
        Program &p = b.program;

        std::vector<Operand *> legacy = legacySites(p, 64);
        std::vector<Operand *> sites = sym::collectSymSites(p, 64);
        ASSERT_EQ(legacy, sites) << "seed " << seed;
        programsWithSites += !sites.empty();

        // And the lifter's site table names the same list: entry
        // site k is the IR operand holding legacy site k's value.
        ir::LiftResult lift = ir::liftProgram(p);
        ASSERT_TRUE(lift.ok);
        const ir::Module &m = lift.module;
        ASSERT_EQ(m.entrySites.size(), legacy.size());
        for (size_t i = 0; i < legacy.size(); ++i) {
            const Operand &op = m.operands[m.entrySites[i]];
            EXPECT_EQ(op.src, Src::Imm);
            EXPECT_EQ(op.val, legacy[i]->val)
                << "seed " << seed << " site " << i;
        }
    }
    EXPECT_GT(programsWithSites, 50u);
}

TEST(SiteWalk, SharedWalkCoversEveryOperandPosition)
{
    // One handwritten program with an imm in every syntactic
    // position: let args, case scrutinee, branch bodies, else
    // body, result — the exact order contract of isa/sites.hh.
    Program p = assembleOrDie(R"(
con Box v

fun main =
  let b = Box 11
  case b of
    Box v =>
      let s = add v 22
      result s
  else
    result 33
)");
    std::vector<SWord> vals;
    forEachOperandSite(*p.decls[1].body, [&](const Operand &op) {
        if (op.src == Src::Imm)
            vals.push_back(op.val);
    });
    EXPECT_EQ(vals, (std::vector<SWord>{ 11, 22, 33 }));

    std::vector<Operand *> sites = sym::collectSymSites(p, 64);
    ASSERT_EQ(sites.size(), 3u);
    EXPECT_EQ(sites[0]->val, 11);
    EXPECT_EQ(sites[1]->val, 22);
    EXPECT_EQ(sites[2]->val, 33);
}

} // namespace
} // namespace zarf
