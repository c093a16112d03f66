/**
 * @file
 * Word-level encoding tests: every pack/unpack pair must round-trip
 * across its full field ranges (paper, Fig. 4d).
 */

#include <gtest/gtest.h>

#include <ostream>

#include "isa/encoding.hh"

namespace zarf
{

/**
 * gtest's printer for Operand parameters, found by argument-dependent
 * lookup: a name token such as "Local_7" or "Imm_minus360". ctest's
 * test discovery puts the printed parameter in place of the instance
 * index, so this token is the last part of each test ID. Without a
 * printer gtest prints the raw object bytes, padding included, and
 * the IDs changed from one discovery to the next.
 */
static void
PrintTo(const Operand &op, std::ostream *os)
{
    *os << (op.src == Src::Local ? "Local_"
            : op.src == Src::Arg ? "Arg_"
                                 : "Imm_");
    if (op.val < 0)
        *os << "minus" << -int64_t(op.val);
    else
        *os << op.val;
}

namespace
{

TEST(Encoding, LetRoundTrip)
{
    for (CalleeKind k : { CalleeKind::Func, CalleeKind::Local,
                          CalleeKind::Arg }) {
        for (Word nargs : { 0u, 1u, 5u, kMaxArgs }) {
            for (Word id : { 0u, 1u, 0x100u, 0xffffu }) {
                Word w = packLet(k, nargs, id);
                EXPECT_EQ(opOf(w), Op::Let);
                LetWord d = unpackLet(w);
                EXPECT_EQ(d.kind, k);
                EXPECT_EQ(d.nargs, nargs);
                EXPECT_EQ(d.id, id);
            }
        }
    }
}

class OperandRoundTrip : public ::testing::TestWithParam<Operand>
{};

TEST_P(OperandRoundTrip, PackUnpack)
{
    const Operand op = GetParam();
    Word w = packOperand(op);
    EXPECT_EQ(opOf(w), Op::Arg);
    Operand d = unpackOperand(w);
    EXPECT_EQ(d.src, op.src);
    EXPECT_EQ(d.val, op.val);
}

INSTANTIATE_TEST_SUITE_P(
    AllSources, OperandRoundTrip,
    ::testing::Values(opLocal(0), opLocal(7),
                      opLocal(SWord(kMaxSlotIndex)), opArg(0), opArg(3),
                      opArg(SWord(kMaxSlotIndex)), opImm(0), opImm(1),
                      opImm(-1), opImm(360), opImm(-360), opImm(kMaxImm),
                      opImm(kMinImm)));

TEST(Encoding, CaseScrutRoundTrip)
{
    Word w = packCase(opArg(2));
    EXPECT_EQ(opOf(w), Op::Case);
    Operand d = unpackCaseScrut(w);
    EXPECT_EQ(d.src, Src::Arg);
    EXPECT_EQ(d.val, 2);
}

TEST(Encoding, PatLitRoundTrip)
{
    for (Word skip : { 0u, 1u, 100u, kMaxSkip }) {
        for (SWord lit : { SWord(0), SWord(42), SWord(-42),
                           kMaxPatLit, kMinPatLit }) {
            Word w = packPatLit(skip, lit);
            EXPECT_EQ(opOf(w), Op::PatLit);
            PatWord p = unpackPat(w);
            EXPECT_FALSE(p.isCons);
            EXPECT_EQ(p.skip, skip);
            EXPECT_EQ(p.lit, lit);
        }
    }
}

TEST(Encoding, PatConsRoundTrip)
{
    Word w = packPatCons(17, 0x104);
    PatWord p = unpackPat(w);
    EXPECT_TRUE(p.isCons);
    EXPECT_EQ(p.skip, 17u);
    EXPECT_EQ(p.consId, 0x104u);
}

TEST(Encoding, ResultRoundTrip)
{
    Operand d = unpackResult(packResult(opImm(-5)));
    EXPECT_EQ(d.src, Src::Imm);
    EXPECT_EQ(d.val, -5);
}

TEST(Encoding, InfoRoundTrip)
{
    for (bool cons : { false, true }) {
        for (Word locals : { 0u, 3u, kMaxLocals }) {
            for (Word arity : { 0u, 2u, 32u, kMaxArity }) {
                InfoWord i = unpackInfo(packInfo(cons, locals, arity));
                EXPECT_EQ(i.isCons, cons);
                EXPECT_EQ(i.numLocals, locals);
                EXPECT_EQ(i.arity, arity);
            }
        }
    }
}

TEST(Encoding, OpcodesAreDistinct)
{
    // Every word kind must be distinguishable from its top nibble.
    EXPECT_NE(opOf(packLet(CalleeKind::Func, 0, 0)),
              opOf(packOperand(opImm(0))));
    EXPECT_NE(opOf(packCase(opArg(0))), opOf(packPatElse()));
    EXPECT_NE(opOf(packResult(opImm(0))), opOf(packInfo(false, 0, 0)));
}

TEST(Encoding, WrapInt31)
{
    EXPECT_EQ(wrapInt31(0), 0);
    EXPECT_EQ(wrapInt31(5), 5);
    EXPECT_EQ(wrapInt31(-5), -5);
    EXPECT_EQ(wrapInt31(kIntMax), kIntMax);
    EXPECT_EQ(wrapInt31(kIntMin), kIntMin);
    // Overflow wraps around the 31-bit ring.
    EXPECT_EQ(wrapInt31(int64_t(kIntMax) + 1), kIntMin);
    EXPECT_EQ(wrapInt31(int64_t(kIntMin) - 1), kIntMax);
}

} // namespace
} // namespace zarf
