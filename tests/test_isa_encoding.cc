/**
 * @file
 * Word-level encoding tests: every pack/unpack pair must round-trip
 * across its full field ranges (paper, Fig. 4d).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

#include "isa/encoding.hh"

namespace zarf
{
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

/**
 * An Operand's object representation, padding included. gtest names
 * each instance of a value-parameterised test after its printed
 * parameter and prints a type without a printer as its raw bytes. An
 * Operand's three padding bytes are whatever the stack held, so its
 * test IDs changed from one test discovery to the next; held as data,
 * the bytes are fixed, and each instance keeps the ID it was first
 * recorded under.
 */
struct OperandBytes
{
    unsigned char b[sizeof(Operand)];
};

static_assert(offsetof(Operand, src) == 0 && sizeof(Src) == 1 &&
                  offsetof(Operand, val) == 4 && sizeof(Operand) == 8,
              "OperandBytes assumes Operand has padding bytes 1..3");

/** @p op with its padding bytes set to @p p1, @p p2, @p p3. */
OperandBytes
pinned(Operand op, unsigned char p1 = 0, unsigned char p2 = 0,
       unsigned char p3 = 0)
{
    OperandBytes o;
    std::memcpy(o.b, &op, sizeof op);
    o.b[1] = p1;
    o.b[2] = p2;
    o.b[3] = p3;
    return o;
}

class OperandRoundTrip : public ::testing::TestWithParam<OperandBytes>
{};

TEST_P(OperandRoundTrip, PackUnpack)
{
    Operand op;
    std::memcpy(&op, GetParam().b, sizeof op);
    Word w = packOperand(op);
    EXPECT_EQ(opOf(w), Op::Arg);
    Operand d = unpackOperand(w);
    EXPECT_EQ(d.src, op.src);
    EXPECT_EQ(d.val, op.val);
}

INSTANTIATE_TEST_SUITE_P(
    AllSources, OperandRoundTrip,
    ::testing::Values(
        pinned(opLocal(0), 0xff, 0x48), pinned(opLocal(7), 0xff, 0x70),
        pinned(opLocal(SWord(kMaxSlotIndex))),
        pinned(opArg(0)), pinned(opArg(3)),
        pinned(opArg(SWord(kMaxSlotIndex))),
        pinned(opImm(0), 0x00, 0x01, 0x1b), pinned(opImm(1), 0x00, 0x04),
        pinned(opImm(-1), 0xda, 0x48), pinned(opImm(360), 0xda, 0x55),
        pinned(opImm(-360)), pinned(opImm(kMaxImm)),
        pinned(opImm(kMinImm))));

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
