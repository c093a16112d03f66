/**
 * @file
 * Big-step semantics tests: one test per evaluation rule of Fig. 3,
 * plus primitive behaviour, partial/over-application, and errors.
 */

#include <gtest/gtest.h>

#include "common/testprogs.hh"
#include "sem/bigstep.hh"
#include "support/logging.hh"
#include "zasm/zasm.hh"

namespace zarf
{
namespace
{

ValuePtr
evalMain(const std::string &text, IoBus &bus)
{
    Program p = assembleOrDie(text);
    BigStep bs(p, bus);
    EvalResult r = bs.runMain();
    EXPECT_TRUE(r.ok()) << "status " << int(r.status) << " at "
                        << r.where;
    return r.value;
}

ValuePtr
evalMainPure(const std::string &text)
{
    NullBus bus;
    return evalMain(text, bus);
}

SWord
intMain(const std::string &text)
{
    ValuePtr v = evalMainPure(text);
    EXPECT_TRUE(v && v->isInt()) << (v ? v->toString() : "<null>");
    return v ? v->intVal() : 0;
}

// (result): a result expression yields ρ(arg).
TEST(BigStep, ResultRule)
{
    EXPECT_EQ(intMain("fun main = result 7"), 7);
    EXPECT_EQ(intMain("fun main = result -3"), -3);
}

// (let-prim): primitive application evaluates via the ALU.
TEST(BigStep, LetPrimRule)
{
    EXPECT_EQ(intMain("fun main = let x = add 2 3\n result x"), 5);
    EXPECT_EQ(intMain("fun main = let x = sub 2 3\n result x"), -1);
    EXPECT_EQ(intMain("fun main = let x = mul 6 7\n result x"), 42);
}

// (let-fun): user function application.
TEST(BigStep, LetFunRule)
{
    EXPECT_EQ(intMain(R"(
fun main =
  let x = double 21
  result x
fun double n =
  let y = add n n
  result y
)"),
              42);
}

// (let-con): constructor application builds a tuple value.
TEST(BigStep, LetConRule)
{
    ValuePtr v = evalMainPure(R"(
con Pair a b
fun main =
  let p = Pair 1 2
  result p
)");
    ASSERT_TRUE(v->isCons());
    ASSERT_EQ(v->items().size(), 2u);
    EXPECT_EQ(v->items()[0]->intVal(), 1);
    EXPECT_EQ(v->items()[1]->intVal(), 2);
}

// (let-var): applying a closure held in a variable.
TEST(BigStep, LetVarRule)
{
    EXPECT_EQ(intMain(R"(
fun main =
  let f = adder 10
  let x = f 32
  result x
fun adder a b =
  let s = add a b
  result s
)"),
              42);
}

// (case-lit) and (case-else2): literal matching.
TEST(BigStep, CaseLitRule)
{
    const char *text = R"(
fun main =
  let x = classify %d
  result x
fun classify n =
  case n of
    0 =>
      result 100
    1 =>
      result 200
  else
    result 300
)";
    auto run = [&](int n) {
        return intMain(strprintf(text, n));
    };
    EXPECT_EQ(run(0), 100);
    EXPECT_EQ(run(1), 200);
    EXPECT_EQ(run(7), 300);
}

// (case-con) and (case-else1): constructor matching binds fields.
TEST(BigStep, CaseConRule)
{
    EXPECT_EQ(intMain(R"(
con None
con Some x
fun main =
  let s = Some 41
  case s of
    Some x =>
      let y = add x 1
      result y
    None =>
      result 0
  else
    result -1
)"),
              42);
}

TEST(BigStep, CaseElseOnUnmatchedCons)
{
    EXPECT_EQ(intMain(R"(
con A
con B
fun main =
  let a = A
  case a of
    B =>
      result 1
  else
    result 2
)"),
              2);
}

// applyFn under-application: a partial application is a closure.
TEST(BigStep, PartialApplicationIsClosure)
{
    ValuePtr v = evalMainPure(R"(
fun main =
  let f = add3 1 2
  result f
fun add3 a b c =
  let x = add a b
  let y = add x c
  result y
)");
    ASSERT_TRUE(v->isClosure());
    EXPECT_EQ(v->items().size(), 2u);
}

// applyFn over-application: result applied to leftover arguments.
TEST(BigStep, OverApplication)
{
    EXPECT_EQ(intMain(R"(
fun main =
  let x = makeAdder 30 12
  result x
fun makeAdder a =
  let f = adder a
  result f
fun adder a b =
  let s = add a b
  result s
)"),
              42);
}

// Partial application of a primitive is also a closure (applyPrim).
TEST(BigStep, PartialPrimApplication)
{
    EXPECT_EQ(intMain(R"(
fun main =
  let inc = add 1
  let x = inc 41
  result x
)"),
              42);
}

// applyCn partial application of a constructor.
TEST(BigStep, PartialConstructorApplication)
{
    ValuePtr v = evalMainPure(R"(
con Pair a b
fun main =
  let p1 = Pair 1
  let p = p1 2
  result p
)");
    ASSERT_TRUE(v->isCons());
    EXPECT_EQ(v->items()[0]->intVal(), 1);
    EXPECT_EQ(v->items()[1]->intVal(), 2);
}

// Division by zero yields the reserved Error constructor.
TEST(BigStep, DivByZeroIsError)
{
    ValuePtr v = evalMainPure(
        "fun main = let x = div 1 0\n result x");
    ASSERT_TRUE(v->isError());
    EXPECT_EQ(v->items()[0]->intVal(), kErrDivZero);
}

// Applying an integer as a function is the bad-apply error.
TEST(BigStep, ApplyIntegerIsError)
{
    ValuePtr v = evalMainPure(R"(
fun main =
  let x = add 1 2
  let y = id x
  let z = y 5
  result z
fun id a =
  result a
)");
    ASSERT_TRUE(v->isError());
    EXPECT_EQ(v->items()[0]->intVal(), kErrBadApply);
}

// Over-applying a saturated constructor is an arity error.
TEST(BigStep, OverApplyConstructorIsError)
{
    ValuePtr v = evalMainPure(R"(
con Box x
fun main =
  let b = Box 1
  let y = b 2
  result y
)");
    ASSERT_TRUE(v->isError());
    EXPECT_EQ(v->items()[0]->intVal(), kErrArity);
}

// Errors absorb further application and propagate through prims.
TEST(BigStep, ErrorPropagation)
{
    ValuePtr v = evalMainPure(R"(
fun main =
  let e = div 1 0
  let x = add e 1
  result x
)");
    ASSERT_TRUE(v->isError());
    EXPECT_EQ(v->items()[0]->intVal(), kErrDivZero);
}

// Primitive operands are checked in argument order, as the lazy
// engines force them: a non-integer, non-Error first operand is the
// type error even when a later operand is an Error.
TEST(BigStep, PrimTypeErrorPrecedesLaterErrorOperand)
{
    ValuePtr v = evalMainPure(R"(
con Pair a b
fun main =
  let p = Pair 1
  let e = div 1 0
  let r = shl p e
  result r
)");
    ASSERT_TRUE(v->isError());
    EXPECT_EQ(v->items()[0]->intVal(), kErrBadApply);
}

// Over-applying the Error constructor is the arity error; the new
// Error does not absorb the leftover argument.
TEST(BigStep, OverApplyErrorConstructorIsArityError)
{
    ValuePtr v = evalMainPure(R"(
fun main =
  let e = Error 0 0
  let r = div 0 e
  result r
)");
    ASSERT_TRUE(v->isError());
    EXPECT_EQ(v->items()[0]->intVal(), kErrArity);
}

// (getint)/(putint): I/O rules.
TEST(BigStep, GetPutInt)
{
    ScriptBus bus;
    bus.feed(0, { 5, 7, 9, 11, 13 });
    ValuePtr v = evalMain(testing::ioEchoProgramText(), bus);
    ASSERT_TRUE(v->isInt());
    EXPECT_EQ(bus.written(1),
              (std::vector<SWord>{ 15, 17, 19, 21, 23 }));
}

// putint returns the written value.
TEST(BigStep, PutIntReturnsValue)
{
    ScriptBus bus;
    ValuePtr v = evalMain(
        "fun main = let x = putint 3 99\n result x", bus);
    EXPECT_EQ(v->intVal(), 99);
    EXPECT_EQ(bus.written(3), (std::vector<SWord>{ 99 }));
}

// Whole-program rule: evaluation begins at main.
TEST(BigStep, MapProgram)
{
    // map (+1) [1,2,3] summed = 2+3+4 = 9.
    EXPECT_EQ(intMain(testing::mapProgramText()), 9);
}

TEST(BigStep, ChurchNumerals)
{
    // ((2^(2^3)) applications of succ) 0 = 256.
    EXPECT_EQ(intMain(testing::churchProgramText()), 256);
}

// The recursion-depth guard reports instead of crashing the host.
TEST(BigStep, DepthLimitReported)
{
    Program p = assembleOrDie(R"(
fun main =
  let x = spin 1
  result x
fun spin n =
  let m = spin n
  result m
)");
    NullBus bus;
    BigStepConfig cfg;
    cfg.maxDepth = 100;
    BigStep bs(p, bus, cfg);
    EvalResult r = bs.runMain();
    EXPECT_EQ(r.status, EvalResult::Status::DepthExceeded);
}

// The fuel guard catches non-recursive blowups too.
TEST(BigStep, FuelLimitReported)
{
    Program p = assembleOrDie(testing::countdownProgramText());
    NullBus bus;
    BigStepConfig cfg;
    cfg.maxSteps = 1000;
    BigStep bs(p, bus, cfg);
    EvalResult r = bs.runMain();
    EXPECT_EQ(r.status, EvalResult::Status::OutOfFuel);
}

// call(): direct invocation of a named function with values.
TEST(BigStep, DirectCall)
{
    Program p = assembleOrDie(testing::mapProgramText());
    NullBus bus;
    BigStep bs(p, bus);
    EvalResult r = bs.call("addOne", { Value::makeInt(9) });
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value->intVal(), 10);
}

// Machine integers wrap on the 31-bit ring.
TEST(BigStep, IntegerWraparound)
{
    EXPECT_EQ(intMain(R"(
fun main =
  let big = shl 1 30
  let neg = sub big 1
  let x = add big neg
  result x
)"),
              wrapInt31((1LL << 30) + ((1LL << 30) - 1)));
}

} // namespace
} // namespace zarf
