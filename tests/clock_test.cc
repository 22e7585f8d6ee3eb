/**
 * @file
 * Tests for the two-phase clocked simulation framework.
 */

#include <gtest/gtest.h>

#include "oracles/clock.hh"

namespace antsim {
namespace {

/** Counts its own evaluate/commit invocations. */
class ProbeModule : public Module
{
  public:
    void evaluate() override { ++evals; }
    void commit() override { ++commits; }

    int evals = 0;
    int commits = 0;
};

/** A one-stage pipeline that increments values passing through. */
class IncrementStage : public Module
{
  public:
    explicit IncrementStage(PipeReg<int> &in, PipeReg<int> &out)
        : in_(in), out_(out)
    {}

    void
    evaluate() override
    {
        if (in_.valid())
            out_.setNext(in_.value() + 1);
        else
            out_.clearNext();
    }

    void commit() override { out_.latch(); }

  private:
    PipeReg<int> &in_;
    PipeReg<int> &out_;
};

TEST(Clock, TickRunsEvaluateThenCommit)
{
    Simulator sim;
    ProbeModule probe;
    sim.add(&probe);
    sim.tick();
    EXPECT_EQ(probe.evals, 1);
    EXPECT_EQ(probe.commits, 1);
    EXPECT_EQ(sim.cycle(), 1u);
}

TEST(Clock, RunAdvancesMultipleCycles)
{
    Simulator sim;
    ProbeModule probe;
    sim.add(&probe);
    sim.run(10);
    EXPECT_EQ(probe.evals, 10);
    EXPECT_EQ(sim.cycle(), 10u);
}

TEST(PipeReg, StartsInvalid)
{
    PipeReg<int> reg;
    EXPECT_FALSE(reg.valid());
}

TEST(PipeReg, LatchMakesValueVisible)
{
    PipeReg<int> reg;
    reg.setNext(42);
    EXPECT_FALSE(reg.valid()); // not yet latched
    reg.latch();
    EXPECT_TRUE(reg.valid());
    EXPECT_EQ(reg.value(), 42);
}

TEST(PipeReg, ClearNextInsertsBubble)
{
    PipeReg<int> reg;
    reg.setNext(1);
    reg.latch();
    reg.clearNext();
    reg.latch();
    EXPECT_FALSE(reg.valid());
}

TEST(PipeReg, LatchWithoutSetNextIsBubble)
{
    PipeReg<int> reg;
    reg.setNext(9);
    reg.latch();
    reg.latch(); // no setNext before this edge
    EXPECT_FALSE(reg.valid());
}

TEST(Clock, PipelineTransportsWithOneCycleLatencyPerStage)
{
    // Two stages: value injected into reg0 appears at reg2 after two
    // ticks, incremented twice.
    PipeReg<int> reg0;
    PipeReg<int> reg1;
    PipeReg<int> reg2;
    IncrementStage s1(reg0, reg1);
    IncrementStage s2(reg1, reg2);
    Simulator sim;
    sim.add(&s1);
    sim.add(&s2);

    reg0.setNext(10);
    reg0.latch();
    sim.tick();
    EXPECT_TRUE(reg1.valid());
    EXPECT_EQ(reg1.value(), 11);
    EXPECT_FALSE(reg2.valid());
    // Insert a bubble behind the value.
    reg0.latch();
    sim.tick();
    EXPECT_FALSE(reg1.valid());
    EXPECT_TRUE(reg2.valid());
    EXPECT_EQ(reg2.value(), 12);
}

TEST(Clock, TwoPhaseSemanticsPreventSameCycleLeak)
{
    // Even though stage 1 is evaluated before stage 2 in registration
    // order, a value written by stage 1 must not reach stage 2 in the
    // same cycle.
    PipeReg<int> reg0;
    PipeReg<int> reg1;
    PipeReg<int> reg2;
    IncrementStage s1(reg0, reg1);
    IncrementStage s2(reg1, reg2);
    Simulator sim;
    sim.add(&s1);
    sim.add(&s2);
    reg0.setNext(5);
    reg0.latch();
    sim.tick();
    EXPECT_FALSE(reg2.valid());
}

} // namespace
} // namespace antsim
