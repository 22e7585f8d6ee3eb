/**
 * @file
 * Minimal synchronous-simulation framework, for the test oracles.
 *
 * The throughput-level accelerator models in src/scnn and src/ant
 * compute their cycle counts with closed loops, but the tick-accurate
 * ANT pipeline oracle (oracles/ant_pipeline.hh) advances stage by stage
 * each cycle. This framework provides the tick loop: modules register
 * with a Simulator; each cycle every module's evaluate() observes
 * current register state and every module's commit() latches
 * next-state, giving two-phase semantics so evaluation order cannot
 * leak combinational values across a pipeline register.
 */

#ifndef ANTSIM_ORACLES_CLOCK_HH
#define ANTSIM_ORACLES_CLOCK_HH

#include <cstdint>
#include <vector>

namespace antsim {

/** A synchronous hardware block. */
class Module
{
  public:
    virtual ~Module() = default;

    /** Combinational phase: read registered state, compute next state. */
    virtual void evaluate() = 0;

    /** Clock edge: latch next state into registered state. */
    virtual void commit() = 0;
};

/** A simple two-phase clocked simulator. */
class Simulator
{
  public:
    /** Register a module; modules are evaluated in registration order. */
    void add(Module *module) { modules_.push_back(module); }

    /** Advance one clock cycle (evaluate all, then commit all). */
    void tick();

    /** Advance @p cycles clock cycles. */
    void run(std::uint64_t cycles);

    /** Cycles elapsed since construction. */
    std::uint64_t cycle() const { return cycle_; }

  private:
    std::vector<Module *> modules_;
    std::uint64_t cycle_ = 0;
};

/**
 * A pipeline register holding a value of type T plus a valid bit.
 * evaluate() writes via setNext(); commit() makes it visible.
 */
template <typename T>
class PipeReg
{
  public:
    /** Registered (visible) value; meaningful only when valid(). */
    const T &value() const { return current_; }

    /** Registered valid bit. */
    bool valid() const { return currentValid_; }

    /** Schedule a value to be latched at the next clock edge. */
    void
    setNext(const T &v)
    {
        next_ = v;
        nextValid_ = true;
    }

    /** Schedule a bubble at the next clock edge. */
    void
    clearNext()
    {
        nextValid_ = false;
    }

    /** Latch (called from a Module::commit). */
    void
    latch()
    {
        current_ = next_;
        currentValid_ = nextValid_;
        nextValid_ = false;
    }

  private:
    T current_{};
    T next_{};
    bool currentValid_ = false;
    bool nextValid_ = false;
};

} // namespace antsim

#endif // ANTSIM_ORACLES_CLOCK_HH
