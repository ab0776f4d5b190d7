/**
 * @file
 * The benchmark's workload interface.  A workload owns its inputs
 * (made from the command-line seed), runs whole rounds of the same
 * operations through the simulator's public entry points, and
 * checks their outputs against values computed here or against
 * properties the method must have — never against stored output.
 */

#ifndef E2EBENCH_WORKLOAD_HH
#define E2EBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.hh"

namespace e2e
{

/** What a check found wrong; empty means it passed. */
using Problems = std::vector<std::string>;

/** Operations one step attempted, and how many of them failed. */
struct StepWork
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * A round is a fixed list of steps, each one call into the
 * simulator's public API (a runOnce, a log scan, a runFleet).  The
 * caller times every step, so a burst of host noise spoils one
 * step's sample rather than a whole round's.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Input generation, pool start-up and one untimed warm-up
     *  operation. */
    virtual void setUp() = 0;

    /** Steps in one round. */
    virtual std::size_t steps() const = 0;

    /** Step @p i of the current round; the caller times exactly
     *  this. */
    virtual StepWork step(std::size_t i) = 0;

    /**
     * Untimed, after each round: compare the round's outputs with
     * round 1's (the inputs are the same, so the outputs must be
     * too) and release them.  Returns the operations whose outputs
     * differed.
     */
    virtual std::uint64_t settleRound(Problems *problems) = 0;

    /**
     * Untimed, after the timed section: the independent output
     * checks on round 1's outputs, then each check's self-test on a
     * known-bad copy of those outputs.
     */
    virtual void check(Problems *problems) = 0;

    /** @{ Simulated work in one round (valid after check()). */
    virtual double simSeconds() const = 0;
    virtual double simInstructions() const = 0;
    /** @} */
};

/** Tables II and III: every tool over matmul and dgemm. */
std::unique_ptr<Workload> makePaperTables(std::uint64_t seed);

/** One long K-LEB session at the 100 us floor, then a log scan. */
std::unique_ptr<Workload> makeKlebHighrate(std::uint64_t seed);

/** One runFleet over a faulty fleet of 2-core machines. */
std::unique_ptr<Workload> makeFleet(std::uint64_t seed);

/**
 * @{ Traced passes: time each layer's public entry point from
 * outside, over the same inputs the workload uses.  Only a traced
 * run calls these.
 */
void tracePaperTables(std::uint64_t seed, LayerSamples *out,
                      Problems *problems);
void traceKlebHighrate(std::uint64_t seed, LayerSamples *out,
                       Problems *problems);
void traceFleet(std::uint64_t seed, LayerSamples *out,
                Problems *problems);
/** @} */

} // namespace e2e

#endif // E2EBENCH_WORKLOAD_HH
