#include "supervisor.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "kernel/kernel.hh"
#include "kernel/process.hh"

namespace klebsim::kleb
{

SupervisorBehavior::SupervisorBehavior(Ward ward,
                                       const Heartbeat *heartbeat,
                                       Tuning tuning)
    : ward_(std::move(ward)), heartbeat_(heartbeat),
      tuning_(tuning)
{
    panic_if(heartbeat_ == nullptr, "supervisor without heartbeat");
    panic_if(!ward_.controller || !ward_.finishedCleanly ||
                 !ward_.moduleLoaded || !ward_.restart,
             "supervisor ward is missing callbacks");
    stats_.budget = tuning_.restartBudget;
}

void
SupervisorBehavior::noteReattach(bool armed)
{
    if (armed)
        ++stats_.reattaches;
    else
        ++stats_.failedReattaches;
}

kernel::ServiceOp
SupervisorBehavior::nextOp(kernel::Kernel &kernel,
                           kernel::Process &self)
{
    (void)kernel;
    (void)self;
    using Op = kernel::ServiceOp;

    switch (state_) {
      case State::poll:
        state_ = State::evaluate;
        return Op::makeSleep(tuning_.pollInterval);

      case State::evaluate:
        // Healthy path: go back to sleep.  The syscall body may
        // override the next state on failure detection.
        state_ = State::poll;
        return Op::makeSyscall(
            [this](kernel::Kernel &k, kernel::Process &) {
                ++stats_.polls;
                if (ward_.finishedCleanly()) {
                    state_ = State::done;
                    return;
                }
                kernel::Process *c = ward_.controller();
                const bool dead =
                    c == nullptr ||
                    c->state() == kernel::ProcState::zombie;
                // Snapshot the beat once: re-reading a concurrently
                // stamped cell between the staleness comparisons
                // could see two different beats and judge a live
                // controller hung (or vice versa).
                const Tick last = heartbeat_->lastBeat.load(
                    std::memory_order_relaxed);
                const bool stale =
                    !dead && k.now() > last &&
                    k.now() - last > tuning_.heartbeatTimeout;
                if (!dead && !stale)
                    return;
                if (!ward_.moduleLoaded()) {
                    // Nothing left to re-attach to.
                    state_ = State::done;
                    return;
                }
                if (static_cast<int>(stats_.restarts) >=
                    tuning_.restartBudget) {
                    stats_.budgetExhausted = true;
                    state_ = State::done;
                    return;
                }
                if (stale) {
                    // A hung controller is still holding the device
                    // open: kill it before replacing it.
                    k.kill(c);
                    ++stats_.kills;
                }
                deathTick_ = c ? c->exitTick() : k.now();
                state_ = State::backoff;
            },
            tuning_.pollCost, tuning_.pollFootprint);

      case State::backoff: {
        state_ = State::restart;
        // The exponent is clamped, but a large restartBackoff
        // tuning could still overflow the shift; saturate instead.
        const int shift = std::min<int>(
            static_cast<int>(stats_.restarts), 10);
        return Op::makeSleep(
            saturatingShl(tuning_.restartBackoff, shift));
      }

      case State::restart:
        state_ = State::poll;
        return Op::makeSyscall(
            [this](kernel::Kernel &k, kernel::Process &) {
                kernel::Process *np = ward_.restart(deathTick_);
                if (np == nullptr) {
                    state_ = State::done;
                    return;
                }
                ++stats_.restarts;
                stats_.totalOutage += k.now() - deathTick_;
                stats_.lastRestartTick = k.now();
            });

      case State::done:
        if (!gaveUp_) {
            gaveUp_ = true;
            if (!ward_.finishedCleanly() && ward_.giveUp)
                ward_.giveUp();
        }
        return Op::makeExit();
    }
    panic("supervisor behavior ran past exit");
}

} // namespace klebsim::kleb
