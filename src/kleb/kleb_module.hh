/**
 * @file
 * The K-LEB kernel module (the paper's core contribution).
 *
 * Responsibilities, mirroring paper section III / Fig. 2:
 *  (1) ioctl CONFIG/START receives the target PID, event list and
 *      timer period from the controller and programs the PMU;
 *  (2) a kprobe on the scheduler's context-switch tracepoint
 *      isolates the target: counters run (and the HRTimer ticks)
 *      only while the target or one of its descendants is on-core;
 *  (3) the HRTimer interrupt handler snapshots the counters into a
 *      ring buffer in kernel memory;
 *  (4) the safety mechanism pauses collection when the buffer
 *      fills, resuming automatically once the controller drains it;
 *  (5) on STOP or target exit, a final exact snapshot is recorded
 *      and the remaining samples are handed to user space.
 *
 * SMP hardening (per-CPU sessions): every core the target ever runs
 * on gets its own PMU programming, HRTimer and sample ring, created
 * lazily at first switch-in so a single-core session allocates
 * exactly what the original single-core module did.  Counter
 * attribution telescopes across migrations — the PMU freeze at
 * switch-out is the snapshot; the delta accumulated on the old core
 * is folded into a carried base at the next switch-in elsewhere, so
 * logged counts stay cumulative and monotone no matter how often
 * the scheduler moves the target.  CPU hotplug quiesces the
 * offlined core's ring into a spill queue (relocated, never
 * dropped) bracketed by coreOffline/coreOnline marker records, and
 * PMU claims lost to a contending owner degrade monitoring on that
 * core only, with every forfeited window counted.
 */

#ifndef KLEBSIM_KLEB_KLEB_MODULE_HH
#define KLEBSIM_KLEB_KLEB_MODULE_HH

#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "base/ring_buffer.hh"
#include "base/types.hh"
#include "hw/timer_device.hh"
#include "kernel/kernel.hh"
#include "kleb_config.hh"
#include "sample.hh"
#include "sample_arena.hh"

namespace klebsim::kleb
{

/**
 * Request structure for read() on /dev/kleb: the controller passes
 * a destination vector; the module fills it and reports whether
 * monitoring has finished.
 */
struct DrainRequest
{
    std::vector<Sample> *out = nullptr;
    std::size_t max = 0;    //!< 0 = drain everything
    bool finished = false;  //!< set by the module
};

/**
 * The module.
 */
class KLebModule : public kernel::KernelModule
{
  public:
    /** Calibrated micro-costs of the module's own code paths. */
    struct Tuning
    {
        /** HRTimer handler body (counter reads + buffer store). */
        Tick handlerCost = nsToTicks(900);

        /** Handler cache footprint. */
        std::uint64_t handlerFootprint = 512;

        /** Kernel-side cost per sample copied to user space. */
        Tick readPerSample = nsToTicks(60);

        /** CONFIG ioctl parse/allocate cost. */
        Tick configCost = usToTicks(120);

        /** SET_PERIOD ioctl cost (validate + reprogram timer). */
        Tick setPeriodCost = usToTicks(1);

        /** Resume threshold: continue once fill <= capacity/N. */
        std::size_t resumeDivisor = 2;

        /**
         * PMU-claim attempts per core before that core degrades to
         * unmonitored (pmu.contend).  Each failed claim forfeits
         * one on-core window; once degraded, the target runs
         * unmeasured there until the core is hotplug-cycled.
         */
        int maxClaimRetries = 3;
    };

    KLebModule();
    explicit KLebModule(Tuning tuning);
    ~KLebModule() override;

    /** @{ KernelModule interface. */
    std::string name() const override { return "k_leb"; }
    void init(kernel::Kernel &kernel) override;
    void exitModule(kernel::Kernel &kernel) override;
    long ioctl(kernel::Kernel &kernel, kernel::Process &caller,
               std::uint32_t cmd, void *arg) override;
    long read(kernel::Kernel &kernel, kernel::Process &caller,
              void *buf, std::size_t len) override;
    /** @} */

    /** Process the module should wake on pause/finish. */
    void setWakeTarget(kernel::Process *proc) { wakeTarget_ = proc; }

    /** Live status (same data as the STATUS ioctl). */
    KLebStatus status() const;

    /**
     * The active core's HRTimer (null before START); test access.
     * With per-CPU sessions there is one timer per visited core —
     * this returns the one armed where the target runs now.
     */
    kernel::HrTimer *timer();

    /**
     * Install a jitter model on every per-core timer, current and
     * future (tests use the ideal model).  Replaces the old
     * timer()->setJitterModel() poke, which only reached the start
     * core's timer.
     */
    void setTimerJitterModel(const hw::TimerJitterModel &m);

    const KLebConfig &config() const { return cfg_; }

    /** True while the target (tree) is on-core and counting. */
    bool counting() const { return counting_; }

  private:
    /**
     * Per-core session state.  One slot per core, indexed by
     * CoreId; ring and timer are created lazily at first switch-in
     * on that core so the default single-core path performs exactly
     * the allocations (and RNG forks) the pre-SMP module did.
     *
     * Single-writer discipline: each slot is only touched from its
     * own core's interrupt/switch context (or with that core
     * quiesced during hotplug).  Every simulated core runs on the
     * System's one host thread, so this is an ordering contract,
     * not a host-thread one.  There is no mutex to KLEB_GUARDED_BY
     * — the capability here is "the slot's core is current or
     * quiesced", which the percpu-access lint rule checks.
     */
    struct PerCpuState
    {
        std::unique_ptr<RingBuffer<Sample>> ring;
        kernel::HrTimer *timer = nullptr;
        bool timerStarted = false;
        bool paused = false;      //!< safety mechanism, this ring
        bool programmed = false;  //!< PMU selectors written
        bool claimed = false;     //!< advisory PMU ownership held
        bool degraded = false;    //!< lost the PMU; unmonitored
        int claimFailures = 0;

        /** Overflow-aware delta state for this core's counters. */
        std::uint64_t modulus = 0;
        std::array<std::uint64_t, maxSampleEvents> lastRaw{};
        std::array<std::uint64_t, maxSampleEvents> wrapBase{};

        /**
         * Wrap-corrected reading of each counter at the moment this
         * core last became (or stopped being) the active core; the
         * delta beyond it is what this core has measured since.
         */
        std::array<std::uint64_t, maxSampleEvents> base{};
    };

    bool isMonitored(const kernel::Process *proc);
    void onSwitch(kernel::Process *prev, kernel::Process *next,
                  CoreId core);
    void onCpuEvent(CoreId core, kernel::CpuEvent event);
    void onProcessExit(kernel::Process &proc);
    void onTimer(CoreId core);
    void startOrResumeTimer(CoreId core);
    void recordSample(SampleCause cause);
    void recordMarker(SampleCause cause, CoreId core);
    void programPmu(CoreId core);
    bool claimPmu(CoreId core);
    void releaseAll();
    void foldActiveDelta();
    void currentCounts(Sample &s);
    std::uint64_t readCorrected(CoreId core, std::size_t i);
    void quiesceCore(CoreId core);
    void stopMonitoring(SampleCause cause);
    void wakeController();
    PerCpuState &slot(CoreId core);
    const PerCpuState *slotIfValid(CoreId core) const;
    std::uint64_t claimCookie() const;

    Tuning tuning_;
    kernel::Kernel *kernel_ = nullptr;
    KLebConfig cfg_;

    /** (isFixed, counterIdx) per configured event. */
    struct CounterRef
    {
        bool fixed = false;
        int idx = 0;
    };
    std::vector<CounterRef> counterMap_;

    /** One session slot per core; see PerCpuState. */
    std::vector<PerCpuState> perCpu_;

    /**
     * Samples relocated off offlined cores' rings, plus the hotplug
     * marker records.  Kept timestamp-sorted (quiesce batches are
     * merged in) so the k-way drain stays globally ordered.
     */
    std::deque<Sample> spill_;

    /**
     * Cache-line-aligned staging slab for bulk drains (controller
     * read() fast path, hotplug quiesce relocation), sized to the
     * ring capacity at CONFIG so no drain ever allocates.
     */
    SampleArena arena_;

    /**
     * Counts accumulated on cores the target has already left:
     * sample values are carried_ + (active core's delta past its
     * base), which telescopes to a single cumulative series.
     */
    std::array<std::uint64_t, maxSampleEvents> carried_{};

    kernel::Process *wakeTarget_ = nullptr;

    int switchHookId_ = -1;
    int exitHookId_ = -1;
    int cpuHookId_ = -1;

    bool configured_ = false;
    bool monitoring_ = false;
    bool counting_ = false;
    bool targetAlive_ = false;

    /** Core the session started on (timer anchored there first). */
    CoreId startCore_ = invalidCore;

    /** Core the target is (or last was) monitored on. */
    CoreId activeCore_ = invalidCore;

    std::optional<hw::TimerJitterModel> jitterOverride_;

    /** @{ Migration ledger: kept + migrated + dropped == emitted. */
    std::uint64_t samplesEmitted_ = 0;
    std::uint64_t samplesKept_ = 0;
    std::uint64_t samplesMigrated_ = 0;
    std::uint64_t samplesDropped_ = 0;
    /** @} */

    std::uint64_t coreMarkers_ = 0;
    std::uint64_t targetMigrations_ = 0;
    std::uint64_t contentionEvents_ = 0;
    std::uint64_t degradedCores_ = 0;
    std::uint64_t lostToContention_ = 0;
    std::uint64_t pauseEpisodes_ = 0;
    std::uint64_t periodChanges_ = 0;
    std::uint64_t counterWraps_ = 0;
};

} // namespace klebsim::kleb

#endif // KLEBSIM_KLEB_KLEB_MODULE_HH
