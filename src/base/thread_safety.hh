/**
 * @file
 * Thread-safety annotations.
 *
 * bench::TrialPool and the fleet run whole simulated machines on
 * worker threads, so the state they share across host threads is
 * checked by two detectors:
 *
 *  1. **Static annotations** — KLEB_GUARDED_BY / KLEB_REQUIRES /
 *     KLEB_EXCLUDES / KLEB_ACQUIRE / KLEB_RELEASE expand to Clang
 *     thread-safety-analysis attributes under clang (the CI
 *     `thread-safety` job builds with -Wthread-safety -Werror) and
 *     to nothing under other compilers.
 *
 *  2. **TSan** — the CI `tsan` job runs the whole test suite and
 *     the parallel smoke benches under -fsanitize=thread, which
 *     reports any unsynchronised access that actually happens.
 *
 * TrackedMutex / TrackedLock are the annotated capability and its
 * RAII holder that the static analysis understands.  Direct
 * .lock()/.unlock() calls are banned by the `mutex-raii` lint rule;
 * use TrackedLock (or std::lock_guard over a plain std::mutex where
 * no annotation is needed).
 *
 * KLEB_HOT additionally marks allocation-free hot functions: the
 * `hot-alloc` lint rule rejects new/make_unique/make_shared and
 * vector growth inside a KLEB_HOT body.
 */

#ifndef KLEBSIM_BASE_THREAD_SAFETY_HH
#define KLEBSIM_BASE_THREAD_SAFETY_HH

#include <mutex>

#if defined(__clang__)
#define KLEB_TSA(x) __attribute__((x))
#else
#define KLEB_TSA(x)
#endif

/** The annotated type is a lockable capability ("mutex"). */
#define KLEB_CAPABILITY(x) KLEB_TSA(capability(x))

/** RAII type that acquires in its ctor and releases in its dtor. */
#define KLEB_SCOPED_CAPABILITY KLEB_TSA(scoped_lockable)

/** Field may only be touched while holding @p x. */
#define KLEB_GUARDED_BY(x) KLEB_TSA(guarded_by(x))

/** Pointed-to data may only be touched while holding @p x. */
#define KLEB_PT_GUARDED_BY(x) KLEB_TSA(pt_guarded_by(x))

/** Caller must hold the named capabilities. */
#define KLEB_REQUIRES(...) KLEB_TSA(requires_capability(__VA_ARGS__))

/** Caller must NOT hold the named capabilities. */
#define KLEB_EXCLUDES(...) KLEB_TSA(locks_excluded(__VA_ARGS__))

/** Function acquires the named capabilities. */
#define KLEB_ACQUIRE(...) KLEB_TSA(acquire_capability(__VA_ARGS__))

/** Function releases the named capabilities. */
#define KLEB_RELEASE(...) KLEB_TSA(release_capability(__VA_ARGS__))

/** Function acquires on a @p ret return value. */
#define KLEB_TRY_ACQUIRE(ret, ...) \
    KLEB_TSA(try_acquire_capability(ret, __VA_ARGS__))

/** Opt a function out of the static analysis (justify nearby). */
#define KLEB_NO_TSA KLEB_TSA(no_thread_safety_analysis)

/**
 * Marks a function body as an allocation-free hot path: the
 * `hot-alloc` lint rule bans new/make_unique/make_shared and
 * vector-growth calls inside it.  Applied at the definition, where
 * the body lives.
 */
#define KLEB_HOT __attribute__((hot))

namespace klebsim
{

/**
 * A std::mutex that is a clang-TSA capability.  Lock it with
 * TrackedLock; the `mutex-raii` lint rule bans bare .lock()/.unlock()
 * calls everywhere except this header's own implementation.
 */
class KLEB_CAPABILITY("mutex") TrackedMutex
{
  public:
    TrackedMutex() = default;

    TrackedMutex(const TrackedMutex &) = delete;
    TrackedMutex &operator=(const TrackedMutex &) = delete;

    void lock() KLEB_ACQUIRE() { m_.lock(); }

    void unlock() KLEB_RELEASE() { m_.unlock(); }

  private:
    std::mutex m_;
};

/** Scoped TrackedMutex holder (the only sanctioned way to lock). */
class KLEB_SCOPED_CAPABILITY TrackedLock
{
  public:
    explicit TrackedLock(TrackedMutex &m) KLEB_ACQUIRE(m) : m_(m)
    {
        m_.lock();
    }

    ~TrackedLock() KLEB_RELEASE() { m_.unlock(); }

    TrackedLock(const TrackedLock &) = delete;
    TrackedLock &operator=(const TrackedLock &) = delete;

  private:
    TrackedMutex &m_;
};

} // namespace klebsim

#endif // KLEBSIM_BASE_THREAD_SAFETY_HH
