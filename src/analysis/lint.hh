/**
 * @file
 * Source-level lint pass for simulator correctness.
 *
 * The simulated machine must be a closed, deterministic world, so a
 * small set of host-environment leaks are banned at the source
 * level and enforced as a tier-1 test (`ctest -R lint`):
 *
 *  - wall-clock:    host time APIs (std::chrono::system_clock,
 *                   gettimeofday, time(), ...) — simulated code
 *                   must use Ticks from the event queue;
 *  - raw-random:    rand()/std::random_device/mt19937 — all
 *                   randomness flows from base/random's seeded
 *                   PCG32 streams;
 *  - event-new:     `new EventFunctionWrapper` outside the queue —
 *                   use EventQueue::scheduleLambda so autoDelete
 *                   ownership is handled;
 *  - raw-thread:    std::thread/std::jthread construction — fan
 *                   work out through bench::TrialPool;
 *  - hot-std-function: std::function in src/sim/ and src/hw/ — the
 *                   substrate's hot paths must not heap-allocate per
 *                   callback; store sim::InlineCallable or a
 *                   concrete functor (cold setup/configuration
 *                   hooks go on the allowlist);
 *  - printf-family: raw stdio in src/ — report through
 *                   base/logging or format with base/str;
 *  - mutex-raii:    bare .lock()/.unlock() calls — mutexes are held
 *                   through RAII (TrackedLock, std::lock_guard,
 *                   std::scoped_lock) so no exit path can leak a
 *                   lock; base/thread_safety's own implementation
 *                   is the canonical carve-out;
 *  - hot-alloc:     new/make_unique/make_shared and vector-growth
 *                   calls inside a function marked KLEB_HOT — the
 *                   marked hot paths are allocation-free by
 *                   contract (base/thread_safety.hh);
 *  - detached-thread: .detach() — a detached thread outlives every
 *                   determinism and shutdown guarantee the trial
 *                   pool makes; join through bench::TrialPool;
 *  - percpu-access: per-CPU state indexed by an expression that
 *                   names no core or cpu — cross-core aliasing must
 *                   stay auditable;
 *  - include-guard: headers must carry the canonical KLEBSIM_*
 *                   guard derived from their path;
 *  - fault-hook-coverage: every fault point registered in the
 *                   central table (src/fault/fault_points.def) must
 *                   be wired up somewhere outside the registry
 *                   itself — a declared-but-unhooked fault point is
 *                   a coverage hole, not a feature;
 *  - heartbeat-coverage: every fault point whose spec key targets
 *                   the supervised pipeline ("controller." or
 *                   "log." prefix) must be exercised by at least
 *                   one chaos test under tests/ — a crash-path
 *                   fault nobody injects is untested recovery code;
 *  - allowlist-dangling: every allowlist entry loaded from a file
 *                   must still match at least one existing source
 *                   file AND name a rule that still exists, so
 *                   stale carve-outs cannot silently mask future
 *                   violations.
 *
 * Exceptions live in a per-rule allowlist ("rule-id path-prefix"
 * lines); the canonical carve-outs (base/random, base/logging, the
 * queue itself) are built in.
 *
 * Scanning is token-level (see token_lexer.hh): every rule matches
 * identifier/punctuation sequences on a comment-, string- and
 * raw-string-aware token stream, with brace tracking for the
 * scope-sensitive rules.  The rule set is fixed: one table in
 * lint.cc holds each rule's id, message, directories and matcher.
 */

#ifndef KLEBSIM_ANALYSIS_LINT_HH
#define KLEBSIM_ANALYSIS_LINT_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace klebsim::analysis
{

/** A matcher's view of the token stream (defined in lint.cc). */
struct TokenCursor;

/**
 * One built-in token rule.  @p match inspects the token under the
 * cursor and returns the 1-based line of a finding there, or 0.
 * The include-guard and registry checks are tree-level and have no
 * entry here.
 */
struct LintRule
{
    std::string id;
    std::string message;
    std::vector<std::string> dirs; //!< top-level dirs it applies to
    std::size_t (*match)(const TokenCursor &);
};

struct LintViolation
{
    std::string rule;
    std::string file; //!< repo-relative, '/'-separated
    std::size_t line; //!< 1-based; 0 for whole-file findings
    std::string text; //!< offending source line (trimmed)
    std::string message;

    /** "file:line: [rule] text -- message" */
    std::string str() const;
};

class Linter
{
  public:
    /** Installs the canonical carve-outs. */
    Linter();

    /** The built-in token rules, in report order. */
    static const std::vector<LintRule> &rules();

    /** Exempt paths starting with @p path_prefix from @p rule_id. */
    void allow(const std::string &rule_id,
               const std::string &path_prefix);

    /**
     * Load "rule-id path-prefix" lines ('#' starts a comment).
     * Entries loaded this way are recorded with their origin and
     * line number so checkAllowlistEntries() can flag the stale
     * ones.
     * @return false (with @p error set) on malformed input.
     */
    bool loadAllowlist(const std::string &path,
                       std::string *error = nullptr);

    /**
     * Parse allowlist @p content as loadAllowlist() would read it
     * from a file named @p origin.  Exposed for unit tests.
     */
    bool loadAllowlistFromString(const std::string &content,
                                 const std::string &origin,
                                 std::string *error = nullptr);

    /** True if @p rel_path is exempt from @p rule_id. */
    bool allowed(const std::string &rule_id,
                 const std::string &rel_path) const;

    /** Scan one in-memory source file. */
    std::vector<LintViolation>
    scanSource(const std::string &rel_path,
               const std::string &content) const;

    /**
     * Check the fault-point registry (@p def_content, the X-macro
     * table at @p def_rel_path) against @p sources: every
     * KLEB_FAULT_POINT(name, key) entry must be referenced as
     * `FaultPoint::name` by at least one source other than the
     * registry's own parser (fault_plan.*) — evidence the point is
     * wired to a real hook.  scanTree() runs this automatically
     * when the tree contains src/fault/fault_points.def.
     */
    std::vector<LintViolation> checkFaultHookCoverage(
        const std::string &def_rel_path,
        const std::string &def_content,
        const std::vector<std::pair<std::string, std::string>>
            &sources) const;

    /**
     * Check the fault-point registry's supervised-pipeline entries
     * against the chaos tests: every KLEB_FAULT_POINT whose spec
     * key starts with "controller." or "log." must have its key
     * appear in at least one of @p tests (rel-path/content pairs
     * from tests/).  scanTree() runs this automatically.
     */
    std::vector<LintViolation> checkHeartbeatCoverage(
        const std::string &def_rel_path,
        const std::string &def_content,
        const std::vector<std::pair<std::string, std::string>>
            &tests) const;

    /**
     * Verify every file-loaded allowlist entry still matches at
     * least one path in @p files (repo-relative) AND names a rule
     * this linter knows (a token rule or one of the tree-level
     * checks).  Dangling entries are reported against the allowlist
     * file itself, so pruning a source file — or retiring a rule —
     * forces its carve-outs to be pruned too.
     */
    std::vector<LintViolation> checkAllowlistEntries(
        const std::vector<std::string> &files) const;

    /** True if @p rule_id names a token rule or tree-level check. */
    bool knownRule(const std::string &rule_id) const;

    /** Scan src/, bench/ and examples/ under @p root. */
    std::vector<LintViolation>
    scanTree(const std::string &root) const;

    /** Canonical guard name for a header path (src/ is elided). */
    static std::string expectedGuard(const std::string &rel_path);

  private:
    void checkGuard(const std::string &rel_path,
                    const std::vector<std::string> &lines,
                    std::vector<LintViolation> &out) const;

    /** One allowlist line loaded from a file (origin for reports). */
    struct AllowlistEntry
    {
        std::string rule;
        std::string prefix;
        std::string origin;
        std::size_t line;
    };

    std::vector<std::pair<std::string, std::string>> allow_;
    std::vector<AllowlistEntry> loaded_;
};

} // namespace klebsim::analysis

#endif // KLEBSIM_ANALYSIS_LINT_HH
