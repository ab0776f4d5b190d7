#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string_view>

#include "base/str.hh"
#include "token_lexer.hh"

namespace klebsim::analysis
{

namespace fs = std::filesystem;

namespace
{

const char *const scannedDirs[] = {"src", "bench", "examples"};

using Names = std::initializer_list<std::string_view>;

bool
sourceExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".h";
}

bool
headerExtension(const std::string &rel_path)
{
    return rel_path.ends_with(".hh") || rel_path.ends_with(".h");
}

std::string
trimmed(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Split @p content into lines, without their '\n'. */
std::vector<std::string>
splitLines(const std::string &content)
{
    std::vector<std::string> lines;
    std::string line;
    std::istringstream in(content);
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Trimmed text of 1-based line @p lineno, or "" past the end. */
std::string
lineText(const std::vector<std::string> &lines, std::size_t lineno)
{
    return lineno >= 1 && lineno <= lines.size()
               ? trimmed(lines[lineno - 1])
               : std::string();
}

bool
ruleApplies(const LintRule &rule, const std::string &rel_path)
{
    for (const std::string &dir : rule.dirs)
        if (rel_path.starts_with(dir + "/"))
            return true;
    return false;
}

bool
nameContains(std::string_view name, std::string_view needle)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return lower.find(needle) != std::string::npos;
}

/** Identifier naming per-CPU state (perCpu_, per_cpu_rings, ...). */
bool
isPerCpuName(std::string_view name)
{
    return nameContains(name, "percpu") ||
           nameContains(name, "per_cpu");
}

/** Identifier that is legibly a core index (core, cpu, src_core). */
bool
isCoreishName(std::string_view name)
{
    return name == "CoreId" || nameContains(name, "core") ||
           nameContains(name, "cpu");
}

} // anonymous namespace

/**
 * The token under test, the tokens after it, and whether it sits
 * inside a KLEB_HOT function body.  Offsets are relative to the
 * token under test; past the end of the stream nothing matches.
 */
struct TokenCursor
{
    const std::vector<Token> &toks;
    std::size_t i;
    bool inHot;

    const Token *
    at(std::size_t k) const
    {
        return i + k < toks.size() ? &toks[i + k] : nullptr;
    }

    bool
    ident(std::size_t k, std::string_view s) const
    {
        return at(k) && at(k)->isIdent(s);
    }

    bool
    punct(std::size_t k, std::string_view s) const
    {
        return at(k) && at(k)->isPunct(s);
    }

    bool
    identIn(std::size_t k, Names names) const
    {
        for (std::string_view n : names)
            if (ident(k, n))
                return true;
        return false;
    }

    std::size_t line(std::size_t k = 0) const { return at(k)->line; }
};

namespace
{

/** `std :: name` for one of @p names. */
bool
stdName(const TokenCursor &c, Names names)
{
    return c.ident(0, "std") && c.punct(1, "::") &&
           c.identIn(2, names);
}

/** `name (` for one of @p names: a call. */
bool
call(const TokenCursor &c, Names names)
{
    return c.identIn(0, names) && c.punct(1, "(");
}

/** `. name (` or `-> name (` for one of @p names: a member call. */
bool
memberCall(const TokenCursor &c, Names names)
{
    return (c.punct(0, ".") || c.punct(0, "->")) &&
           c.identIn(1, names) && c.punct(2, "(");
}

std::size_t
matchWallClock(const TokenCursor &c)
{
    const bool hostClock =
        stdName(c, {"chrono"}) && c.punct(3, "::") &&
        c.identIn(4, {"system_clock", "steady_clock",
                      "high_resolution_clock"});
    return hostClock || call(c, {"gettimeofday", "clock_gettime",
                                 "localtime", "gmtime", "mktime",
                                 "asctime", "ctime", "time"})
               ? c.line()
               : 0;
}

std::size_t
matchRawRandom(const TokenCursor &c)
{
    const Token &t = *c.at(0);
    return call(c, {"rand", "srand", "srandom", "drand48",
                    "lrand48"}) ||
                   stdName(c, {"random_device"}) ||
                   (t.kind == TokKind::identifier &&
                    t.text.starts_with("mt19937"))
               ? c.line()
               : 0;
}

std::size_t
matchEventNew(const TokenCursor &c)
{
    if (!c.ident(0, "new"))
        return 0;
    std::size_t k = 1;
    if (c.ident(k, "klebsim") && c.punct(k + 1, "::"))
        k += 2;
    if (c.ident(k, "sim") && c.punct(k + 1, "::"))
        k += 2;
    return c.ident(k, "EventFunctionWrapper") ? c.line() : 0;
}

std::size_t
matchRawThread(const TokenCursor &c)
{
    return stdName(c, {"thread", "jthread"}) && !c.punct(3, "::")
               ? c.line()
               : 0;
}

std::size_t
matchHotStdFunction(const TokenCursor &c)
{
    return stdName(c, {"function"}) && c.punct(3, "<") ? c.line()
                                                        : 0;
}

std::size_t
matchPrintfFamily(const TokenCursor &c)
{
    return call(c, {"printf", "fprintf", "sprintf", "snprintf",
                    "vsnprintf", "vsprintf", "vfprintf", "puts",
                    "putchar", "fputs"}) ||
                   stdName(c, {"cout", "cerr"})
               ? c.line()
               : 0;
}

std::size_t
matchMutexRaii(const TokenCursor &c)
{
    return memberCall(c, {"lock", "unlock"}) ? c.line(1) : 0;
}

std::size_t
matchHotAlloc(const TokenCursor &c)
{
    if (!c.inHot)
        return 0;
    if (c.identIn(0, {"new", "make_unique", "make_shared"}))
        return c.line();
    return memberCall(c, {"push_back", "emplace_back", "resize",
                          "reserve"})
               ? c.line(1)
               : 0;
}

std::size_t
matchDetachedThread(const TokenCursor &c)
{
    return memberCall(c, {"detach"}) ? c.line(1) : 0;
}

std::size_t
matchPerCpuAccess(const TokenCursor &c)
{
    const Token &t = *c.at(0);
    if (t.kind != TokKind::identifier || !isPerCpuName(t.text) ||
        !c.punct(1, "["))
        return 0;
    // Walk the index expression (respecting nested brackets): an
    // identifier that legibly names a core — including the CoreId
    // inside a cast — makes the access auditable; anything else
    // (loop counters, pids, literals) is flagged.
    int brackets = 1;
    for (std::size_t k = 2; c.at(k) && brackets > 0; ++k) {
        const Token &u = *c.at(k);
        if (u.isPunct("["))
            ++brackets;
        else if (u.isPunct("]"))
            --brackets;
        else if (u.kind == TokKind::identifier &&
                 isCoreishName(u.text))
            return 0;
    }
    return c.line();
}

/** (rule index, line) pair recorded by the token matchers. */
struct TokenHit
{
    std::size_t rule;
    std::size_t line;
};

/**
 * Run the rules at indices @p active over the token stream in one
 * pass, one hit per match (the caller dedupes per line).
 */
std::vector<TokenHit>
matchTokenRules(const std::vector<Token> &toks,
                const std::vector<std::size_t> &active)
{
    const std::vector<LintRule> &rules = Linter::rules();
    std::vector<TokenHit> hits;

    // hot-alloc scope state: brace depth, an "armed" flag set by a
    // KLEB_HOT marker (cleared by a `;` before any body opens), and
    // a stack of depths at which hot bodies started.
    int depth = 0;
    bool hotArmed = false;
    std::vector<int> hotBodies;

    for (std::size_t i = 0; i < toks.size(); ++i) {
        // Scope tracking runs whether or not hot-alloc is active, so
        // the state machine stays consistent.
        const Token &t = toks[i];
        if (t.isPunct("{")) {
            ++depth;
            if (hotArmed) {
                hotBodies.push_back(depth);
                hotArmed = false;
            }
        } else if (t.isPunct("}")) {
            if (!hotBodies.empty() && hotBodies.back() == depth)
                hotBodies.pop_back();
            --depth;
        } else if (t.isPunct(";")) {
            hotArmed = false; // declaration without a body
        } else if (t.isIdent("KLEB_HOT")) {
            hotArmed = true;
        }

        const TokenCursor cursor{toks, i, !hotBodies.empty()};
        for (std::size_t r : active)
            if (std::size_t line = rules[r].match(cursor))
                hits.push_back({r, line});
    }
    return hits;
}

/** One `KLEB_FAULT_POINT(name, "key")` entry of the fault registry. */
struct FaultPointEntry
{
    std::string name;
    std::string key;
    std::size_t line; //!< line of the KLEB_FAULT_POINT token
};

/**
 * Every `KLEB_FAULT_POINT ( identifier , "key" )` sequence in the
 * registry @p def_content.  Working on tokens drops comments (the
 * table's own documentation shows the macro form) and sees entries
 * written over several lines.
 */
std::vector<FaultPointEntry>
faultPointEntries(const std::string &def_content)
{
    const std::vector<Token> toks = lexTokens(def_content);
    std::vector<FaultPointEntry> out;
    for (std::size_t i = 0; i + 5 < toks.size(); ++i) {
        const Token *t = &toks[i];
        const std::string &lit = t[4].text;
        if (t[0].isIdent("KLEB_FAULT_POINT") && t[1].isPunct("(") &&
            t[2].kind == TokKind::identifier && t[3].isPunct(",") &&
            t[4].kind == TokKind::stringLit && lit.size() >= 2 &&
            lit.front() == '"' && lit.back() == '"' &&
            t[5].isPunct(")"))
            out.push_back({t[2].text, lit.substr(1, lit.size() - 2),
                           t[0].line});
    }
    return out;
}

} // anonymous namespace

std::string
LintViolation::str() const
{
    if (line == 0)
        return csprintf("%s: [%s] %s -- %s", file.c_str(),
                        rule.c_str(), text.c_str(), message.c_str());
    return csprintf("%s:%zu: [%s] %s -- %s", file.c_str(), line,
                    rule.c_str(), text.c_str(), message.c_str());
}

const std::vector<LintRule> &
Linter::rules()
{
    static const std::vector<std::string> everywhere = {
        "src", "bench", "examples"};
    static const std::vector<LintRule> table = {
        {"wall-clock",
         "host wall-clock APIs leak nondeterminism; use "
         "simulated Ticks (base/types.hh)",
         everywhere, matchWallClock},
        {"raw-random",
         "unseeded/global randomness breaks replay; draw from a "
         "forked base/random stream",
         everywhere, matchRawRandom},
        {"event-new",
         "raw wrapper allocation loses autoDelete ownership; "
         "use EventQueue::scheduleLambda",
         everywhere, matchEventNew},
        {"raw-thread",
         "raw thread construction bypasses the trial pool's "
         "determinism contract; fan work out through "
         "bench::TrialPool (bench_support/trial_pool.hh)",
         everywhere, matchRawThread},
        {"hot-std-function",
         "std::function heap-allocates captured state on the "
         "simulator's hot paths; store sim::InlineCallable "
         "(sim/inline_callable.hh) or a concrete functor "
         "instead (allowlist cold setup/configuration hooks)",
         {"src/sim", "src/hw"}, matchHotStdFunction},
        {"printf-family",
         "raw stdio in the simulator; report through "
         "base/logging or format with base/str",
         {"src"}, matchPrintfFamily},
        {"mutex-raii",
         "bare lock()/unlock() can leak the mutex on early "
         "return or throw; hold it through TrackedLock "
         "(base/thread_safety.hh) or std::lock_guard",
         everywhere, matchMutexRaii},
        {"hot-alloc",
         "KLEB_HOT functions are allocation-free by contract; "
         "hoist the allocation out of the hot path or drop the "
         "marker",
         everywhere, matchHotAlloc},
        {"detached-thread",
         "a detached thread escapes every join/determinism "
         "guarantee; fan work out through bench::TrialPool and "
         "join it",
         everywhere, matchDetachedThread},
        {"percpu-access",
         "per-CPU state indexed by something that is not "
         "legibly a core id; index with the CoreId (or a "
         "core/cpu-named variable) so cross-core aliasing is "
         "auditable",
         everywhere, matchPerCpuAccess},
    };
    return table;
}

Linter::Linter()
{
    // Canonical carve-outs: the facilities the rules point at.
    allow("raw-random", "src/base/random");
    allow("printf-family", "src/base/logging.cc");
    allow("printf-family", "src/base/str.cc");
    allow("event-new", "src/sim/event_queue.cc");
    allow("raw-thread", "src/bench_support/trial_pool");
    allow("mutex-raii", "src/base/thread_safety");
}

void
Linter::allow(const std::string &rule_id,
              const std::string &path_prefix)
{
    allow_.emplace_back(rule_id, path_prefix);
}

bool
Linter::loadAllowlist(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::in | std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open allowlist: " + path;
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return loadAllowlistFromString(buf.str(), path, error);
}

bool
Linter::loadAllowlistFromString(const std::string &content,
                                const std::string &origin,
                                std::string *error)
{
    std::istringstream in(content);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::string body = line.substr(0, line.find('#'));
        std::istringstream fields(body);
        std::string rule, prefix, extra;
        if (!(fields >> rule))
            continue; // blank or comment-only line
        if (!(fields >> prefix) || (fields >> extra)) {
            if (error)
                *error = csprintf("%s:%zu: expected 'rule-id "
                                  "path-prefix'", origin.c_str(),
                                  lineno);
            return false;
        }
        allow(rule, prefix);
        loaded_.push_back({rule, prefix, origin, lineno});
    }
    return true;
}

bool
Linter::allowed(const std::string &rule_id,
                const std::string &rel_path) const
{
    for (const auto &[rule, prefix] : allow_)
        if (rule == rule_id && rel_path.starts_with(prefix))
            return true;
    return false;
}

std::string
Linter::expectedGuard(const std::string &rel_path)
{
    std::string p = rel_path;
    if (p.starts_with("src/"))
        p = p.substr(4);
    std::string guard = "KLEBSIM_";
    for (char c : p) {
        guard += std::isalnum(static_cast<unsigned char>(c))
                     ? static_cast<char>(
                           std::toupper(static_cast<unsigned char>(c)))
                     : '_';
    }
    return guard;
}

void
Linter::checkGuard(const std::string &rel_path,
                   const std::vector<std::string> &lines,
                   std::vector<LintViolation> &out) const
{
    static const std::string rule = "include-guard";
    if (allowed(rule, rel_path))
        return;

    const std::string expected = expectedGuard(rel_path);
    std::size_t ifndef_line = 0;
    std::string found;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string t = trimmed(lines[i]);
        if (t.starts_with("#ifndef")) {
            found = trimmed(t.substr(7));
            ifndef_line = i + 1;
            break;
        }
        // Any other preprocessor directive or code before the
        // guard means there is no guard at the top.
        if (!t.empty() && !t.starts_with("//") &&
            !t.starts_with("/*") && !t.starts_with("*"))
            break;
    }

    if (found.empty()) {
        out.push_back({rule, rel_path, 0, "missing include guard",
                       "expected '#ifndef " + expected + "'"});
        return;
    }
    if (found != expected) {
        out.push_back({rule, rel_path, ifndef_line, "#ifndef " + found,
                       "guard should be " + expected});
        return;
    }
    // The #define must immediately follow and match.
    if (ifndef_line >= lines.size() ||
        trimmed(lines[ifndef_line]) != "#define " + expected) {
        out.push_back({rule, rel_path, ifndef_line,
                       "#ifndef " + found,
                       "'#define " + expected +
                           "' must follow the guard"});
    }
}

std::vector<LintViolation>
Linter::scanSource(const std::string &rel_path,
                   const std::string &content) const
{
    std::vector<LintViolation> out;
    const std::vector<std::string> lines = splitLines(content);

    if (headerExtension(rel_path))
        checkGuard(rel_path, lines, out);

    std::vector<std::size_t> active;
    for (std::size_t r = 0; r < rules().size(); ++r)
        if (ruleApplies(rules()[r], rel_path) &&
            !allowed(rules()[r].id, rel_path))
            active.push_back(r);
    if (active.empty())
        return out;

    std::vector<TokenHit> hits =
        matchTokenRules(lexTokens(content), active);
    // Report per (rule, line) — a line that trips a rule twice is
    // still one finding — ordered rule-major then by line.
    std::sort(hits.begin(), hits.end(),
              [](const TokenHit &a, const TokenHit &b) {
                  return a.rule != b.rule ? a.rule < b.rule
                                          : a.line < b.line;
              });
    const TokenHit *last = nullptr;
    for (const TokenHit &h : hits) {
        if (last && last->rule == h.rule && last->line == h.line)
            continue;
        last = &h;
        out.push_back({rules()[h.rule].id, rel_path, h.line,
                       lineText(lines, h.line),
                       rules()[h.rule].message});
    }
    return out;
}

std::vector<LintViolation>
Linter::checkFaultHookCoverage(
    const std::string &def_rel_path, const std::string &def_content,
    const std::vector<std::pair<std::string, std::string>> &sources)
    const
{
    static const std::string rule = "fault-hook-coverage";
    std::vector<LintViolation> out;
    if (allowed(rule, def_rel_path))
        return out;

    auto references = [](const std::string &content,
                         const std::string &name) {
        const std::string needle = "FaultPoint::" + name;
        for (std::size_t pos = content.find(needle);
             pos != std::string::npos;
             pos = content.find(needle, pos + 1)) {
            std::size_t end = pos + needle.size();
            char next = end < content.size() ? content[end] : ' ';
            if (!std::isalnum(static_cast<unsigned char>(next)) &&
                next != '_')
                return true;
        }
        return false;
    };

    auto isRegistryFile = [](const std::string &rel) {
        std::size_t slash = rel.find_last_of('/');
        std::string base =
            slash == std::string::npos ? rel : rel.substr(slash + 1);
        return base.starts_with("fault_plan.") ||
               base.starts_with("fault_points.");
    };

    const std::vector<std::string> lines = splitLines(def_content);
    std::map<std::string, std::size_t> seen_names;
    std::map<std::string, std::size_t> seen_keys;
    for (const FaultPointEntry &e : faultPointEntries(def_content)) {
        const std::string &name = e.name;
        const std::string text = lineText(lines, e.line);

        // Registering the same enumerator or the same spec key twice
        // would make the later entry shadow the earlier one in the
        // parser's if/else chain — one of the two faults becomes
        // unreachable from any spec string.
        auto [name_it, name_fresh] = seen_names.emplace(name, e.line);
        if (!name_fresh)
            out.push_back(
                {rule, def_rel_path, e.line, text,
                 csprintf("fault point '%s' is registered twice "
                          "(first registered on line %zu)",
                          name.c_str(), name_it->second)});
        auto [key_it, key_fresh] = seen_keys.emplace(e.key, e.line);
        if (!key_fresh)
            out.push_back(
                {rule, def_rel_path, e.line, text,
                 csprintf("fault spec key '%s' is registered "
                          "twice (first registered on line %zu)",
                          e.key.c_str(), key_it->second)});

        bool hooked = false;
        for (const auto &[rel, content] : sources) {
            if (isRegistryFile(rel))
                continue;
            if (references(content, name)) {
                hooked = true;
                break;
            }
        }
        if (!hooked)
            out.push_back(
                {rule, def_rel_path, e.line, text,
                 "fault point '" + name +
                     "' is registered but never wired to a hook "
                     "(no FaultPoint::" + name +
                     " reference outside the registry)"});
    }
    return out;
}

std::vector<LintViolation>
Linter::checkHeartbeatCoverage(
    const std::string &def_rel_path, const std::string &def_content,
    const std::vector<std::pair<std::string, std::string>> &tests)
    const
{
    static const std::string rule = "heartbeat-coverage";
    std::vector<LintViolation> out;
    if (allowed(rule, def_rel_path))
        return out;

    const std::vector<std::string> lines = splitLines(def_content);
    for (const FaultPointEntry &e : faultPointEntries(def_content)) {
        const std::string &key = e.key;
        if (!key.starts_with("controller.") &&
            !key.starts_with("log."))
            continue;
        bool exercised = false;
        for (const auto &[rel, content] : tests) {
            (void)rel;
            if (content.find(key) != std::string::npos) {
                exercised = true;
                break;
            }
        }
        if (!exercised)
            out.push_back(
                {rule, def_rel_path, e.line, lineText(lines, e.line),
                 "supervised-pipeline fault point '" + key +
                     "' is never injected by a chaos test under "
                     "tests/"});
    }
    return out;
}

std::vector<LintViolation>
Linter::checkAllowlistEntries(
    const std::vector<std::string> &files) const
{
    static const std::string rule = "allowlist-dangling";
    std::vector<LintViolation> out;
    for (const AllowlistEntry &entry : loaded_) {
        if (!knownRule(entry.rule)) {
            out.push_back(
                {rule, entry.origin, entry.line,
                 entry.rule + " " + entry.prefix,
                 "allowlist entry names unknown rule '" +
                     entry.rule + "'; prune it"});
            continue;
        }
        bool matches = false;
        for (const std::string &rel : files) {
            if (rel.starts_with(entry.prefix)) {
                matches = true;
                break;
            }
        }
        if (!matches)
            out.push_back(
                {rule, entry.origin, entry.line,
                 entry.rule + " " + entry.prefix,
                 "allowlist entry matches no existing source file; "
                 "prune it"});
    }
    return out;
}

bool
Linter::knownRule(const std::string &rule_id) const
{
    for (const LintRule &rule : rules())
        if (rule.id == rule_id)
            return true;
    return rule_id == "include-guard" ||
           rule_id == "fault-hook-coverage" ||
           rule_id == "heartbeat-coverage" ||
           rule_id == "allowlist-dangling";
}

std::vector<LintViolation>
Linter::scanTree(const std::string &root) const
{
    std::vector<LintViolation> out;
    std::vector<std::string> files;
    for (const char *dir : scannedDirs) {
        fs::path base = fs::path(root) / dir;
        if (!fs::exists(base))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(base)) {
            if (entry.is_regular_file() &&
                sourceExtension(entry.path()))
                files.push_back(
                    fs::relative(entry.path(), root)
                        .generic_string());
        }
    }
    std::sort(files.begin(), files.end());

    auto slurp = [&root](const std::string &rel) {
        std::ifstream in(fs::path(root) / rel,
                         std::ios::in | std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        return buf.str();
    };

    std::vector<std::pair<std::string, std::string>> sources;
    sources.reserve(files.size());
    for (const std::string &rel : files) {
        sources.emplace_back(rel, slurp(rel));
        auto file_violations =
            scanSource(rel, sources.back().second);
        out.insert(out.end(), file_violations.begin(),
                   file_violations.end());
    }

    // The chaos tests are not pattern-scanned (tests may use raw
    // stdio etc.), but heartbeat coverage and allowlist hygiene
    // need to see them.
    std::vector<std::string> testFiles;
    {
        fs::path base = fs::path(root) / "tests";
        if (fs::exists(base)) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(base)) {
                if (entry.is_regular_file() &&
                    sourceExtension(entry.path()))
                    testFiles.push_back(
                        fs::relative(entry.path(), root)
                            .generic_string());
            }
        }
        std::sort(testFiles.begin(), testFiles.end());
    }

    const std::string def_rel = "src/fault/fault_points.def";
    if (fs::exists(fs::path(root) / def_rel)) {
        const std::string def_content = slurp(def_rel);
        auto def_violations =
            checkFaultHookCoverage(def_rel, def_content, sources);
        out.insert(out.end(), def_violations.begin(),
                   def_violations.end());

        std::vector<std::pair<std::string, std::string>> tests;
        tests.reserve(testFiles.size());
        for (const std::string &rel : testFiles)
            tests.emplace_back(rel, slurp(rel));
        auto hb_violations =
            checkHeartbeatCoverage(def_rel, def_content, tests);
        out.insert(out.end(), hb_violations.begin(),
                   hb_violations.end());
    }

    // Stale-allowlist audit: entries must point at files that still
    // exist somewhere lintable (including tests/ and tools/, which
    // allowlists may legitimately reference).
    std::vector<std::string> allFiles = files;
    allFiles.insert(allFiles.end(), testFiles.begin(),
                    testFiles.end());
    {
        fs::path base = fs::path(root) / "tools";
        if (fs::exists(base)) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(base)) {
                if (entry.is_regular_file())
                    allFiles.push_back(
                        fs::relative(entry.path(), root)
                            .generic_string());
            }
        }
    }
    auto allow_violations = checkAllowlistEntries(allFiles);
    out.insert(out.end(), allow_violations.begin(),
               allow_violations.end());
    return out;
}

} // namespace klebsim::analysis
