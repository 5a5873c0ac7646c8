/**
 * @file
 * ehpsim-lint: simulator-specific determinism and hygiene rules.
 *
 * The compiler cannot check the two properties ehpsim's value rests
 * on: simulated time must be the only clock, and everything that
 * reaches stats or JSON output must be byte-deterministic across
 * worker counts. This linter enforces the project conventions that
 * protect those properties:
 *
 *   wall-clock      no wall-clock APIs outside sim/wall_timer
 *   raw-rand        no rand()/std::random_device etc. outside sim/rng
 *   unordered-iter  no iteration over std::unordered_map/_set
 *   event-new       events go through EventQueue::scheduleCallback(),
 *                   not raw new/delete (a use-after-free class)
 *   event-alloc     EventQueue::scheduleCallback() is given a
 *                   callable that fits its pooled slot, not a
 *                   std::function or a lambda of more than 6
 *                   captures, which it boxes on the heap
 *   dup-stat        a stat name registers at most once per group
 *   float-arith     no float in simulation arithmetic (use double)
 *   chunk-alloc     no per-iteration std::vector construction in
 *                   collective-construction loops (src/comm); the
 *                   chunk DAG builders are a per-chunk hot path and
 *                   use closed-form counts or reused scratch buffers
 *   static-state    no mutable globals or function-static locals:
 *                   state shared behind the SimObject tree's back
 *                   leaks between sweep jobs and races under
 *                   parallel workers (whitelist: sim/access_tracker,
 *                   whose thread-local binding is the sanctioned
 *                   exception)
 *   pointer-key     no ordered containers (std::map/set) keyed by
 *                   raw pointers: pointer order is
 *                   allocator-dependent, so iteration order varies
 *                   run to run
 *   snapshot-pair   a class overriding one of the checkpoint pair
 *                   snapshot(SnapshotWriter&) /
 *                   restore(SnapshotReader&) without the other: the
 *                   writer and reader must walk the same record
 *                   sequence, so a one-sided override desyncs the
 *                   stream for every object serialized after it
 *                   (whitelist: sim/event_queue, whose save/restore
 *                   pair is the kernel-side convention)
 *
 * Findings can be suppressed with a comment on the same or the
 * preceding line:
 *
 *     // ehpsim-lint: allow(unordered-iter)
 *
 * or for a whole file:
 *
 *     // ehpsim-lint: allow-file(unordered-iter)
 *
 * The analysis is token-level, not a full C++ parse: comments and
 * string literals are stripped, declarations of unordered containers
 * are tracked across the whole run (so a loop in probe_filter.cc over
 * a member declared in probe_filter.hh is still caught), and each
 * rule matches a small, documented set of patterns. That keeps the
 * linter dependency-free, fast, and wrong in predictable ways — the
 * allow() hatch covers the rest.
 */

#ifndef EHPSIM_TOOLS_LINT_LINT_HH
#define EHPSIM_TOOLS_LINT_LINT_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace ehpsim
{
namespace lint
{

/** Rule identifiers; stable strings used in output and allow(). */
enum class Rule
{
    wallClock,
    rawRand,
    unorderedIter,
    eventNew,
    eventAlloc,
    dupStat,
    floatArith,
    chunkAlloc,
    staticState,
    pointerKey,
    snapshotPair,
};

/** The stable name used in output lines and allow() directives. */
const char *ruleName(Rule r);

/** Parse a rule name; returns false if unknown. */
bool parseRule(const std::string &name, Rule &out);

/** All rules, in reporting order. */
const std::vector<Rule> &allRules();

/** One-line human rationale per rule (for --list-rules). */
const char *ruleRationale(Rule r);

/** A single finding. */
struct Finding
{
    std::string file;
    unsigned line = 0;
    Rule rule = Rule::wallClock;
    std::string message;
};

/** Render as the machine-readable "file:line:rule: message" form. */
std::string toString(const Finding &f);

/**
 * Render a finding set as the ehpsim-lint-v1 JSON document
 * (deterministic: findings are already sorted by lintFiles). Used
 * by `ehpsim-lint --format=json` and CI annotation tooling.
 */
std::string toJson(const std::vector<Finding> &findings);

struct Options
{
    /**
     * Restrict checking to these rules; empty means all rules.
     */
    std::vector<Rule> only_rules;

    /**
     * Apply the built-in path whitelist (sim/wall_timer and sim/rng
     * may touch the host clock and raw entropy; sim/event_queue owns
     * event lifetimes). Disabled in fixture tests.
     */
    bool default_whitelist = true;
};

/**
 * Lint a set of files. @p files are paths readable from the current
 * directory; directories must already be expanded (see listSources).
 * Findings come back sorted by (file, line, rule).
 */
std::vector<Finding> lintFiles(const std::vector<std::string> &files,
                               const Options &opts = {});

/**
 * Recursively collect C++ sources (.hh/.h/.hpp/.cc/.cpp) under each
 * path; a path that is itself a regular file is taken verbatim.
 * Results are lexicographically sorted so runs are deterministic.
 * @return false if any path does not exist.
 */
bool listSources(const std::vector<std::string> &paths,
                 std::vector<std::string> &out, std::string &error);

/**
 * Lint file content supplied directly (unit-test entry point).
 * @p filename is used for whitelisting and reporting only.
 */
std::vector<Finding> lintContent(const std::string &filename,
                                 const std::string &content,
                                 const Options &opts = {});

} // namespace lint
} // namespace ehpsim

#endif // EHPSIM_TOOLS_LINT_LINT_HH
