/**
 * Tests for ehpsim-lint, the in-tree determinism/hygiene linter.
 *
 * Three layers:
 *   1. fixture tests  — every rule has a known-bad snippet under
 *      tests/lint_fixtures/ that must be flagged, and an allow()-
 *      suppressed twin that must pass clean;
 *   2. unit tests     — lintContent() on inline snippets pins down
 *      suppression scoping and rule filtering;
 *   3. self-check     — the real tree (src/, bench/, examples/)
 *      lints clean, so the CI gate can never rot silently.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "lint/lint.hh"

using namespace ehpsim::lint;

namespace {

std::string
fixture(const std::string &name)
{
    return std::string(EHPSIM_LINT_FIXTURES) + "/" + name;
}

std::vector<Finding>
lintFixture(const std::string &name)
{
    return lintFiles({fixture(name)}, Options{});
}

/** Count findings for one rule, asserting no other rule fired. */
std::size_t
countOnly(const std::vector<Finding> &findings, Rule rule)
{
    for (const Finding &f : findings)
        EXPECT_EQ(ruleName(f.rule), ruleName(rule)) << toString(f);
    return findings.size();
}

} // namespace

// ---------------------------------------------------------------------------
// 1. Fixtures: one bad + one allowed snippet per rule.
// ---------------------------------------------------------------------------

TEST(LintFixtures, WallClockBadIsFlagged)
{
    const auto findings = lintFixture("wall_clock_bad.cc");
    EXPECT_EQ(countOnly(findings, Rule::wallClock), 3u);
}

TEST(LintFixtures, WallClockAllowedIsClean)
{
    EXPECT_TRUE(lintFixture("wall_clock_allowed.cc").empty());
}

TEST(LintFixtures, RawRandBadIsFlagged)
{
    const auto findings = lintFixture("raw_rand_bad.cc");
    EXPECT_EQ(countOnly(findings, Rule::rawRand), 3u);
}

TEST(LintFixtures, RawRandAllowedIsClean)
{
    EXPECT_TRUE(lintFixture("raw_rand_allowed.cc").empty());
}

TEST(LintFixtures, UnorderedIterBadIsFlagged)
{
    const auto findings = lintFixture("unordered_iter_bad.cc");
    // One range-for and one explicit .begin() walk.
    EXPECT_EQ(countOnly(findings, Rule::unorderedIter), 2u);
}

TEST(LintFixtures, UnorderedIterAllowedIsClean)
{
    // The suppressed loop passes, and the sortedKeys() traversal is
    // recognised as deterministic rather than flagged via its argument.
    EXPECT_TRUE(lintFixture("unordered_iter_allowed.cc").empty());
}

TEST(LintFixtures, EventNewBadIsFlagged)
{
    const auto findings = lintFixture("event_new_bad.cc");
    // One raw new plus two raw deletes (one through a parameter whose
    // pointee type, not name, marks it as an event).
    EXPECT_EQ(countOnly(findings, Rule::eventNew), 3u);
}

TEST(LintFixtures, EventNewAllowedIsClean)
{
    EXPECT_TRUE(lintFixture("event_new_allowed.cc").empty());
}

TEST(LintFixtures, EventAllocBadIsFlagged)
{
    const auto findings = lintFixture("event_alloc_bad.cc");
    std::size_t alloc = 0, raw = 0;
    for (const Finding &f : findings) {
        if (f.rule == Rule::eventAlloc)
            ++alloc;
        else if (f.rule == Rule::eventNew)
            ++raw;
        else
            ADD_FAILURE() << toString(f);
    }
    // Two std::function arguments and one 7-capture lambda; the
    // 6-capture and capture-less lambdas and the array index stay
    // clean. Nothing here is a raw event new.
    EXPECT_EQ(alloc, 3u);
    EXPECT_EQ(raw, 0u);
}

TEST(LintFixtures, EventAllocAllowedIsClean)
{
    EXPECT_TRUE(lintFixture("event_alloc_allowed.cc").empty());
}

TEST(LintFixtures, DupStatBadIsFlagged)
{
    const auto findings = lintFixture("dup_stat_bad.cc");
    ASSERT_EQ(countOnly(findings, Rule::dupStat), 1u);
    // The finding lands on the second registration and names the first.
    EXPECT_EQ(findings[0].line, 12);
    EXPECT_NE(findings[0].message.find("line 11"), std::string::npos);
}

TEST(LintFixtures, DupStatAllowedIsClean)
{
    // Also covers the same stat name reused across different groups.
    EXPECT_TRUE(lintFixture("dup_stat_allowed.cc").empty());
}

TEST(LintFixtures, FloatBadIsFlagged)
{
    const auto findings = lintFixture("float_bad.cc");
    EXPECT_EQ(countOnly(findings, Rule::floatArith), 2u);
}

TEST(LintFixtures, FloatAllowedIsClean)
{
    EXPECT_TRUE(lintFixture("float_allowed.cc").empty());
}

TEST(LintFixtures, ChunkAllocBadIsFlagged)
{
    // The fixture lives under a comm/ subdirectory on purpose: the
    // rule only applies to collective-construction paths.
    const auto findings = lintFixture("comm/chunk_alloc_bad.cc");
    EXPECT_EQ(countOnly(findings, Rule::chunkAlloc), 2u);
}

TEST(LintFixtures, ChunkAllocAllowedIsClean)
{
    EXPECT_TRUE(lintFixture("comm/chunk_alloc_allowed.cc").empty());
}

TEST(LintFixtures, StaticStateBadIsFlagged)
{
    const auto findings = lintFixture("static_state_bad.cc");
    // A file-scope static, a thread_local, and a function-local static.
    EXPECT_EQ(countOnly(findings, Rule::staticState), 3u);
}

TEST(LintFixtures, StaticStateAllowedIsClean)
{
    // const/constexpr statics and static functions are immutable or
    // stateless; the one mutable registry carries a documented allow().
    EXPECT_TRUE(lintFixture("static_state_allowed.cc").empty());
}

TEST(LintFixtures, PointerKeyBadIsFlagged)
{
    const auto findings = lintFixture("pointer_key_bad.cc");
    // map, set, and multimap each keyed by a raw pointer.
    EXPECT_EQ(countOnly(findings, Rule::pointerKey), 3u);
}

TEST(LintFixtures, PointerKeyAllowedIsClean)
{
    // Pointer *values* are fine, unordered containers hash rather than
    // order, and the id-comparator set carries a documented allow().
    EXPECT_TRUE(lintFixture("pointer_key_allowed.cc").empty());
}

TEST(LintFixtures, SnapshotPairBadIsFlagged)
{
    const auto findings = lintFixture("snapshot_pair_bad.cc");
    // snapshot-without-restore and restore-without-snapshot.
    EXPECT_EQ(countOnly(findings, Rule::snapshotPair), 2u);
}

TEST(LintFixtures, SnapshotPairAllowedIsClean)
{
    // Both halves declared, neither declared, and a documented
    // one-sided reader behind an allow().
    EXPECT_TRUE(lintFixture("snapshot_pair_allowed.cc").empty());
}

// ---------------------------------------------------------------------------
// 2. Unit tests on inline snippets.
// ---------------------------------------------------------------------------

TEST(LintUnit, SuppressionCoversOwnAndNextLineOnly)
{
    const std::string src =
        "// ehpsim-lint: allow(float-arith)\n"
        "float covered;\n"
        "float not_covered;\n";
    const auto findings = lintContent("inline.cc", src, Options{});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 3);
}

TEST(LintUnit, AllowFileSuppressesEverywhere)
{
    const std::string src =
        "// ehpsim-lint: allow-file(float-arith)\n"
        "float a;\n"
        "\n"
        "float b;\n";
    EXPECT_TRUE(lintContent("inline.cc", src, Options{}).empty());
}

TEST(LintUnit, SuppressionIsRuleSpecific)
{
    // An allow() for one rule must not silence another on the same line.
    const std::string src =
        "// ehpsim-lint: allow(wall-clock)\n"
        "float leaks_through;\n";
    const auto findings = lintContent("inline.cc", src, Options{});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(ruleName(findings[0].rule), std::string("float-arith"));
}

TEST(LintUnit, CommentsAndStringsAreNotCode)
{
    const std::string src =
        "// float in a comment, rand() too\n"
        "/* std::random_device inside a block comment */\n"
        "const char *doc = \"float rand() steady_clock\";\n";
    EXPECT_TRUE(lintContent("inline.cc", src, Options{}).empty());
}

TEST(LintUnit, RuleFilterRestrictsOutput)
{
    const std::string src = "float f = rand();\n";
    Options opts;
    opts.only_rules = {Rule::rawRand};
    const auto findings = lintContent("inline.cc", src, opts);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(ruleName(findings[0].rule), std::string("raw-rand"));
}

TEST(LintUnit, DefaultWhitelistExemptsWallTimer)
{
    const std::string src = "auto t = std::chrono::steady_clock::now();\n";
    // The sanctioned wall-clock shim is exempt...
    EXPECT_TRUE(
        lintContent("src/sim/wall_timer.cc", src, Options{}).empty());
    // ...but only by path, and only while the whitelist is on.
    EXPECT_EQ(lintContent("src/sweep/sweep_runner.cc", src, Options{}).size(),
              1u);
    Options strict;
    strict.default_whitelist = false;
    EXPECT_EQ(lintContent("src/sim/wall_timer.cc", src, strict).size(), 1u);
}

TEST(LintUnit, DefaultWhitelistExemptsEventQueueAlloc)
{
    // The queue's own oversized-callable fallback boxes in
    // sim/event_queue.
    const std::string src =
        "void f(Q &eq) {\n"
        "    eq.scheduleCallback(1, std::function<void()>([&eq] {}));\n"
        "}\n";
    EXPECT_TRUE(
        lintContent("src/sim/event_queue.cc", src, Options{}).empty());
    const auto findings =
        lintContent("src/comm/comm_group.cc", src, Options{});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(ruleName(findings[0].rule), std::string("event-alloc"));
}

TEST(LintUnit, ChunkAllocAppliesOnlyUnderCommPaths)
{
    // A per-iteration vector is ordinary C++ in most of the tree;
    // only the collective-construction hot path bans it.
    const std::string src =
        "void f(unsigned n) {\n"
        "    for (unsigned i = 0; i < n; ++i) {\n"
        "        std::vector<int> deps = {1, 2};\n"
        "        (void)deps;\n"
        "    }\n"
        "}\n";
    const auto findings =
        lintContent("src/comm/comm_group.cc", src, Options{});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(ruleName(findings[0].rule), std::string("chunk-alloc"));
    EXPECT_TRUE(lintContent("src/mem/hbm_stack.cc", src, Options{}).empty());
}

TEST(LintUnit, CrossFileUnorderedDeclIsSeen)
{
    // Member declared in a header, iterated in a .cc: pass 1 builds a
    // global name table, so linting both files together connects them.
    const auto findings = lintFiles(
        {fixture("cross_file_decl.hh"), fixture("cross_file_iter.cc")},
        Options{});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(ruleName(findings[0].rule), std::string("unordered-iter"));
    EXPECT_NE(findings[0].file.find("cross_file_iter.cc"),
              std::string::npos);
    // Linting the .cc alone must NOT fire: the declaration is unseen.
    EXPECT_TRUE(lintFixture("cross_file_iter.cc").empty());
}

TEST(LintUnit, StaticStateSkipsConstAndFunctions)
{
    const std::string src =
        "static const int k = 1;\n"
        "static constexpr int k2 = 2;\n"
        "static int helper(int);\n"
        "static int counter = 0;\n";
    const auto findings = lintContent("inline.cc", src, Options{});
    ASSERT_EQ(countOnly(findings, Rule::staticState), 1u);
    EXPECT_EQ(findings[0].line, 4);
    EXPECT_NE(findings[0].message.find("counter"), std::string::npos);
}

TEST(LintUnit, StaticStateWhitelistsTrackerImpl)
{
    // The tracker's thread-local current-pointer is the sanctioned
    // exception: it is the mechanism that *detects* shared state.
    const std::string src = "thread_local int tl_cur = 0;\n";
    EXPECT_TRUE(
        lintContent("src/sim/access_tracker.cc", src, Options{}).empty());
    EXPECT_EQ(lintContent("src/comm/comm_group.cc", src, Options{}).size(),
              1u);
    Options strict;
    strict.default_whitelist = false;
    EXPECT_EQ(
        lintContent("src/sim/access_tracker.cc", src, strict).size(), 1u);
}

TEST(LintUnit, PointerKeyIgnoresValuesAndUnordered)
{
    const std::string src =
        "std::map<int, Node *> values_ok;\n"
        "std::unordered_map<Node *, int> hashed_ok;\n"
        "std::map<Node *, int> flagged;\n";
    const auto findings = lintContent("inline.cc", src, Options{});
    ASSERT_EQ(countOnly(findings, Rule::pointerKey), 1u);
    EXPECT_EQ(findings[0].line, 3);
}

TEST(LintUnit, PointerKeySeesMultiLineTemplates)
{
    // The key spans a line break; the finding lands on the container
    // keyword's line and the message stays single-line.
    const std::string src =
        "std::map<\n"
        "    Node *,\n"
        "    int> spread;\n";
    const auto findings = lintContent("inline.cc", src, Options{});
    ASSERT_EQ(countOnly(findings, Rule::pointerKey), 1u);
    EXPECT_EQ(findings[0].message.find('\n'), std::string::npos);
}

TEST(LintUnit, ParseRuleRoundTrips)
{
    for (const Rule r : allRules()) {
        Rule parsed{};
        ASSERT_TRUE(parseRule(ruleName(r), parsed)) << ruleName(r);
        EXPECT_EQ(ruleName(parsed), ruleName(r));
    }
    Rule unused{};
    EXPECT_FALSE(parseRule("no-such-rule", unused));
}

// ---------------------------------------------------------------------------
// 3. Self-check: the shipping tree lints clean, via the library and
//    via the installed binary's exit code (the exact CI invocation).
// ---------------------------------------------------------------------------

TEST(LintTree, WholeTreeLintsClean)
{
    std::vector<std::string> files;
    std::string error;
    const std::string root(EHPSIM_SOURCE_DIR);
    ASSERT_TRUE(listSources(
        {root + "/src", root + "/bench", root + "/examples"}, files, error))
        << error;
    ASSERT_GT(files.size(), 100u) << "source walk looks truncated";

    const auto findings = lintFiles(files, Options{});
    for (const Finding &f : findings)
        ADD_FAILURE() << toString(f);
    EXPECT_TRUE(findings.empty());
}

TEST(LintCli, ExitCodesMatchContract)
{
    const std::string bin(EHPSIM_LINT_BIN);
    const std::string quiet = " > /dev/null 2>&1";

    const int clean = std::system(
        (bin + " " + fixture("float_allowed.cc") + quiet).c_str());
    const int dirty = std::system(
        (bin + " " + fixture("float_bad.cc") + quiet).c_str());
    const int usage = std::system((bin + " --rule bogus" + quiet).c_str());

    ASSERT_NE(clean, -1);
    EXPECT_EQ(WEXITSTATUS(clean), 0);
    EXPECT_EQ(WEXITSTATUS(dirty), 1);
    EXPECT_EQ(WEXITSTATUS(usage), 2);
}

// ---------------------------------------------------------------------------
// 4. JSON output: the machine-readable twin of the text form.
// ---------------------------------------------------------------------------

TEST(LintJson, EmptyFindingsProduceEmptyDocument)
{
    const std::string doc = toJson({});
    EXPECT_NE(doc.find("\"schema\": \"ehpsim-lint-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"findings\": []"), std::string::npos);
    EXPECT_NE(doc.find("\"count\": 0"), std::string::npos);
}

TEST(LintJson, FindingsCarryFileLineRuleMessage)
{
    const auto findings =
        lintContent("inline.cc", "static int g = 0;\n", Options{});
    ASSERT_EQ(findings.size(), 1u);
    const std::string doc = toJson(findings);
    EXPECT_NE(doc.find("\"file\": \"inline.cc\""), std::string::npos);
    EXPECT_NE(doc.find("\"line\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"rule\": \"static-state\""), std::string::npos);
    EXPECT_NE(doc.find("\"count\": 1"), std::string::npos);
}

TEST(LintJson, EscapesQuotesAndBackslashes)
{
    Finding f;
    f.rule = Rule::wallClock;
    f.file = "dir\\sub\\file.cc";
    f.line = 7;
    f.message = "uses \"now\"\nacross lines";
    const std::string doc = toJson({f});
    EXPECT_NE(doc.find("dir\\\\sub\\\\file.cc"), std::string::npos);
    EXPECT_NE(doc.find("\\\"now\\\""), std::string::npos);
    EXPECT_NE(doc.find("\\n"), std::string::npos);
    EXPECT_EQ(doc.find("\"now\"\n"), std::string::npos);
}

TEST(LintJson, CliFormatJsonMatchesContract)
{
    const std::string bin(EHPSIM_LINT_BIN);
    const std::string out = "/tmp/ehpsim_lint_json_test.json";

    const int dirty = std::system(
        (bin + " --format=json " + fixture("pointer_key_bad.cc") + " > " +
         out + " 2> /dev/null")
            .c_str());
    ASSERT_NE(dirty, -1);
    EXPECT_EQ(WEXITSTATUS(dirty), 1);

    std::string doc;
    {
        std::FILE *fp = std::fopen(out.c_str(), "rb");
        ASSERT_NE(fp, nullptr);
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, fp)) > 0)
            doc.append(buf, n);
        std::fclose(fp);
    }
    EXPECT_NE(doc.find("\"schema\": \"ehpsim-lint-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"rule\": \"pointer-key\""), std::string::npos);
    EXPECT_NE(doc.find("\"count\": 3"), std::string::npos);

    const int bogus = std::system(
        (bin + " --format=yaml " + fixture("pointer_key_bad.cc") +
         " > /dev/null 2>&1")
            .c_str());
    ASSERT_NE(bogus, -1);
    EXPECT_EQ(WEXITSTATUS(bogus), 2);
}
