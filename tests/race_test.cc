/**
 * Tests for ehpsim-race, the dynamic determinism race detector.
 *
 * The AccessTracker class itself always compiles (only the hooks are
 * EHPSIM_RACE-gated), so most of this file drives it directly:
 * conflict semantics, waiver policy, and byte-determinism of the
 * report across SweepRunner worker counts. A final section, compiled only under -DEHPSIM_RACE=ON,
 * runs real EventQueue dispatch through the instrumentation macros.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/access_tracker.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/sim_object.hh"
#include "sweep/sweep_runner.hh"

using namespace ehpsim;
using race::AccessTracker;

namespace {

std::string
dump(const AccessTracker &t)
{
    std::ostringstream os;
    json::JsonWriter jw(os);
    t.dumpJson(jw);
    return os.str();
}

/** One recorded access inside its own event dispatch. */
void
access(AccessTracker &t, Tick when, std::uint64_t seq,
       const char *cell, bool write, int line = 10)
{
    t.beginEvent(when, seq);
    t.record(nullptr, cell, write, "src/x/y.cc", line);
    t.endEvent();
}

} // namespace

// ---------------------------------------------------------------------------
// Order conflicts: same tick, different events, same cell.
// ---------------------------------------------------------------------------

TEST(RaceOrder, WriteWriteSameWindowIsFlagged)
{
    AccessTracker t;
    access(t, 100, 1, "grp.cell", true, 11);
    access(t, 100, 2, "grp.cell", true, 22);
    EXPECT_EQ(t.conflictCount(), 1u);
    EXPECT_EQ(t.unwaivedCount(), 1u);

    const std::string doc = dump(t);
    EXPECT_NE(doc.find("\"kind\": \"order\""), std::string::npos);
    EXPECT_NE(doc.find("\"cell\": \"grp.cell\""), std::string::npos);
    // Both sites carry repo-relative provenance and access marks.
    EXPECT_NE(doc.find("src/x/y.cc:11[w]"), std::string::npos);
    EXPECT_NE(doc.find("src/x/y.cc:22[w]"), std::string::npos);
}

TEST(RaceOrder, ReadWriteSameWindowIsFlagged)
{
    AccessTracker t;
    access(t, 100, 1, "grp.cell", false);
    access(t, 100, 2, "grp.cell", true);
    EXPECT_EQ(t.conflictCount(), 1u);
}

TEST(RaceOrder, ReadReadIsClean)
{
    AccessTracker t;
    access(t, 100, 1, "grp.cell", false);
    access(t, 100, 2, "grp.cell", false);
    EXPECT_EQ(t.conflictCount(), 0u);
}

TEST(RaceOrder, DifferentTicksAreClean)
{
    AccessTracker t;
    access(t, 100, 1, "grp.cell", true);
    access(t, 200, 2, "grp.cell", true);
    EXPECT_EQ(t.conflictCount(), 0u);
}

TEST(RaceOrder, SameEventTouchingTwiceIsClean)
{
    // One event may read and write its own state freely; only
    // *cross-event* ordering within a tick is a hazard.
    AccessTracker t;
    t.beginEvent(100, 1);
    t.record(nullptr, "grp.cell", false, "src/x.cc", 1);
    t.record(nullptr, "grp.cell", true, "src/x.cc", 2);
    t.endEvent();
    EXPECT_EQ(t.conflictCount(), 0u);
}

TEST(RaceOrder, DifferentCellsAreClean)
{
    AccessTracker t;
    access(t, 100, 1, "grp.a", true);
    access(t, 100, 2, "grp.b", true);
    EXPECT_EQ(t.conflictCount(), 0u);
}

TEST(RaceOrder, AccessesOutsideEventsAreIgnored)
{
    // Topology building and construction run before the event loop;
    // they cannot race and must not pollute the report.
    AccessTracker t;
    t.record(nullptr, "grp.cell", true, "src/x.cc", 1);
    t.record(nullptr, "grp.cell", true, "src/x.cc", 2);
    EXPECT_EQ(t.accessCount(), 0u);
    EXPECT_EQ(t.conflictCount(), 0u);
}

TEST(RaceOrder, RepeatedConflictDeduplicatesWithCount)
{
    // The same pair of sites colliding in window after window is one
    // finding with a hit count, not a flood of duplicates — and the
    // discovery order within a window must not split the pair.
    AccessTracker t;
    for (int round = 1; round <= 3; ++round) {
        const bool flip = round % 2 == 0;
        access(t, Tick(100 * round), 1, "grp.cell", true,
               flip ? 22 : 11);
        access(t, Tick(100 * round), 2, "grp.cell", true,
               flip ? 11 : 22);
    }
    EXPECT_EQ(t.conflictCount(), 1u);
    EXPECT_NE(dump(t).find("\"count\": 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Waivers: reviewed findings stay in the report but stop gating.
// ---------------------------------------------------------------------------

TEST(RaceWaiver, SubstringMatchMovesFindingToWaived)
{
    AccessTracker t;
    access(t, 100, 1, "comm.stats.ops", true);
    access(t, 100, 2, "comm.stats.ops", true);
    access(t, 100, 3, "comm.order", true);
    access(t, 100, 4, "comm.order", true);
    ASSERT_EQ(t.conflictCount(), 2u);
    EXPECT_EQ(t.unwaivedCount(), 2u);

    t.waive(".stats", "scalar accumulation commutes");
    EXPECT_EQ(t.unwaivedCount(), 1u);
    EXPECT_EQ(t.waivedCount(), 1u);

    const std::string doc = dump(t);
    EXPECT_NE(doc.find("\"rationale\": \"scalar accumulation commutes\""),
              std::string::npos);
    // The waiver table reports how often each pattern fired, so dead
    // waivers are visible and removable.
    EXPECT_NE(doc.find("\"uses\": 1"), std::string::npos);
}

TEST(RaceWaiver, StandardWaiversCoverTheProvenPatterns)
{
    AccessTracker t;
    race::addStandardWaivers(t);
    access(t, 100, 1, "comm.op3.state", true);
    access(t, 100, 2, "comm.op3.state", true);
    access(t, 100, 3, "net.l.occupancy", true);
    access(t, 100, 4, "net.l.occupancy", true);
    EXPECT_EQ(t.conflictCount(), 2u);
    EXPECT_EQ(t.unwaivedCount(), 0u);
}

// ---------------------------------------------------------------------------
// Report determinism: byte-identical across SweepRunner worker counts.
// ---------------------------------------------------------------------------

namespace {

/** A deterministic mixed scenario: unwaived order conflicts on one
 *  cell and waived ones on a stats cell. @p salt shifts every tick,
 *  so each sweep job's report differs. */
void
runScenario(AccessTracker &t, unsigned salt)
{
    race::addStandardWaivers(t);
    for (unsigned i = 0; i < 8; ++i) {
        const Tick when = 100 * (1 + i % 3) + salt;
        access(t, when, 2 * i, "hot.cell", true,
               int(10 + i % 2));
        access(t, when, 2 * i + 1, "hot.cell", true,
               int(20 + i % 2));
        access(t, when, 2 * i + 1, "net.stats.bytes", true, 30);
        access(t, when, 2 * i, "net.stats.bytes", true, 31);
    }
}

std::string
sweepReport(unsigned workers)
{
    constexpr std::size_t jobs = 8;
    sweep::SweepRunner runner(workers);
    for (std::size_t j = 0; j < jobs; ++j) {
        runner.addJob("race" + std::to_string(j),
                      [j](json::JsonWriter &jw) {
                          AccessTracker t;
                          runScenario(t, unsigned(j));
                          t.dumpJson(jw);
                      });
    }
    const auto results = runner.run();
    std::ostringstream os;
    sweep::SweepRunner::dumpJson(os, "race_determinism", results);
    return os.str();
}

} // namespace

TEST(RaceDeterminism, ReportIsByteIdenticalAcrossWorkerCounts)
{
    const std::string serial = sweepReport(1);
    const std::string wide = sweepReport(8);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, wide);
    // The scenario is genuinely dirty: conflicts were found, some
    // waived and some not.
    EXPECT_NE(serial.find("\"kind\": \"order\""), std::string::npos);
    EXPECT_NE(serial.find("\"waived\": true"), std::string::npos);
    EXPECT_NE(serial.find("\"waived\": false"), std::string::npos);
}

TEST(RaceDeterminism, RepeatedRunsAreByteIdentical)
{
    AccessTracker a, b;
    runScenario(a, 0);
    runScenario(b, 0);
    EXPECT_EQ(dump(a), dump(b));
}

// ---------------------------------------------------------------------------
// End-to-end through the EventQueue hooks (instrumented builds only).
// ---------------------------------------------------------------------------

#ifdef EHPSIM_RACE

TEST(RaceEndToEnd, BatchedSameTickWritesAreFlagged)
{
    EventQueue eq;
    SimObject root(nullptr, "root", &eq);
    AccessTracker t;
    race::TrackerScope scope(&t);

    // Two independent events land at the same tick and both mutate
    // the same cell: only the sequence tiebreak orders them.
    eq.scheduleCallback(100, [&root] {
        EHPSIM_TRACK_WRITE(&root, "hot");
    });
    eq.scheduleCallback(100, [&root] {
        EHPSIM_TRACK_WRITE(&root, "hot");
    });
    eq.run();

    EXPECT_EQ(t.eventCount(), 2u);
    EXPECT_EQ(t.conflictCount(), 1u);
    EXPECT_EQ(t.unwaivedCount(), 1u);
}

TEST(RaceEndToEnd, DifferentTickWritesAreClean)
{
    EventQueue eq;
    SimObject root(nullptr, "root", &eq);
    AccessTracker t;
    race::TrackerScope scope(&t);

    eq.scheduleCallback(100, [&root] {
        EHPSIM_TRACK_WRITE(&root, "hot");
    });
    eq.scheduleCallback(200, [&root] {
        EHPSIM_TRACK_WRITE(&root, "hot");
    });
    eq.run();

    EXPECT_EQ(t.eventCount(), 2u);
    EXPECT_EQ(t.conflictCount(), 0u);
}

TEST(RaceEndToEnd, MacrosIgnoreThreadsWithoutTracker)
{
    EventQueue eq;
    SimObject root(nullptr, "root", &eq);
    // No TrackerScope: the hooks must be inert, not crash.
    eq.scheduleCallback(100, [&root] {
        EHPSIM_TRACK_WRITE(&root, "hot");
    });
    eq.run();
    SUCCEED();
}

#endif // EHPSIM_RACE
