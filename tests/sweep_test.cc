/**
 * @file
 * Unit and stress tests for the parallel sweep engine: the
 * deterministic JSON writer, the stats JSON visitor, per-job
 * exception capture, and the serial-vs-parallel byte-identical
 * output guarantee.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sweep/sweep_runner.hh"

using namespace ehpsim;

TEST(Json, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json::escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(json::escape("line\nbreak\ttab"),
              "line\\nbreak\\ttab");
    EXPECT_EQ(json::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, NumberFormattingIsCanonical)
{
    EXPECT_EQ(json::formatNumber(0), "0");
    EXPECT_EQ(json::formatNumber(42), "42");
    EXPECT_EQ(json::formatNumber(-3), "-3");
    EXPECT_EQ(json::formatNumber(1e15), "1000000000000000");
    EXPECT_EQ(json::formatNumber(2.5), "2.5");
    EXPECT_EQ(json::formatNumber(1.0 / 0.0), "null");
    EXPECT_EQ(json::formatNumber(0.0 / 0.0), "null");
}

TEST(Json, WriterProducesValidNestedDocument)
{
    std::ostringstream oss;
    json::JsonWriter jw(oss);
    jw.beginObject();
    jw.kv("name", "run");
    jw.kv("count", std::uint64_t(3));
    jw.key("values");
    jw.beginArray();
    jw.value(1.5).value(std::int64_t(-2)).value(true).nullValue();
    jw.endArray();
    jw.key("empty");
    jw.beginObject();
    jw.endObject();
    jw.endObject();
    EXPECT_TRUE(jw.done());
    const std::string doc = oss.str();
    EXPECT_EQ(doc,
              "{\n"
              "  \"name\": \"run\",\n"
              "  \"count\": 3,\n"
              "  \"values\": [\n"
              "    1.5,\n"
              "    -2,\n"
              "    true,\n"
              "    null\n"
              "  ],\n"
              "  \"empty\": {}\n"
              "}");
}

TEST(Json, MisuseIsAnError)
{
    std::ostringstream oss;
    json::JsonWriter jw(oss);
    jw.beginObject();
    EXPECT_DEATH(jw.value(1.0), "without a key");
}

TEST(Stats, DumpJsonMirrorsTheGroupTree)
{
    stats::StatGroup root(nullptr, "system");
    stats::StatGroup child(&root, "cache");
    stats::Scalar hits(&child, "hits", "demand hits");
    hits += 7;
    stats::Average lat(&child, "lat", "latency");
    lat.sample(10);
    lat.sample(20);
    stats::Formula rate(&root, "rate", "", [] { return 0.5; });
    stats::Distribution dist(&root, "sizes", "");
    dist.init(0, 100, 4);
    dist.sample(10);
    dist.sample(250);

    std::ostringstream oss;
    json::JsonWriter jw(oss);
    root.dumpJsonStats(jw);
    const std::string doc = oss.str();
    EXPECT_NE(doc.find("\"hits\": 7"), std::string::npos);
    EXPECT_NE(doc.find("\"mean\": 15"), std::string::npos);
    EXPECT_NE(doc.find("\"rate\": 0.5"), std::string::npos);
    EXPECT_NE(doc.find("\"overflows\": 1"), std::string::npos);
    EXPECT_NE(doc.find("\"cache\": {"), std::string::npos);
}

namespace
{

/**
 * A miniature but real simulation job: its own EventQueue and stats
 * tree, with the result derived only from the job's own inputs so
 * output is independent of scheduling.
 */
void
simJob(unsigned idx, json::JsonWriter &jw)
{
    EventQueue eq;
    stats::StatGroup root(nullptr, "job");
    stats::Scalar work(&root, "work", "accumulated work");
    for (unsigned i = 0; i < 50 + idx; ++i) {
        eq.scheduleCallback((i + 1) * 10,
                            [&work, i] { work += double(i % 7); });
    }
    eq.run();
    jw.beginObject();
    jw.kv("index", std::uint64_t(idx));
    jw.kv("ticks", eq.curTick());
    jw.kv("events", eq.numProcessed());
    jw.kv("work", work.value());
    jw.key("stats");
    root.dumpJsonStats(jw);
    jw.endObject();
}

/** Build a fresh runner holding @p n copies of the sim job. */
sweep::SweepRunner
makeRunner(unsigned n, unsigned workers)
{
    sweep::SweepRunner runner(workers);
    for (unsigned i = 0; i < n; ++i) {
        runner.addJob("job" + std::to_string(i),
                      [i](json::JsonWriter &jw) { simJob(i, jw); });
    }
    return runner;
}

std::string
sweepJson(unsigned n, unsigned workers)
{
    auto runner = makeRunner(n, workers);
    std::ostringstream oss;
    sweep::SweepRunner::dumpJson(oss, "stress", runner.run());
    return oss.str();
}

} // anonymous namespace

TEST(SweepRunner, ResultsAreOrderedByJobIndex)
{
    sweep::SweepRunner runner(4);
    for (unsigned i = 0; i < 16; ++i) {
        runner.addJob("j" + std::to_string(i),
                      [i](json::JsonWriter &jw) {
                          jw.beginObject();
                          jw.kv("id", std::uint64_t(i));
                          jw.endObject();
                      });
    }
    const auto results = runner.run();
    ASSERT_EQ(results.size(), 16u);
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].name, "j" + std::to_string(i));
        EXPECT_TRUE(results[i].ok);
        EXPECT_NE(results[i].output.find("\"id\": " +
                                         std::to_string(i)),
                  std::string::npos);
    }
}

TEST(SweepRunner, CapturesPerJobExceptions)
{
    sweep::SweepRunner runner(3);
    runner.addJob("good", [](json::JsonWriter &jw) {
        jw.beginObject();
        jw.kv("ok", true);
        jw.endObject();
    });
    runner.addJob("bad", [](json::JsonWriter &) {
        fatal("deliberately broken config");
    });
    runner.addJob("also_good",
                  [](json::JsonWriter &jw) { jw.value(1.0); });

    const auto results = runner.run();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("deliberately broken"),
              std::string::npos);
    EXPECT_TRUE(results[1].output.empty());
    EXPECT_TRUE(results[2].ok);
}

TEST(SweepRunner, FailedJobSerializesAsErrorStatus)
{
    sweep::SweepRunner runner(2);
    runner.addJob("boom", [](json::JsonWriter &) {
        throw std::runtime_error("kaput");
    });
    std::ostringstream oss;
    sweep::SweepRunner::dumpJson(oss, "errors", runner.run());
    const std::string doc = oss.str();
    EXPECT_NE(doc.find("\"status\": \"error\""), std::string::npos);
    EXPECT_NE(doc.find("\"error\": \"kaput\""), std::string::npos);
    EXPECT_NE(doc.find("\"output\": null"), std::string::npos);
}

TEST(SweepRunner, ZeroWorkersMeansHardwareConcurrency)
{
    sweep::SweepRunner runner(0);
    EXPECT_GE(runner.workers(), 1u);
}

TEST(SweepRunner, ParallelOutputIsByteIdenticalToSerial)
{
    // The tentpole guarantee: 32+ jobs over 4+ workers produce
    // exactly the bytes the --jobs 1 run produces.
    const std::string serial = sweepJson(32, 1);
    const std::string parallel4 = sweepJson(32, 4);
    const std::string parallel8 = sweepJson(32, 8);
    EXPECT_EQ(serial, parallel4);
    EXPECT_EQ(serial, parallel8);
    // And the document is non-trivial.
    EXPECT_NE(serial.find("\"num_jobs\": 32"), std::string::npos);
    EXPECT_NE(serial.find("\"name\": \"job31\""), std::string::npos);
}

TEST(SweepRunner, WallClockStaysOutOfDeterministicPayload)
{
    // Host-side timing (WallTimer) is measured per job for operator
    // feedback, but it is host-dependent and must never leak into
    // the ehpsim-sweep-v1 document — that is what keeps --jobs 1
    // and --jobs N byte-identical.
    auto runner = makeRunner(4, 2);
    const auto results = runner.run();
    for (const auto &res : results) {
        EXPECT_GE(res.wall_s, 0.0);
        EXPECT_EQ(res.output.find("wall_s"), std::string::npos);
    }
    EXPECT_GE(sweep::SweepRunner::totalJobSeconds(results), 0.0);
    std::ostringstream oss;
    sweep::SweepRunner::dumpJson(oss, "timing", results);
    const std::string doc = oss.str();
    EXPECT_EQ(doc.find("wall_s"), std::string::npos);
    EXPECT_EQ(doc.find("elapsed"), std::string::npos);
}

TEST(SweepRunner, RepeatedRunsAreStable)
{
    auto runner = makeRunner(8, 4);
    std::ostringstream a, b;
    sweep::SweepRunner::dumpJson(a, "stress", runner.run());
    sweep::SweepRunner::dumpJson(b, "stress", runner.run());
    EXPECT_EQ(a.str(), b.str());
}
