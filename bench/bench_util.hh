/**
 * @file
 * Shared helpers for the paper-reproduction benches.
 *
 * Every bench binary prints machine-readable rows of the form
 *   [row] <figure>; <series>; <x>; <value>; <unit>
 * followed by a
 *   [paper_shape_check] <figure>: PASS/FAIL - <explanation>
 * line stating whether the qualitative shape of the paper's result
 * holds. The verdict is the exit status: a FAIL, or a sweep case that
 * threw, exits 1, so every bench doubles as a ctest gate.
 *
 * Sweep-shaped benches additionally split their configurations into
 * independent SweepCase jobs and run them through sweep::SweepRunner
 * (see runCases()). Such benches accept
 *   --jobs N       worker-pool size, a positive integer (default 1)
 *   --json FILE    write the ehpsim-sweep-v1 JSON document to FILE
 * and the other benches take no flags (see parseArgs()); rows print
 * in case order, so text and JSON output are byte-identical for any
 * --jobs value.
 */

#ifndef EHPSIM_BENCH_BENCH_UTIL_HH
#define EHPSIM_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sweep/sweep_runner.hh"

namespace ehpsim
{
namespace bench
{

inline void
printHeader(const std::string &figure, const std::string &title)
{
    std::printf("==== %s: %s ====\n", figure.c_str(), title.c_str());
}

inline void
printRow(const std::string &figure, const std::string &series,
         const std::string &x, double value, const std::string &unit)
{
    std::printf("[row] %s; %s; %s; %.4g; %s\n", figure.c_str(),
                series.c_str(), x.c_str(), value, unit.c_str());
}

/** Print the verdict line; @return @p pass, for main()'s status. */
inline bool
shapeCheck(const std::string &figure, bool pass,
           const std::string &explanation)
{
    std::printf("[paper_shape_check] %s: %s - %s\n", figure.c_str(),
                pass ? "PASS" : "FAIL", explanation.c_str());
    return pass;
}

// ---------------------------------------------------------------------
// Sweep support
// ---------------------------------------------------------------------

/** One measured point: what printRow() prints, as data. */
struct Row
{
    std::string series;
    std::string x;
    double value = 0;
    std::string unit;
};

/** Collects a case's rows; the runner serializes and prints them. */
class RowSink
{
  public:
    void
    row(std::string series, std::string x, double value,
        std::string unit)
    {
        rows_.push_back(
            Row{std::move(series), std::move(x), value, std::move(unit)});
    }

    const std::vector<Row> &rows() const { return rows_; }

  private:
    std::vector<Row> rows_;
};

/** One independent configuration of a sweep-shaped bench. */
struct SweepCase
{
    std::string name;
    std::function<void(RowSink &)> fn;
};

/** A finished case, rows recovered from its JSON-side payload. */
struct CaseOutcome
{
    std::string name;
    bool ok = false;
    std::string error;
    std::vector<Row> rows;
};

/** Sweep flags shared by all ported benches. */
struct SweepArgs
{
    unsigned jobs = 1;
    std::string json_path;
};

/** Which flags a bench's main() accepts. */
enum class Flags
{
    none,   ///< plain benches: no flags at all
    sweep,  ///< sweep-shaped benches: --jobs N, --json FILE
};

/**
 * Parse a bench's command line. Anything @p flags does not allow, a
 * missing value, or a --jobs value that is not a positive integer
 * prints a usage line and exits 2.
 */
inline SweepArgs
parseArgs(int argc, char **argv, Flags flags)
{
    SweepArgs args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const bool takes_value = flags == Flags::sweep && i + 1 < argc;
        if (takes_value && arg == "--json") {
            args.json_path = argv[++i];
            continue;
        }
        if (takes_value && arg == "--jobs") {
            const std::string val = argv[++i];
            const char *end = val.data() + val.size();
            const auto [ptr, ec] =
                std::from_chars(val.data(), end, args.jobs);
            if (ec == std::errc() && ptr == end && args.jobs > 0)
                continue;
            arg += " " + val;
        }
        std::fprintf(stderr, "%s: bad argument '%s'\nusage: %s%s\n",
                     argv[0], arg.c_str(), argv[0],
                     flags == Flags::sweep ? " [--jobs N] [--json FILE]"
                                           : " (takes no flags)");
        std::exit(2);
    }
    return args;
}

/** @return true when every case ran to completion. */
inline bool
allOk(const std::vector<CaseOutcome> &outcomes)
{
    return std::all_of(outcomes.begin(), outcomes.end(),
                       [](const CaseOutcome &o) { return o.ok; });
}

/**
 * Run @p cases through a SweepRunner with @p args.jobs workers.
 * Rows are printed in case order (never completion order), the
 * ehpsim-sweep-v1 JSON document is written when --json was given,
 * and the outcomes are returned for shape checks.
 */
inline std::vector<CaseOutcome>
runCases(const std::string &figure, std::vector<SweepCase> cases,
         const SweepArgs &args)
{
    sweep::SweepRunner runner(args.jobs);
    // Keep the sinks alive past run(): job fns serialize from them.
    auto sinks = std::make_shared<std::vector<RowSink>>(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        auto fn = cases[i].fn;
        runner.addJob(cases[i].name,
                      [fn, sinks, i](json::JsonWriter &jw) {
                          RowSink &sink = (*sinks)[i];
                          fn(sink);
                          jw.beginObject();
                          jw.key("rows");
                          jw.beginArray();
                          for (const auto &r : sink.rows()) {
                              jw.beginObject();
                              jw.kv("series", r.series);
                              jw.kv("x", r.x);
                              jw.kv("value", r.value);
                              jw.kv("unit", r.unit);
                              jw.endObject();
                          }
                          jw.endArray();
                          jw.endObject();
                      });
    }

    const auto results = runner.run();

    std::vector<CaseOutcome> outcomes(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        outcomes[i].name = results[i].name;
        outcomes[i].ok = results[i].ok;
        outcomes[i].error = results[i].error;
        if (results[i].ok)
            outcomes[i].rows = (*sinks)[i].rows();
        else
            std::printf("[job_error] %s; %s; %s\n", figure.c_str(),
                        results[i].name.c_str(),
                        results[i].error.c_str());
        for (const auto &r : outcomes[i].rows)
            printRow(figure, r.series, r.x, r.value, r.unit);
    }

    if (!args.json_path.empty()) {
        std::ofstream out(args.json_path);
        if (!out) {
            std::fprintf(stderr, "[sweep] %s: cannot open %s for "
                         "writing\n", figure.c_str(),
                         args.json_path.c_str());
            std::exit(1);
        }
        sweep::SweepRunner::dumpJson(out, figure, results);
        std::printf("[sweep] %s: %zu cases on %u workers, "
                    "%.3f s of job time; JSON -> %s\n",
                    figure.c_str(), results.size(), runner.workers(),
                    sweep::SweepRunner::totalJobSeconds(results),
                    args.json_path.c_str());
    }
    return outcomes;
}

/** Look up a row by (series, x); @return @p fallback when absent. */
inline double
findRow(const std::vector<CaseOutcome> &outcomes,
        const std::string &series, const std::string &x,
        double fallback = 0)
{
    for (const auto &o : outcomes) {
        for (const auto &r : o.rows) {
            if (r.series == series && r.x == x)
                return r.value;
        }
    }
    return fallback;
}

} // namespace bench
} // namespace ehpsim

#endif // EHPSIM_BENCH_BENCH_UTIL_HH
