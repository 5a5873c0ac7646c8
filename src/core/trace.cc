#include "core/trace.hh"

#include <fstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace ehpsim
{
namespace core
{

namespace
{

/** One complete ("X") slice; zero-length slices are dropped. */
void
emitEvent(json::JsonWriter &jw, const std::string &name, int tid,
          double start_us, double dur_us)
{
    if (dur_us <= 0)
        return;
    jw.beginObject();
    jw.kv("name", name);
    jw.kv("ph", "X");
    jw.kv("pid", 1);
    jw.kv("tid", tid);
    jw.kv("ts", start_us);
    jw.kv("dur", dur_us);
    jw.endObject();
}

} // anonymous namespace

void
writeChromeTrace(const RunReport &report, std::ostream &os)
{
    json::JsonWriter jw(os);
    jw.beginObject();
    jw.kv("displayTimeUnit", "ms");
    jw.key("traceEvents");
    jw.beginArray();

    // Track names.
    const struct
    {
        int tid;
        const char *name;
    } tracks[] = {{1, "GPU"}, {2, "CPU"}, {3, "host link"},
                  {4, "overheads"}};
    for (const auto &t : tracks) {
        jw.beginObject();
        jw.kv("name", "thread_name");
        jw.kv("ph", "M");
        jw.kv("pid", 1);
        jw.kv("tid", t.tid);
        jw.key("args");
        jw.beginObject();
        jw.kv("name", t.name);
        jw.endObject();
        jw.endObject();
    }

    double cursor_us = 0;
    for (const auto &p : report.phases) {
        const double start = cursor_us;
        double t = start;
        // Transfers precede the device work; overlap (total <
        // sum of parts) is rendered by overlapping the CPU slice
        // with the tail of the GPU slice.
        emitEvent(jw, p.name + " (copy)", 3, t, p.transfer_s * 1e6);
        t += p.transfer_s * 1e6;
        emitEvent(jw, p.name, 1, t, p.gpu_s * 1e6);
        const double serial = p.gpu_s + p.cpu_s + p.transfer_s +
                              p.overhead_s;
        const double overlap_us =
            serial > p.total_s ? (serial - p.total_s) * 1e6 : 0;
        const double cpu_start =
            t + p.gpu_s * 1e6 - overlap_us;
        emitEvent(jw, p.name, 2, cpu_start < t ? t : cpu_start,
                  p.cpu_s * 1e6);
        emitEvent(jw, p.name + " (launch/sync)", 4, start,
                  p.overhead_s * 1e6);
        cursor_us = start + p.total_s * 1e6;
    }
    jw.endArray();
    jw.endObject();
    os << "\n";
}

void
writeChromeTrace(const RunReport &report, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace file '", path, "'");
    writeChromeTrace(report, out);
}

} // namespace core
} // namespace ehpsim
