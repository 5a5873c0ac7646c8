#include "sim/access_tracker.hh"

#include <algorithm>
#include <utility>

#include "sim/json.hh"
#include "sim/sim_object.hh"

namespace ehpsim
{
namespace race
{

namespace
{

/** Per-thread tracker binding (TrackerScope). Thread-local, not a
 *  shared global: every SweepRunner worker drives its own scenario
 *  under its own tracker, so no cross-thread state exists. */
thread_local AccessTracker *tl_current = nullptr;

/** Accesses kept per cell within one tick's window. A bigger
 *  window (a pathological tick) drops the overflow and reports it
 *  in summary.window_drops. */
constexpr std::size_t windowCap = 128;

/** Shorten an absolute __FILE__ to its repo-relative tail so
 *  reports are byte-identical regardless of the build directory. */
std::string
trimFile(const char *file)
{
    const std::string f = file ? file : "";
    for (const char *root : {"src/", "tests/", "examples/", "bench/"}) {
        const std::size_t p = f.rfind(root);
        if (p != std::string::npos)
            return f.substr(p);
    }
    const std::size_t slash = f.rfind('/');
    return slash == std::string::npos ? f : f.substr(slash + 1);
}

std::string
siteOf(const char *file, int line)
{
    return trimFile(file) + ":" + std::to_string(line);
}

} // anonymous namespace

void
AccessTracker::beginEvent(Tick when, std::uint64_t seq)
{
    if (when != window_tick_) {
        window_.clear();
        window_tick_ = when;
    }
    in_event_ = true;
    cur_tick_ = when;
    cur_seq_ = seq;
    ++events_;
}

void
AccessTracker::endEvent()
{
    in_event_ = false;
}

void
AccessTracker::record(const SimObject *obj, const char *cell,
                      bool is_write, const char *file, int line)
{
    // Construction-time and topology-building accesses happen before
    // the event loop and cannot race; only dispatch-time mutations
    // are recorded.
    if (!in_event_)
        return;
    ++accesses_;

    const std::string path =
        obj ? obj->statPath() + "." + cell : std::string(cell);
    const std::string site = siteOf(file, line);

    auto &window = window_[path];
    for (const Access &prev : window) {
        if (prev.seq != cur_seq_ && (prev.write || is_write)) {
            noteConflict(path, prev.site + (prev.write ? "[w]" : "[r]"),
                         site + (is_write ? "[w]" : "[r]"));
        }
    }
    // Re-recording the identical access adds no information; cap the
    // window so one hot cell cannot grow memory unboundedly.
    const bool dup = std::any_of(
        window.begin(), window.end(), [&](const Access &a) {
            return a.seq == cur_seq_ && a.write == is_write &&
                   a.site == site;
        });
    if (dup)
        return;
    if (window.size() >= windowCap) {
        ++window_drops_;
        return;
    }
    window.push_back(Access{cur_seq_, is_write, site});
}

void
AccessTracker::waive(std::string pattern, std::string rationale)
{
    waivers_[std::move(pattern)] =
        Waiver{std::move(rationale), 0};
}

void
AccessTracker::noteConflict(const std::string &cell, std::string a,
                            std::string b)
{
    // An order hazard between two sites is symmetric — which event
    // happened to fire first carries no information —
    // so canonicalize the endpoint order to deduplicate the pair.
    if (b < a)
        std::swap(a, b);
    auto [it, inserted] = conflicts_.try_emplace(
        ConflictKey{cell, std::move(a), std::move(b)});
    if (inserted)
        it->second.first_tick = cur_tick_;
    ++it->second.count;
}

const AccessTracker::Waiver *
AccessTracker::waiverFor(const std::string &cell) const
{
    for (const auto &[pattern, waiver] : waivers_) {
        if (cell.find(pattern) != std::string::npos)
            return &waiver;
    }
    return nullptr;
}

std::size_t
AccessTracker::unwaivedCount() const
{
    std::size_t n = 0;
    for (const auto &[key, info] : conflicts_) {
        if (!waiverFor(std::get<0>(key)))
            ++n;
    }
    return n;
}

void
AccessTracker::dumpJson(json::JsonWriter &jw) const
{
    for (auto &[pattern, waiver] : waivers_)
        waiver.uses = 0;

    jw.beginObject();
    jw.kv("schema", "ehpsim-race-v2");

    jw.key("summary");
    jw.beginObject();
    jw.kv("events", events_);
    jw.kv("accesses", accesses_);
    jw.kv("conflicts", std::uint64_t(conflicts_.size()));
    jw.kv("waived", std::uint64_t(waivedCount()));
    jw.kv("unwaived", std::uint64_t(unwaivedCount()));
    jw.kv("window_drops", window_drops_);
    jw.endObject();

    jw.key("conflicts");
    jw.beginArray();
    for (const auto &[key, info] : conflicts_) {
        const auto &[cell, a, b] = key;
        const Waiver *w = waiverFor(cell);
        if (w)
            ++w->uses;
        jw.beginObject();
        // The only kind the tracker finds; kept so reports stay
        // self-describing.
        jw.kv("kind", "order");
        jw.kv("cell", cell);
        jw.kv("a", a);
        jw.kv("b", b);
        jw.kv("count", info.count);
        jw.kv("first_tick", info.first_tick);
        jw.kv("waived", w != nullptr);
        if (w)
            jw.kv("rationale", w->rationale);
        jw.endObject();
    }
    jw.endArray();

    jw.key("waivers");
    jw.beginArray();
    for (const auto &[pattern, waiver] : waivers_) {
        jw.beginObject();
        jw.kv("pattern", pattern);
        jw.kv("rationale", waiver.rationale);
        jw.kv("uses", waiver.uses);
        jw.endObject();
    }
    jw.endArray();

    jw.endObject();
}

TrackerScope::TrackerScope(AccessTracker *t) : prev_(tl_current)
{
    tl_current = t;
}

TrackerScope::~TrackerScope()
{
    tl_current = prev_;
}

EventDispatchScope::EventDispatchScope(Tick when, std::uint64_t seq)
    : t_(tl_current)
{
    if (t_)
        t_->beginEvent(when, seq);
}

EventDispatchScope::~EventDispatchScope()
{
    if (t_)
        t_->endEvent();
}

void
trackRead(const SimObject *obj, const char *cell, const char *file,
          int line)
{
    if (AccessTracker *t = tl_current)
        t->record(obj, cell, false, file, line);
}

void
trackWrite(const SimObject *obj, const char *cell, const char *file,
           int line)
{
    if (AccessTracker *t = tl_current)
        t->record(obj, cell, true, file, line);
}

void
addStandardWaivers(AccessTracker &t)
{
    // Each entry was reviewed against the dispatch code it covers;
    // the bar for adding one is a proof of order-independence, not
    // convenience (DESIGN.md §14).
    t.waive(".op", "per-op chunk-completion bookkeeping is "
                   "commutative: pending_ is a pure decrement, "
                   "finish_/ready are max-merges, and "
                   "link_bytes_ is a sum — any same-tick "
                   "completion order yields identical op state");
    t.waive(".occupancy", "link occupancy is a serialization "
                          "queue: same-tick transfers drain in "
                          "seq order, and the queue's final "
                          "free-tick and busy-time sums are "
                          "independent of that order");
    t.waive(".stats", "scalar stat accumulation (+=, ++, "
                      "max-merge) commutes across same-tick "
                      "events by construction");
}

} // namespace race
} // namespace ehpsim
