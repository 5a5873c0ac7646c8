/**
 * @file
 * ehpsim-race: the dynamic half of the determinism race detector.
 *
 * The event kernel guarantees a total order over (tick, seq), but
 * seq — the order events were scheduled in — is an implementation
 * tiebreak, not a scheduling contract: a model whose results depend
 * on it is fragile under any change to who schedules what first.
 * The AccessTracker checks that no two events at the same tick
 * touch the same state:
 *
 *  - instrumented state mutations pass through EHPSIM_TRACK_READ /
 *    EHPSIM_TRACK_WRITE, which attribute the access to the event
 *    the EventQueue is currently dispatching;
 *  - two accesses to the same cell from *different* events at the
 *    same tick, at least one a write, are an order hazard: firing
 *    those events in another order would change simulation results.
 *
 * Reports are emitted as the byte-deterministic `ehpsim-race-v2`
 * JSON object (all aggregation is in sorted std::map keyed by
 * strings and ints; no pointers, no wall time). Findings that are
 * understood and provably order-independent (commutative counter
 * updates, max-merges) are *waived* with a recorded rationale; CI
 * asserts the unwaived count is zero.
 *
 * Build gating: this class always compiles (unit tests drive it
 * directly), but the hooks — the EventQueue attribution calls and
 * every EHPSIM_TRACK_* macro — are real code only when the
 * EHPSIM_RACE CMake option defines EHPSIM_RACE=1. Release builds
 * compile the macros to ((void)0), so instrumented hot paths are
 * bit-identical to uninstrumented ones.
 */

#ifndef EHPSIM_SIM_ACCESS_TRACKER_HH
#define EHPSIM_SIM_ACCESS_TRACKER_HH

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sim/types.hh"

namespace ehpsim
{

class SimObject;

namespace json
{
class JsonWriter;
}

namespace race
{

class AccessTracker
{
  public:
    AccessTracker() = default;

    AccessTracker(const AccessTracker &) = delete;
    AccessTracker &operator=(const AccessTracker &) = delete;

    /** @{
     * Event attribution. The EventQueue brackets every dispatch
     * with beginEvent/endEvent (under EHPSIM_RACE); unit tests call
     * them directly. Accesses recorded outside an event (object
     * construction, topology building) are ignored — only
     * event-driven mutations can race.
     */
    void beginEvent(Tick when, std::uint64_t seq);
    void endEvent();
    /** @} */

    /**
     * Record one access to @p cell of @p obj. The cell name is the
     * object's stat path plus the cell suffix, so reports carry
     * full provenance ("root.topo.net.s0_s1.occupancy"). @p obj may
     * be null for free-standing state (cell is used verbatim).
     */
    void record(const SimObject *obj, const char *cell, bool is_write,
                const char *file, int line);

    /**
     * Waive findings whose cell path contains @p pattern
     * (substring match). Waived findings stay in the report with
     * the rationale attached; they no longer count as unwaived.
     * The rationale must say *why* the access order cannot change
     * results (e.g. "commutative decrement").
     */
    void waive(std::string pattern, std::string rationale);

    /** Distinct (deduplicated) findings. */
    std::size_t conflictCount() const { return conflicts_.size(); }

    std::size_t unwaivedCount() const;

    std::size_t waivedCount() const
    {
        return conflicts_.size() - unwaivedCount();
    }

    std::uint64_t eventCount() const { return events_; }

    std::uint64_t accessCount() const { return accesses_; }

    /** Write the full ehpsim-race-v2 report as one JSON object. */
    void dumpJson(json::JsonWriter &jw) const;

  private:
    friend class TrackerScope;

    struct Access
    {
        std::uint64_t seq;
        bool write;
        std::string site;   ///< "file.cc:123"
    };

    /** cell, endpoint a, endpoint b. */
    using ConflictKey = std::tuple<std::string, std::string, std::string>;

    struct ConflictInfo
    {
        std::uint64_t count = 0;
        Tick first_tick = 0;
    };

    struct Waiver
    {
        std::string rationale;
        mutable std::uint64_t uses = 0;
    };

    void noteConflict(const std::string &cell, std::string a,
                      std::string b);

    /** The waiver matching @p cell, or null. */
    const Waiver *waiverFor(const std::string &cell) const;

    bool in_event_ = false;
    Tick cur_tick_ = 0;
    std::uint64_t cur_seq_ = 0;

    /** Accesses in the current tick's window, per cell. Cleared
     *  when the tick changes, so memory is bounded by the busiest
     *  single tick. */
    Tick window_tick_ = 0;
    std::map<std::string, std::vector<Access>> window_;
    std::uint64_t window_drops_ = 0;

    std::map<ConflictKey, ConflictInfo> conflicts_;
    /** pattern -> waiver, iterated in sorted order. */
    std::map<std::string, Waiver> waivers_;
    std::uint64_t events_ = 0;
    std::uint64_t accesses_ = 0;
};

/**
 * Bind @p t as the calling thread's current tracker for the scope's
 * lifetime (restores the previous binding on exit). All EHPSIM_TRACK
 * macros and EventQueue hooks on this thread route to it.
 */
class TrackerScope
{
  public:
    explicit TrackerScope(AccessTracker *t);
    ~TrackerScope();

    TrackerScope(const TrackerScope &) = delete;
    TrackerScope &operator=(const TrackerScope &) = delete;

  private:
    AccessTracker *prev_;
};

/**
 * RAII bracket around one event dispatch. No-op when the thread has
 * no current tracker; safe on the EventQueue's exception path.
 */
class EventDispatchScope
{
  public:
    EventDispatchScope(Tick when, std::uint64_t seq);
    ~EventDispatchScope();

    EventDispatchScope(const EventDispatchScope &) = delete;
    EventDispatchScope &operator=(const EventDispatchScope &) = delete;

  private:
    AccessTracker *t_;
};

/** @{ Free helpers the macros expand to; no-ops without a current
 *  tracker, so instrumented code needs no tracker plumbing. */
void trackRead(const SimObject *obj, const char *cell,
               const char *file, int line);
void trackWrite(const SimObject *obj, const char *cell,
                const char *file, int line);
/** @} */

/**
 * The project's standing waivers: access patterns reviewed and
 * proven order-independent, applied by every race run (CLI, CI,
 * tests). Each carries its rationale into the report. See
 * DESIGN.md §14 for the policy on adding one.
 */
void addStandardWaivers(AccessTracker &t);

} // namespace race
} // namespace ehpsim

/**
 * Instrumentation macros. Real under -DEHPSIM_RACE=1 (the
 * EHPSIM_RACE CMake option); ((void)0) otherwise, so release hot
 * paths carry zero overhead and identical codegen.
 */
#ifdef EHPSIM_RACE
#define EHPSIM_TRACK_READ(obj, cell) \
    ::ehpsim::race::trackRead((obj), (cell), __FILE__, __LINE__)
#define EHPSIM_TRACK_WRITE(obj, cell) \
    ::ehpsim::race::trackWrite((obj), (cell), __FILE__, __LINE__)
#else
#define EHPSIM_TRACK_READ(obj, cell) ((void)0)
#define EHPSIM_TRACK_WRITE(obj, cell) ((void)0)
#endif

#endif // EHPSIM_SIM_ACCESS_TRACKER_HH
