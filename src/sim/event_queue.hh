/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue orders Event objects by (tick, priority, insertion
 * sequence) so simulations are fully deterministic. Events are owned
 * by their creators; the queue never deletes them. Callback-style
 * one-shot events are provided for fire-and-forget work: they live
 * in the queue's pool and are reclaimed after they fire, when their
 * process() throws, or — if they never fire — when the queue itself
 * is destroyed.
 *
 * Hot-path design (DESIGN.md §11):
 *  - an indexed binary heap: each scheduled Event carries its heap
 *    slot, so deschedule()/reschedule() remove the entry in O(log n)
 *    with no tombstones and no dead-entry skip loop;
 *  - a slab/free-list EventPool for one-shot callbacks:
 *    scheduleCallback() constructs the callable inline in a recycled
 *    fixed-size slot, so steady-state one-shot scheduling performs
 *    no heap allocation (a callable too big for the slot, and
 *    scheduleLambda()'s argument, ride in a std::function there);
 *  - one dispatch point: run() is a loop of step(), which pops the
 *    head event and fires it.
 */

#ifndef EHPSIM_SIM_EVENT_QUEUE_HH
#define EHPSIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace ehpsim
{

class EventQueue;
class EventPool;
class SnapshotWriter;
class SnapshotReader;

/**
 * Base class for anything schedulable on an EventQueue.
 */
class Event
{
  public:
    /** Lower values run first among events at the same tick. */
    enum Priority : int
    {
        maximumPriority = 0,
        defaultPriority = 50,
        minimumPriority = 100,
    };

    explicit Event(int priority = defaultPriority)
        : priority_(priority)
    {}

    virtual ~Event() = default;

    /** Invoked by the queue when the event's tick arrives. */
    virtual void process() = 0;

    int priority() const { return priority_; }

    bool scheduled() const { return scheduled_; }

    Tick when() const { return when_; }

  private:
    friend class EventQueue;
    friend class EventPool;
    friend class PoolEvent;

    /** heap_index_ value for an event that is not queued. */
    static constexpr std::size_t notQueued =
        static_cast<std::size_t>(-1);

    int priority_;
    bool scheduled_ = false;
    /** True for the queue's own pooled one-shots: the queue
     *  reclaims them to the pool once they fire. */
    bool pooled_ = false;
    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    /** Slot in the queue's heap while scheduled. */
    std::size_t heap_index_ = notQueued;
};

/** Bytes of inline callable storage in a pooled one-shot event. */
constexpr std::size_t inlineCallbackBytes = 48;

/** True when a pooled one-shot's inline storage can hold the callable
 *  built from an F&& as is, without a std::function box. */
template <typename F>
constexpr bool fitsInlineCallback =
    sizeof(std::decay_t<F>) <= inlineCallbackBytes &&
    alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
    std::is_nothrow_constructible_v<std::decay_t<F>, F &&>;

/**
 * A pooled one-shot callback event. The callable lives inline in
 * store_; invoke_/destroy_ are the type-erased entry points
 * EventQueue::emplaceOneShot() installs. Only the EventQueue and its
 * pool create, fire, and recycle these.
 */
class PoolEvent final : public Event
{
  public:
    PoolEvent() { pooled_ = true; }

    void process() override { invoke_(store_); }

  private:
    friend class EventQueue;
    friend class EventPool;

    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
    PoolEvent *next_free_ = nullptr;
    /** Checkpoint identity (scheduleKeyed): nullptr for plain
     *  one-shots. Points at stable storage (a string literal), so
     *  it stays valid for as long as the event is pending. */
    const char *key_ = nullptr;
    /** Opaque replay payload saved alongside key_. */
    std::uint64_t a0_ = 0;
    std::uint64_t a1_ = 0;
    alignas(std::max_align_t) unsigned char store_[inlineCallbackBytes];
};

/**
 * Slab allocator + free list for PoolEvents. Slabs are allocated in
 * fixed-size blocks, never returned to the OS until the pool dies,
 * so steady-state acquire/release touches no allocator.
 */
class EventPool
{
  public:
    EventPool() = default;

    EventPool(const EventPool &) = delete;
    EventPool &operator=(const EventPool &) = delete;

    /** A recycled (or freshly slab-allocated) event. The callable
     *  slots (invoke_/destroy_) are unset; the caller installs them. */
    PoolEvent *acquire();

    /** Destroy the inline callable and return the slot to the free
     *  list. The event must not be scheduled. */
    void release(PoolEvent *ev);

    /** Total one-shot slots backed by slabs (free or in flight). */
    std::size_t capacity() const { return slabs_.size() * slabSize; }

  private:
    static constexpr std::size_t slabSize = 256;

    std::vector<std::unique_ptr<PoolEvent[]>> slabs_;
    PoolEvent *free_ = nullptr;
};

/**
 * A deterministic discrete-event queue.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Reclaims any still-pending pooled one-shots. */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return cur_tick_; }

    /** Schedule @p ev to fire at absolute tick @p when (>= curTick). */
    void schedule(Event *ev, Tick when);

    /**
     * Schedule a one-shot callback, reclaimed by the queue after it
     * fires. A callable that fits the pool's inline storage is
     * constructed in a recycled slot, so the schedule performs no
     * heap allocation; a bigger or throwing-constructible one is
     * boxed in a std::function, which then takes a slot the same
     * way.
     */
    template <typename F>
    void
    scheduleCallback(Tick when, F &&fn,
                     int priority = Event::defaultPriority)
    {
        if constexpr (fitsInlineCallback<F>) {
            schedule(emplaceOneShot(std::forward<F>(fn), priority), when);
        } else {
            static_assert(fitsInlineCallback<std::function<void()>>);
            scheduleCallback(when,
                             std::function<void()>(std::forward<F>(fn)),
                             priority);
        }
    }

    /**
     * Convenience: schedule a one-shot callback at @p when. The
     * std::function is moved into the pool, so this shares the
     * allocation-free steady state of scheduleCallback(); prefer
     * scheduleCallback() in hot paths to also skip the function's
     * own capture allocation.
     */
    void scheduleLambda(Tick when, std::function<void()> fn,
                        int priority = Event::defaultPriority);

    /**
     * Schedule a checkpoint-aware one-shot (DESIGN.md §16): exactly
     * scheduleCallback(), except the pooled event also records
     * (@p key, @p a0, @p a1) so save() can serialize it while
     * pending and restore() can replay it through the factory
     * registered under @p key. @p key must point at storage that
     * outlives the event (a string literal). The callable must fit
     * the pool's inline slot unboxed.
     */
    template <typename F>
    void
    scheduleKeyed(Tick when, const char *key, std::uint64_t a0,
                  std::uint64_t a1, F &&fn,
                  int priority = Event::defaultPriority)
    {
        static_assert(fitsInlineCallback<F>,
                      "keyed one-shot callable must fit the pool's "
                      "inline slot");
        PoolEvent *ev = emplaceOneShot(std::forward<F>(fn), priority);
        ev->key_ = key;
        ev->a0_ = a0;
        ev->a1_ = a1;
        schedule(ev, when);
    }

    /**
     * A pending-event replayer: restore() invokes the factory
     * registered under a saved event's key with the saved
     * (tick, a0, a1). The factory must issue exactly one
     * scheduleKeyed() with the same key, tick, and priority as the
     * original — the queue force-assigns the saved sequence number
     * and validates tick and priority, so the replayed event slots
     * into the exact total-order position it held when saved.
     */
    using KeyedFactory =
        std::function<void(Tick, std::uint64_t, std::uint64_t)>;

    /**
     * Register the replayer for @p key (panics on a duplicate).
     * Components register their factories at construction time —
     * harmless when no restore ever happens — so any freshly built
     * world can absorb a checkpoint.
     */
    void registerKeyedFactory(const char *key, KeyedFactory fn);

    /**
     * True when every pending event is keyed (checkpoint-aware),
     * i.e. the queue is at a quiesce point where save() succeeds.
     * Callers fast-forward to one with: while (!allPendingKeyed()
     * && !empty()) step();
     */
    bool allPendingKeyed() const;

    /**
     * Serialize the tick/sequence counters and every pending event,
     * in (tick, priority, seq) order. Fatal if any pending event is
     * unkeyed — quiesce first. Panics when called from inside a
     * dispatch.
     */
    void save(SnapshotWriter &w) const;

    /**
     * Rebuild counters and pending events from a checkpoint into
     * this queue, which must be freshly built (nothing scheduled,
     * nothing processed). Each saved event replays through its
     * registered KeyedFactory; a missing factory is fatal.
     */
    void restore(SnapshotReader &r);

    /**
     * Remove a scheduled event from the queue. Queue-owned one-shots
     * are rejected: the queue only reclaims events it fires, so
     * descheduling one would leak it. After descheduling, the owner
     * may immediately delete the event; the queue never touches its
     * memory again.
     */
    void deschedule(Event *ev);

    /** Schedule @p ev at @p when, first removing it from the queue
     *  if it is pending. Takes a fresh sequence number. */
    void reschedule(Event *ev, Tick when);

    /** True when no events remain. */
    bool empty() const { return live_count_ == 0; }

    /** Number of pending (non-descheduled) events. */
    std::size_t size() const { return live_count_; }

    /**
     * Pre-size the scheduling heap for a known fan-out (e.g. ring
     * size x chunk count) so bursts of schedule() calls never grow
     * it incrementally.
     */
    void reserve(std::size_t n) { heap_.reserve(n); }

    /** Scheduling-heap slots currently allocated. */
    std::size_t capacity() const { return heap_.capacity(); }

    /** One-shot pool slots currently allocated (slab-backed). */
    std::size_t poolCapacity() const { return pool_.capacity(); }

    /** High-water mark of simultaneously scheduled events. */
    std::size_t peakLive() const { return peak_live_; }

    /**
     * step() until the queue drains or the next event lies past
     * @p limit (then curTick() becomes @p limit).
     * @return the tick at which execution stopped.
     */
    Tick run(Tick limit = maxTick);

    /** Pop and fire the head event; @return false if the queue was
     *  empty. */
    bool step();

    /** Total events processed over the queue's lifetime. */
    std::uint64_t numProcessed() const { return num_processed_; }

  private:
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Event *ev;
    };

    /** The (tick, priority, seq) total order. */
    static bool
    entryLess(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.seq < b.seq;
    }

    /** @{ indexed-heap primitives; every move updates the owning
     *  event's heap_index_. Sifts return the entry's final slot. */
    std::size_t siftUp(std::size_t i);
    std::size_t siftDown(std::size_t i);
    void pushEntry(Entry e);
    Entry popTop();
    void removeAt(std::size_t i);
    /** @} */

    /** A pooled one-shot holding @p fn, ready to schedule. */
    template <typename F>
    PoolEvent *
    emplaceOneShot(F &&fn, int priority)
    {
        using Fn = std::decay_t<F>;
        PoolEvent *ev = pool_.acquire();
        ::new (static_cast<void *>(ev->store_)) Fn(std::forward<F>(fn));
        ev->invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
        ev->destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
        ev->priority_ = priority;
        return ev;
    }

    /** Remove @p ev's heap entry; never touches the event
     *  afterwards. */
    void killEntry(Event *ev);

    /** Process one popped event, reclaiming a pooled one — also on
     *  the throwing-process() path. */
    void fire(Event *ev);

    std::vector<Entry> heap_;
    EventPool pool_;
    /** True while fire() runs an event's process(). */
    bool dispatching_ = false;

    Tick cur_tick_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t num_processed_ = 0;
    std::size_t live_count_ = 0;
    std::size_t peak_live_ = 0;

    /** Keyed-event replayers, looked up by name during restore().
     *  A plain vector: registries hold a handful of entries and a
     *  linear scan keeps iteration order deterministic. */
    std::vector<std::pair<std::string, KeyedFactory>> factories_;

    /** @{ restore() replay state: while restoring_, schedule()
     *  force-assigns forced_seq_ and validates (tick, priority)
     *  against what the checkpoint recorded. */
    bool restoring_ = false;
    bool factory_scheduled_ = false;
    std::uint64_t forced_seq_ = 0;
    Tick expect_when_ = 0;
    int expect_prio_ = 0;
    /** @} */
};

} // namespace ehpsim

#endif // EHPSIM_SIM_EVENT_QUEUE_HH
