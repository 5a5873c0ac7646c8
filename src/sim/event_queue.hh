/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue holds one kind of event: a one-shot callable that
 * lives in the queue's pool, fires once at its tick, and is
 * reclaimed after it fires, when it throws, or — if it never fires —
 * when the queue itself is destroyed. Events fire in (tick, seq)
 * order, where seq is the order they were scheduled in, so
 * simulations are fully deterministic.
 *
 * Hot-path design (DESIGN.md §11):
 *  - a binary heap of (tick, seq, event) entries: the keys are
 *    unique, so any correct heap pops the same total order;
 *  - a slab/free-list EventPool: scheduleCallback() constructs the
 *    callable inline in a recycled fixed-size slot, so steady-state
 *    scheduling performs no heap allocation (a callable too big for
 *    the slot rides in a std::function there);
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

class SnapshotWriter;
class SnapshotReader;

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
 * A pooled one-shot event slot. The callable lives inline in store_;
 * invoke_/destroy_ are the type-erased entry points
 * EventQueue::emplaceOneShot() installs. Only the EventQueue and its
 * pool create, fire, and recycle these.
 */
class PoolEvent
{
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

    /** Reclaims any still-pending one-shots. */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return cur_tick_; }

    /**
     * Schedule a one-shot callback at absolute tick @p when
     * (>= curTick), reclaimed by the queue after it fires. A
     * callable that fits the pool's inline storage is constructed in
     * a recycled slot, so the schedule performs no heap allocation;
     * a bigger or throwing-constructible one is boxed in a
     * std::function, which then takes a slot the same way.
     */
    template <typename F>
    void
    scheduleCallback(Tick when, F &&fn)
    {
        if constexpr (fitsInlineCallback<F>) {
            push(emplaceOneShot(std::forward<F>(fn)), when);
        } else {
            static_assert(fitsInlineCallback<std::function<void()>>);
            scheduleCallback(when,
                             std::function<void()>(std::forward<F>(fn)));
        }
    }

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
                  std::uint64_t a1, F &&fn)
    {
        static_assert(fitsInlineCallback<F>,
                      "keyed one-shot callable must fit the pool's "
                      "inline slot");
        PoolEvent *ev = emplaceOneShot(std::forward<F>(fn));
        ev->key_ = key;
        ev->a0_ = a0;
        ev->a1_ = a1;
        push(ev, when);
    }

    /**
     * A pending-event replayer: restore() invokes the factory
     * registered under a saved event's key with the saved
     * (tick, a0, a1). The factory must issue exactly one
     * scheduleKeyed() with the same key and tick as the original —
     * the queue force-assigns the saved sequence number and
     * validates the tick, so the replayed event slots into the
     * exact total-order position it held when saved.
     */
    using KeyedFactory =
        std::function<void(Tick, std::uint64_t, std::uint64_t)>;

    /**
     * Register the replayer for @p key. A later registration under
     * the same key replaces the earlier one, so only the component
     * alive at restore time replays its events. Components register
     * their factories at construction time — harmless when no
     * restore ever happens — so any freshly built world can absorb
     * a checkpoint.
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
     * in (tick, seq) order. Fatal if any pending event is unkeyed —
     * quiesce first. Panics when called from inside a dispatch.
     */
    void save(SnapshotWriter &w) const;

    /**
     * Rebuild counters and pending events from a checkpoint into
     * this queue, which must be freshly built (nothing scheduled,
     * nothing processed). Each saved event replays through its
     * registered KeyedFactory; a missing factory is fatal.
     */
    void restore(SnapshotReader &r);

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

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
        std::uint64_t seq;
        PoolEvent *ev;
    };

    /** True when @p a fires after @p b in the (tick, seq) total
     *  order: the heap's comparator, which keeps the earliest entry
     *  on top. A function object, so std::push_heap inlines it
     *  rather than calling through a function pointer. */
    static constexpr auto later = [](const Entry &a, const Entry &b) {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    };

    /** A pooled one-shot holding @p fn, ready to push. */
    template <typename F>
    PoolEvent *
    emplaceOneShot(F &&fn)
    {
        using Fn = std::decay_t<F>;
        PoolEvent *ev = pool_.acquire();
        ::new (static_cast<void *>(ev->store_)) Fn(std::forward<F>(fn));
        ev->invoke_ = [](void *p) { (*static_cast<Fn *>(p))(); };
        ev->destroy_ = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
        return ev;
    }

    /** Give @p ev its sequence number and queue it at @p when. */
    void push(PoolEvent *ev, Tick when);

    /** Fire a popped entry and reclaim its event — also on the
     *  throwing path. */
    void fire(const Entry &e);

    std::vector<Entry> heap_;
    EventPool pool_;
    /** True while fire() runs an event's callable. */
    bool dispatching_ = false;

    Tick cur_tick_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t num_processed_ = 0;
    std::size_t peak_live_ = 0;

    /** Keyed-event replayers, looked up by name during restore().
     *  A plain vector: registries hold a handful of entries and a
     *  linear scan keeps iteration order deterministic. */
    std::vector<std::pair<std::string, KeyedFactory>> factories_;

    /** @{ restore() replay state: while restoring_, push()
     *  force-assigns forced_seq_ and validates the tick against
     *  what the checkpoint recorded. */
    bool restoring_ = false;
    bool factory_scheduled_ = false;
    std::uint64_t forced_seq_ = 0;
    Tick expect_when_ = 0;
    /** @} */
};

} // namespace ehpsim

#endif // EHPSIM_SIM_EVENT_QUEUE_HH
