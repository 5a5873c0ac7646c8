#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/access_tracker.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace ehpsim
{

// ---------------------------------------------------------------------
// EventPool
// ---------------------------------------------------------------------

PoolEvent *
EventPool::acquire()
{
    if (!free_) {
        auto slab = std::make_unique<PoolEvent[]>(slabSize);
        for (std::size_t i = 0; i < slabSize; ++i) {
            slab[i].next_free_ = free_;
            free_ = &slab[i];
        }
        slabs_.push_back(std::move(slab));
    }
    PoolEvent *ev = free_;
    free_ = ev->next_free_;
    ev->next_free_ = nullptr;
    return ev;
}

void
EventPool::release(PoolEvent *ev)
{
    // Destroy the inline callable eagerly — captured resources
    // (shared_ptrs, buffers) must not outlive the firing.
    ev->destroy_(ev->store_);
    ev->invoke_ = nullptr;
    ev->destroy_ = nullptr;
    // Clear the checkpoint identity so a recycled slot reused by a
    // plain scheduleCallback() never masquerades as keyed.
    ev->key_ = nullptr;
    ev->a0_ = 0;
    ev->a1_ = 0;
    ev->next_free_ = free_;
    free_ = ev;
}

// ---------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------

EventQueue::~EventQueue()
{
    // Pending queue-owned events would otherwise leak: once
    // scheduled, the queue is the only owner a fire-and-forget
    // one-shot has (e.g. a fault or retry scheduled past the point
    // the simulation stopped caring). Pool storage is reclaimed by
    // the pool's slabs, but the inline callables still need their
    // destructors run.
    for (const Entry &e : heap_) {
        if (e.ev->pooled_)
            pool_.release(static_cast<PoolEvent *>(e.ev));
    }
}

std::size_t
EventQueue::siftUp(std::size_t i)
{
    Entry e = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!entryLess(e, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        heap_[i].ev->heap_index_ = i;
        i = parent;
    }
    heap_[i] = e;
    e.ev->heap_index_ = i;
    return i;
}

std::size_t
EventQueue::siftDown(std::size_t i)
{
    Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && entryLess(heap_[child + 1], heap_[child]))
            ++child;
        if (!entryLess(heap_[child], e))
            break;
        heap_[i] = heap_[child];
        heap_[i].ev->heap_index_ = i;
        i = child;
    }
    heap_[i] = e;
    e.ev->heap_index_ = i;
    return i;
}

void
EventQueue::pushEntry(Entry e)
{
    heap_.push_back(e);
    e.ev->heap_index_ = heap_.size() - 1;
    siftUp(heap_.size() - 1);
}

EventQueue::Entry
EventQueue::popTop()
{
    Entry top = heap_.front();
    top.ev->heap_index_ = Event::notQueued;
    const std::size_t last = heap_.size() - 1;
    if (last > 0) {
        heap_[0] = heap_[last];
        heap_[0].ev->heap_index_ = 0;
        heap_.pop_back();
        siftDown(0);
    } else {
        heap_.pop_back();
    }
    return top;
}

void
EventQueue::removeAt(std::size_t i)
{
    const std::size_t last = heap_.size() - 1;
    if (i != last) {
        heap_[i] = heap_[last];
        heap_[i].ev->heap_index_ = i;
        heap_.pop_back();
        // The replacement may need to move either way.
        if (siftUp(i) == i)
            siftDown(i);
    } else {
        heap_.pop_back();
    }
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    if (ev->scheduled_)
        panic("event scheduled twice; use reschedule()");
    if (when < cur_tick_)
        panic("scheduling event in the past: when=", when,
              " cur=", cur_tick_);
    ev->scheduled_ = true;
    ev->when_ = when;
    if (restoring_) {
        // A keyed factory is replaying a checkpointed event: pin the
        // saved sequence number so the replay lands in the exact
        // total-order slot it held when saved, and validate that the
        // factory reproduced the original (tick, priority).
        if (factory_scheduled_)
            panic("keyed factory scheduled more than one event");
        if (when != expect_when_ || ev->priority_ != expect_prio_)
            panic("keyed factory replayed an event at tick ", when,
                  " priority ", ev->priority_,
                  "; the checkpoint recorded tick ", expect_when_,
                  " priority ", expect_prio_);
        factory_scheduled_ = true;
        ev->seq_ = forced_seq_;
    } else {
        ev->seq_ = next_seq_++;
    }
    pushEntry(Entry{when, ev->priority_, ev->seq_, ev});
    if (++live_count_ > peak_live_)
        peak_live_ = live_count_;
}

void
EventQueue::scheduleLambda(Tick when, std::function<void()> fn,
                           int priority)
{
    scheduleCallback(when, std::move(fn), priority);
}

void
EventQueue::killEntry(Event *ev)
{
    // True removal: the entry leaves the heap right now, while @p ev
    // is still live, so the owner may free the event the moment this
    // returns.
    removeAt(ev->heap_index_);
    ev->heap_index_ = Event::notQueued;
    ev->scheduled_ = false;
    --live_count_;
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->scheduled_)
        panic("descheduling an event that is not scheduled");
    if (ev->pooled_) {
        panic("descheduling a queue-owned one-shot would leak it: the "
              "queue only reclaims events it fires");
    }
    killEntry(ev);
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled_)
        killEntry(ev);
    schedule(ev, when);
}

void
EventQueue::fire(Event *ev)
{
#ifdef EHPSIM_RACE
    // Attribute every access made by process() to this dispatch.
    // RAII so the binding unwinds with the throwing fatal() path.
    race::EventDispatchScope race_scope(cur_tick_, ev->priority_,
                                        ev->seq_);
#endif
    ev->scheduled_ = false;
    --live_count_;
    ++num_processed_;
    // Ends the dispatch on both exits of process() — a fatal() on an
    // error path propagates through here. A pooled one-shot is always
    // reclaimed: no caller holds it, so none can have rescheduled it.
    // A caller-owned event is not touched once process() starts (it
    // may free itself).
    PoolEvent *const oneshot =
        ev->pooled_ ? static_cast<PoolEvent *>(ev) : nullptr;
    struct Dispatch
    {
        EventQueue &q;
        PoolEvent *oneshot;

        ~Dispatch()
        {
            q.dispatching_ = false;
            if (oneshot)
                q.pool_.release(oneshot);
        }
    } dispatch{*this, oneshot};
    dispatching_ = true;
    ev->process();
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const Entry entry = popTop();
    cur_tick_ = entry.when;
    fire(entry.ev);
    return true;
}

void
EventQueue::registerKeyedFactory(const char *key, KeyedFactory fn)
{
    // Latest registrant owns the key: tests (and tooling) may build
    // several short-lived components against one queue, and only the
    // component alive at restore time can replay its events.
    for (auto &[name, factory] : factories_) {
        if (name == key) {
            factory = std::move(fn);
            return;
        }
    }
    factories_.emplace_back(key, std::move(fn));
}

bool
EventQueue::allPendingKeyed() const
{
    for (const Entry &e : heap_) {
        if (!e.ev->pooled_ ||
            !static_cast<const PoolEvent *>(e.ev)->key_)
            return false;
    }
    return true;
}

void
EventQueue::save(SnapshotWriter &w) const
{
    if (dispatching_)
        panic("EventQueue::save from inside a dispatch");
    w.section("eventq");
    w.putU64(cur_tick_);
    w.putU64(next_seq_);
    w.putU64(num_processed_);
    w.putU64(peak_live_);
    // The heap is only partially ordered; serialize in the total
    // (tick, priority, seq) order so identical queue states always
    // produce identical bytes.
    std::vector<Entry> pending(heap_);
    std::sort(pending.begin(), pending.end(), entryLess);
    w.putU32(static_cast<std::uint32_t>(pending.size()));
    for (const Entry &e : pending) {
        const auto *pe = e.ev->pooled_
                             ? static_cast<const PoolEvent *>(e.ev)
                             : nullptr;
        if (!pe || !pe->key_)
            fatal("snapshot: pending event at tick ", e.when,
                  " (priority ", e.priority,
                  ") is not checkpoint-aware; quiesce the simulation "
                  "to an op boundary before saving");
        w.putU64(e.when);
        w.putI64(e.priority);
        w.putU64(e.seq);
        w.putString(pe->key_);
        w.putU64(pe->a0_);
        w.putU64(pe->a1_);
    }
}

void
EventQueue::restore(SnapshotReader &r)
{
    if (live_count_ != 0 || num_processed_ != 0)
        panic("EventQueue::restore needs a freshly built queue");
    r.section("eventq");
    cur_tick_ = r.getU64();
    const std::uint64_t saved_seq = r.getU64();
    const std::uint64_t saved_processed = r.getU64();
    const std::uint64_t saved_peak = r.getU64();
    const auto npending = r.getU32();
    restoring_ = true;
    for (std::uint32_t i = 0; i < npending; ++i) {
        const Tick when = r.getU64();
        const auto priority = static_cast<int>(r.getI64());
        const std::uint64_t seq = r.getU64();
        const std::string key = r.getString();
        const std::uint64_t a0 = r.getU64();
        const std::uint64_t a1 = r.getU64();
        const KeyedFactory *factory = nullptr;
        for (const auto &[name, f] : factories_) {
            if (name == key) {
                factory = &f;
                break;
            }
        }
        if (!factory) {
            restoring_ = false;
            fatal("snapshot: no keyed-event factory registered for '",
                  key, "' — the restored world must construct the "
                  "same components as the saved one");
        }
        expect_when_ = when;
        expect_prio_ = priority;
        forced_seq_ = seq;
        factory_scheduled_ = false;
        (*factory)(when, a0, a1);
        if (!factory_scheduled_)
            panic("keyed factory '", key, "' scheduled no event");
    }
    restoring_ = false;
    next_seq_ = saved_seq;
    num_processed_ = saved_processed;
    // The saved peak covers the whole warmup; replaying only the
    // still-pending subset can never exceed it.
    peak_live_ = saved_peak;
}

Tick
EventQueue::run(Tick limit)
{
    while (!heap_.empty()) {
        if (heap_.front().when > limit) {
            cur_tick_ = limit;
            break;
        }
        step();
    }
    return cur_tick_;
}

} // namespace ehpsim
