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
    // Pending events would otherwise leak their callables: once
    // scheduled, the queue is the only owner a one-shot has (e.g. a
    // fault or retry scheduled past the point the simulation stopped
    // caring). Pool storage is reclaimed by the pool's slabs, but the
    // inline callables still need their destructors run.
    for (const Entry &e : heap_)
        pool_.release(e.ev);
}

void
EventQueue::push(PoolEvent *ev, Tick when)
{
    if (when < cur_tick_)
        panic("scheduling event in the past: when=", when,
              " cur=", cur_tick_);
    std::uint64_t seq;
    if (restoring_) {
        // A keyed factory is replaying a checkpointed event: pin the
        // saved sequence number so the replay lands in the exact
        // total-order slot it held when saved, and validate that the
        // factory reproduced the original tick.
        if (factory_scheduled_)
            panic("keyed factory scheduled more than one event");
        if (when != expect_when_)
            panic("keyed factory replayed an event at tick ", when,
                  "; the checkpoint recorded tick ", expect_when_);
        factory_scheduled_ = true;
        seq = forced_seq_;
    } else {
        seq = next_seq_++;
    }
    heap_.push_back(Entry{when, seq, ev});
    std::push_heap(heap_.begin(), heap_.end(), later);
    peak_live_ = std::max(peak_live_, heap_.size());
}

void
EventQueue::fire(const Entry &e)
{
#ifdef EHPSIM_RACE
    // Attribute every access made by the callable to this dispatch.
    // RAII so the binding unwinds with the throwing fatal() path.
    race::EventDispatchScope race_scope(e.when, e.seq);
#endif
    ++num_processed_;
    // Ends the dispatch and reclaims the event on both exits of the
    // callable — a fatal() on an error path propagates through here.
    struct Dispatch
    {
        EventQueue &q;
        PoolEvent *ev;

        ~Dispatch()
        {
            q.dispatching_ = false;
            q.pool_.release(ev);
        }
    } dispatch{*this, e.ev};
    dispatching_ = true;
    e.ev->invoke_(e.ev->store_);
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const Entry e = heap_.front();
    // Sift the last entry down from the root, stopping where it
    // belongs. std::pop_heap sifts a hole to the bottom and back up
    // instead, which measured ~20% slower on perf_kernel's
    // schedule_churn.
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
        std::size_t i = 0;
        for (std::size_t child = 1; child < n; child = 2 * i + 1) {
            if (child + 1 < n && later(heap_[child], heap_[child + 1]))
                ++child;
            if (!later(last, heap_[child]))
                break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = last;
    }
    cur_tick_ = e.when;
    fire(e);
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
    return std::all_of(heap_.begin(), heap_.end(),
                       [](const Entry &e) { return e.ev->key_ != nullptr; });
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
    // (tick, seq) order so identical queue states always produce
    // identical bytes.
    std::vector<Entry> pending(heap_);
    std::sort(pending.begin(), pending.end(),
              [](const Entry &a, const Entry &b) { return later(b, a); });
    w.putU32(static_cast<std::uint32_t>(pending.size()));
    for (const Entry &e : pending) {
        if (!e.ev->key_)
            fatal("snapshot: pending event at tick ", e.when,
                  " is not checkpoint-aware; quiesce the simulation "
                  "to an op boundary before saving");
        w.putU64(e.when);
        w.putU64(e.seq);
        w.putString(e.ev->key_);
        w.putU64(e.ev->a0_);
        w.putU64(e.ev->a1_);
    }
}

void
EventQueue::restore(SnapshotReader &r)
{
    if (!heap_.empty() || num_processed_ != 0)
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
