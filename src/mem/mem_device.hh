/**
 * @file
 * The common timing interface for memory-hierarchy components.
 *
 * ehpsim's memory system uses an atomic-with-occupancy timing model
 * (comparable to gem5's atomic mode plus bandwidth contention): an
 * access is a synchronous call that returns its completion tick, and
 * each device tracks per-resource next-free times so that back-to-back
 * traffic serializes at the device's bandwidth.
 */

#ifndef EHPSIM_MEM_MEM_DEVICE_HH
#define EHPSIM_MEM_MEM_DEVICE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/sim_object.hh"
#include "sim/snapshot.hh"
#include "sim/types.hh"

namespace ehpsim
{
namespace mem
{

/** Outcome of a timed access. */
struct AccessResult
{
    Tick complete = 0;          ///< when the data is available
    bool hit = true;            ///< serviced without the next level
    std::uint64_t bytes_below = 0; ///< bytes moved to/from next level
};

class MemDevice : public SimObject
{
  public:
    using SimObject::SimObject;

    /**
     * Perform a timed access.
     * @param when Earliest tick the request can start.
     * @param addr Physical byte address.
     * @param bytes Request size.
     * @param write True for stores/writebacks.
     */
    virtual AccessResult access(Tick when, Addr addr,
                                std::uint64_t bytes, bool write) = 0;
};

/**
 * Consecutive windows [begin, end) that all carry @c used bytes:
 * the unit an occupancy store hands the shared window arithmetic.
 */
struct WindowSpan
{
    std::uint64_t begin;
    std::uint64_t end;
    double used;
};

/**
 * Take the per-window step `remaining -= avail; ++k` while k < end
 * and remaining > avail, with the bit-exact result of that loop, and
 * return the k it stops at. Costs O(binades of @p remaining), not
 * O(end - k); a one-window span takes the literal step.
 *
 * While r = remaining stays in its binade [lo, 2 lo), the doubles
 * there are the multiples of u = ulp(r), so a step with r - avail >=
 * lo gives fl(r - avail) = r - c, where c is avail rounded to a
 * multiple of u: m such steps are one integer division in units of
 * u, and r - m c is exact. A tie (avail an odd multiple of u / 2)
 * rounds to the even neighbour, which subtracts a constant only once
 * r / u is even. If avail is itself a multiple of u (read off the two
 * exponents and avail's lowest set bit), every step is exact in this
 * binade and all smaller ones, so one floating division r / avail
 * counts them all. The step that may leave the binade, and a tie from
 * odd r / u, are taken literally.
 * Requires avail > 1e-290, so that ulp(remaining) is a normal double;
 * a tracker's spans offer more than its 1e-6 fullness epsilon.
 */
inline std::uint64_t
consumeSpan(double &remaining, double avail, std::uint64_t k,
            std::uint64_t end)
{
    // The steps from r (> a > 0) that need no literal step, at most
    // n, applied to r.
    const auto bulk = [](double &r, double a, std::uint64_t n)
        -> std::uint64_t {
        const auto rbits = std::bit_cast<std::uint64_t>(r);
        const auto abits = std::bit_cast<std::uint64_t>(a);
        // a is a multiple of u when its lowest set bit is no lower.
        if ((abits >> 52) + static_cast<std::uint64_t>(std::countr_zero(
                                abits | 1ull << 52)) >=
            rbits >> 52) {
            // r / a is a ratio of integers below 2^53 (in units of
            // u), so its rounded quotient truncates to the exact
            // floor; the steps stop at r <= a.
            auto m = static_cast<std::uint64_t>(r / a);
            if (static_cast<double>(m) * a == r)
                --m;
            m = std::min(n, m);
            r -= static_cast<double>(m) * a;
            return m;
        }
        const double lo = std::bit_cast<double>(
            rbits & 0x7ff0'0000'0000'0000ull);
        const double u = lo * 0x1p-52;
        const double q = a / u;     // exact; q < r / u < 2^53
        const double t = std::floor(q);
        // r - a >= lo, in units of u: R >= ceil(q) = t + 1.
        const auto R = static_cast<std::uint64_t>((r - lo) / u);
        const auto floor_q = static_cast<std::uint64_t>(t);
        if (floor_q + 1 > R)
            return 0;
        const double frac = q - t;
        if (frac == 0.5 && (R & 1))
            return 0;
        const std::uint64_t c =
            frac < 0.5 || (frac == 0.5 && !(floor_q & 1)) ? floor_q
                                                          : floor_q + 1;
        if (c == 0)
            return n;
        const std::uint64_t m = std::min(n, (R - floor_q - 1) / c + 1);
        r = lo + static_cast<double>(R - m * c) * u;
        return m;
    };
    while (k < end && remaining > avail) {
        if (end - k > 1) {
            k += bulk(remaining, avail, end - k);
            if (k == end || !(remaining > avail))
                break;
        }
        remaining -= avail;
        ++k;
    }
    return k;
}

/**
 * Window loads in dense fixed-size pages indexed from the first
 * window touched. Every window is its own span, so a request that
 * lands behind the newest window costs two array accesses and no
 * search: the store for ports that see many single-window requests
 * out of order (caches, DRAM, the links inside a package).
 * Untouched gaps cost one null page pointer; teardown frees whole
 * pages.
 */
class DenseWindows
{
  public:
    double
    usedAt(std::uint64_t w) const
    {
        const Page *p = peekPage(w);
        return p ? p->used[w & kPageMask] : 0.0;
    }

    /** The first window at or after @p w loaded below @p full. */
    WindowSpan
    freeSpan(std::uint64_t w, double full)
    {
        const std::uint64_t f = findFree(w, full);
        return {f, f + 1, usedAt(f)};
    }

    /** Load windows [a, b) with @p v, marking full ones in the
     *  skip chain. */
    void
    fill(std::uint64_t a, std::uint64_t b, double v, double full)
    {
        for (std::uint64_t k = a; k < b; ++k) {
            Page &p = pageFor(k);
            p.used[k & kPageMask] = v;
            if (v >= full)
                p.skip[k & kPageMask] = k + 1;
        }
    }

    /** fill() has written the loads already. */
    void commit() {}

    /** Windows held in host memory: every window of each page. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &p : pages_)
            n += p ? kPageWindows : 0;
        return n;
    }

    /** f(begin, end, used) for each loaded window, in order. */
    template <class F>
    void
    forEachSpan(F &&f) const
    {
        for (std::size_t p = 0; p < pages_.size(); ++p) {
            if (!pages_[p])
                continue;
            const std::uint64_t first = (base_page_ + p) << kPageBits;
            for (std::uint64_t k = 0; k < kPageWindows; ++k) {
                const double u = pages_[p]->used[k];
                if (u > 0.0)
                    f(first + k, first + k + 1, u);
            }
        }
    }

    /** Skip chains hold only for the budget they were built under;
     *  findFree() rebuilds them from the loads alone. */
    void
    dropChains()
    {
        for (auto &p : pages_) {
            if (p)
                p->skip.fill(0);
        }
    }

    void
    clear()
    {
        pages_.clear();
        base_page_ = 0;
    }

    /** log2 of the windows per page; pages are the allocation
     *  grain. Small, because a dense port loads few windows near
     *  the ones it touches: on apu_coupled 70% of a 16-window page,
     *  21% of a 512-window one (DESIGN.md §12). */
    static constexpr std::uint64_t kPageBits = 4;

  private:
    static constexpr std::uint64_t kPageWindows = 1ull << kPageBits;
    static constexpr std::uint64_t kPageMask = kPageWindows - 1;

    /**
     * One page of window state. @c skip holds the path-compressed
     * chain over full windows: 0 means "no entry" (stored targets
     * are always > their window index, so 0 is never a live value).
     */
    struct Page
    {
        std::array<double, kPageWindows> used{};
        std::array<std::uint64_t, kPageWindows> skip{};
    };

    /** The page holding window @p w, allocating it (and any page
     *  table growth, including in front of the first touch) on
     *  demand. The front grows by at least the table's length (down
     *  to page 0), so a step back costs amortized O(1). */
    Page &
    pageFor(std::uint64_t w)
    {
        const std::uint64_t p = w >> kPageBits;
        if (pages_.empty())
            base_page_ = p;
        if (p < base_page_) {
            const std::uint64_t add = std::min<std::uint64_t>(
                base_page_,
                std::max<std::uint64_t>(base_page_ - p, pages_.size()));
            std::vector<std::unique_ptr<Page>> grown(pages_.size() +
                                                     add);
            std::move(pages_.begin(), pages_.end(),
                      grown.begin() + add);
            pages_ = std::move(grown);
            base_page_ -= add;
        }
        const std::uint64_t idx = p - base_page_;
        if (idx >= pages_.size())
            pages_.resize(idx + 1);
        if (!pages_[idx])
            pages_[idx] = std::make_unique<Page>();
        return *pages_[idx];
    }

    /** The page holding window @p w, or nullptr if never touched. */
    const Page *
    peekPage(std::uint64_t w) const
    {
        const std::uint64_t p = w >> kPageBits;
        if (p < base_page_ || p - base_page_ >= pages_.size())
            return nullptr;
        return pages_[p - base_page_].get();
    }

    std::uint64_t
    skipAt(std::uint64_t w) const
    {
        const Page *p = peekPage(w);
        return p ? p->skip[w & kPageMask] : 0;
    }

    /**
     * First window at or after @p w loaded below @p full, following
     * the path-compressed skip chain over full windows.
     */
    std::uint64_t
    findFree(std::uint64_t w, double full)
    {
        // Walk the chain.
        std::uint64_t cur = w;
        for (;;) {
            const std::uint64_t s = skipAt(cur);
            std::uint64_t next = s == 0 ? cur : s;
            if (next == cur) {
                if (usedAt(cur) < full)
                    break;
                next = cur + 1;
            }
            cur = next;
        }
        // Path-compress: point every visited window at the answer.
        // Every compressed window was full, so its page exists.
        std::uint64_t walk = w;
        while (walk < cur) {
            const std::uint64_t s = skipAt(walk);
            const std::uint64_t next = s == 0 ? walk + 1 : s;
            pageFor(walk).skip[walk & kPageMask] = cur;
            walk = next;
        }
        return cur;
    }

    /** Page table; index 0 is @c base_page_, at or before the first
     *  page touched. */
    std::vector<std::unique_ptr<Page>> pages_;
    std::uint64_t base_page_ = 0;
};

/**
 * Window loads as sorted, non-overlapping runs of windows with equal
 * load (unloaded windows are gaps), found through a finger on the
 * last run touched. A chunk crossing a thousand idle windows is one
 * run, charged by consumeSpan() in O(binades of the bytes left)
 * rather than per window, and a charge's loads are written in one
 * splice, so bulk traffic costs O(runs touched): the store for the
 * node fabric, where every request spans many windows. A lookup away
 * from the finger is a binary search; a charge at or past the last
 * loaded window needs none, as append() writes its runs at the back
 * (OccupancyTracker::occupyTail()). Runs that end before the
 * owner's now are dropped (retire()), so memory is bounded by the
 * reservations ahead of now, not by the requests made.
 */
class RunWindows
{
  public:
    double usedAt(std::uint64_t w);

    /** The first window at or after @p w loaded below @p full, and
     *  the extent of its equal-load run or gap. */
    WindowSpan freeSpan(std::uint64_t w, double full);

    /** Load windows [a, b) with @p v, after every window loaded
     *  since the last commit(). The charge's runs build up behind
     *  the old ones, which reads see alone until commit(). */
    void
    fill(std::uint64_t a, std::uint64_t b, double v, double)
    {
        if (runs_.size() == live_) {
            // Start at the run holding a, or at a neighbour ending at
            // a, which may merge.
            splice_from_ = seek(a);
            if (splice_from_ > 0 && runs_[splice_from_ - 1].end == a)
                --splice_from_;
            next_ = splice_from_;
            done_ = next_ < live_ ? std::min(runs_[next_].begin, a) : a;
        }
        keepOld(a);
        push(a, b, v);
        done_ = b;
    }

    /** Write the charge's runs over the runs they replace, in one
     *  splice. */
    void commit();

    /** One past the last loaded window; 0 when no window is. */
    std::uint64_t
    end() const
    {
        return live_ > 0 ? runs_[live_ - 1].end : 0;
    }

    /** The load of window @p w, at or past end() - 1. */
    double
    lastUsedAt(std::uint64_t w) const
    {
        return w + 1 == end() ? runs_[live_ - 1].used : 0.0;
    }

    /**
     * Load the @p n spans @p s, each ending where the next begins and
     * loaded unlike it, the first at or past end() - 1: the runs
     * fill() then commit() would leave, with no seek and no splice.
     * Window s[0].begin leaves the last run if it was in it, and
     * s[0] merges into an equal run ending where it begins.
     */
    void
    append(const WindowSpan *s, std::size_t n)
    {
        const std::uint64_t a = s[0].begin;
        if (a + 1 == end()) {
            if (runs_.back().begin == a) {
                runs_.pop_back();
                --live_;
            } else {
                runs_.back().end = a;
            }
        }
        std::size_t i = 0;
        if (live_ > 0 && runs_.back().end == a &&
            runs_.back().used == s[0].used) {
            runs_.back().end = s[0].end;
            i = 1;
        }
        for (; i < n; ++i)
            runs_.push_back({s[i].begin, s[i].end, s[i].used});
        live_ = runs_.size();
        finger_ = live_ - 1;
    }

    /** True once the run vector has doubled since the last
     *  retire(), so that dropping runs costs amortized O(1) each. */
    bool retireDue() const { return live_ >= retire_at_; }

    /** Drop the runs that end at or before window @p w: no later
     *  charge may start before it. */
    void retire(std::uint64_t w);

    /** Windows below this one may have been dropped. */
    std::uint64_t horizon() const { return horizon_; }

    /** Runs held in host memory. */
    std::size_t size() const { return live_; }

    /** f(begin, end, used) for each run, in order. */
    template <class F>
    void
    forEachSpan(F &&f) const
    {
        for (std::size_t i = 0; i < live_; ++i)
            f(runs_[i].begin, runs_[i].end, runs_[i].used);
    }

    void
    clear()
    {
        runs_.clear();
        live_ = 0;
        finger_ = 0;
        horizon_ = 0;
        retire_at_ = kMinRetire;
    }

  private:
    struct Run
    {
        std::uint64_t begin;
        std::uint64_t end;
        double used;
    };

    /** Runs held before the first retire(). */
    static constexpr std::size_t kMinRetire = 16;

    /** Index of the first run ending after @p w (live_ when none
     *  does); moves the finger there. */
    std::size_t seek(std::uint64_t w);

    /** Append the old loads on [done_, @p e) to the charge. */
    void
    keepOld(std::uint64_t e)
    {
        for (; next_ < live_ && runs_[next_].begin < e; ++next_) {
            const Run r = runs_[next_];     // push() may reallocate
            push(std::max(r.begin, done_), std::min(r.end, e), r.used);
            if (r.end > e)
                break;
        }
    }

    /** Append [b, e) loaded @p u to the charge, merging it into an
     *  equal run it touches. */
    void
    push(std::uint64_t b, std::uint64_t e, double u)
    {
        if (b >= e)
            return;
        if (runs_.size() > live_ && runs_.back().end == b &&
            runs_.back().used == u)
            runs_.back().end = e;
        else
            runs_.push_back({b, e, u});
    }

    /** The runs, then, from live_ on, the open charge's runs:
     *  commit() puts those in place of runs [splice_from_, next_). */
    std::vector<Run> runs_;
    std::size_t live_ = 0;
    /** Index of the last run touched; at most live_. */
    std::size_t finger_ = 0;
    std::size_t splice_from_ = 0;
    /** The first old run the charge does not yet cover. */
    std::size_t next_ = 0;
    /** The charge covers the windows before this one. */
    std::uint64_t done_ = 0;
    std::uint64_t horizon_ = 0;
    /** live_ at which retireDue() turns true. */
    std::size_t retire_at_ = kMinRetire;
};

/**
 * A bandwidth-limited resource with backfill.
 *
 * Time is divided into fixed windows, each with a byte budget of
 * bandwidth x window. A transfer starting at @p when consumes budget
 * from its window onward and completes when its last byte fits.
 * Unlike a strict next-free FIFO, a transfer arriving *earlier* than
 * previously-reserved traffic can use leftover budget in earlier
 * windows (backfill), so out-of-order completions upstream do not
 * artificially serialize independent requests — they only contend
 * for bandwidth.
 *
 * Window loads live in one of two stores, chosen by the owner
 * (DESIGN.md §12): DenseWindows for ports hit by single-window
 * requests out of order, RunWindows for node-fabric links, where a
 * 1 MiB chunk crosses ~1k windows per hop. The arithmetic — window
 * sizing, budgets, the 1e-6 fullness epsilon, completion rounding
 * and the snapshot format — is this class's alone, so both stores
 * give byte-identical completion ticks, windowLoads() and blobs.
 * A run store given the owner's now forgets the windows before it;
 * a dense store keeps every window it loads.
 */
class OccupancyTracker
{
  public:
    /** Where window loads are kept. */
    enum class Store
    {
        dense,
        runs,
    };

    /** Window clamp range, in ticks. */
    static constexpr Tick kMinWindow = 1000;
    static constexpr Tick kMaxWindow = 1'000'000;

    /** @param bytes_per_tick Bandwidth (may be fractional); fatal
     *  on a rate setBandwidth() rejects.
     *  @param who Owner named by the retired-window panic; must
     *  outlive the tracker. */
    explicit OccupancyTracker(double bytes_per_tick = 0.0,
                              Store store = Store::dense,
                              const char *who = "occupancy")
        : use_runs_(store == Store::runs), who_(who)
    {
        setBandwidth(bytes_per_tick);
    }

    /**
     * Change the rate. Once a window holds load the window grid
     * stays: stored window indices keep their meaning, and only each
     * window's budget (rate x window) changes, so a derate slows the
     * link from now on without stretching its past. Fatal on a rate
     * restore() would reject: NaN, infinite, negative, or positive
     * with no window budget above the fullness epsilon.
     */
    void
    setBandwidth(double bytes_per_tick)
    {
        const Tick window = touched_ ? window_ : windowFor(bytes_per_tick);
        checkRate(bytes_per_tick, window, "occupancy");
        window_ = window;
        bytes_per_tick_ = bytes_per_tick;
        dense_.dropChains();
    }

    double bandwidth() const { return bytes_per_tick_; }

    /**
     * Consume @p bytes of budget starting no earlier than @p when.
     * @param now The caller's promise that no charge, this one or a
     *        later one, starts before it (the event queue's
     *        curTick()); a run store drops the windows that end at or
     *        before now's window. 0 promises nothing. A charge that
     *        starts in a dropped window panics.
     * A run-store charge whose first window is at or past the last
     * loaded one (99.6% of serving_tp8's node-link charges) skips the
     * window walk for occupyTail(), with bit-identical results.
     * @return the tick at which the transfer finishes.
     */
    Tick
    occupy(Tick when, std::uint64_t bytes, Tick now = 0)
    {
        if (!use_runs_)
            return occupyIn(dense_, when, bytes);
        if (runs_.retireDue())
            runs_.retire(now / window_);
        if (when < runs_.horizon() * window_)
            retiredCharge(when);
        if (when / window_ + 1 >= runs_.end())
            return occupyTail(when, bytes);
        return occupyIn(runs_, when, bytes);
    }

    /** Window spans held in host memory: runs in a run store, every
     *  window of each page in a dense one. A host-side diagnostic,
     *  like CacheArray::residentLines(); it never enters stats. */
    std::size_t
    residentSpans() const
    {
        return use_runs_ ? runs_.size() : dense_.size();
    }

    /** Latest completion handed out (diagnostic only). */
    Tick nextFree() const { return last_done_; }

    /**
     * (window start tick, bytes consumed) pairs in ascending window
     * order, skipping windows no transfer ever consumed from — the
     * deterministic way to inspect the tracker.
     */
    std::vector<std::pair<Tick, double>>
    windowLoads() const
    {
        std::vector<std::pair<Tick, double>> out;
        forEachSpan([&](std::uint64_t b, std::uint64_t e, double u) {
            for (std::uint64_t k = b; k < e; ++k)
                out.emplace_back(k * window_, u);
        });
        return out;
    }

    void
    reset()
    {
        dense_.clear();
        runs_.clear();
        first_page_ = 0;
        touched_ = false;
        last_done_ = 0;
    }

    /**
     * @{ Checkpoint the window loads (DESIGN.md §16), runs expanded
     * to one (window, used) pair each, so the blob does not depend on
     * the store. Skip chains are a pure accelerator and are not
     * saved. window_ is saved explicitly (not recomputed) because a
     * derated link keeps the grid its first rate set. restore()
     * fatals on a blob no tracker could have written.
     */
    void snapshot(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);
    /** @} */

  private:
    /** log2 of the windows per unit of the blob's first-touch
     *  watermark: 512-window units, whatever the dense page size, so
     *  blobs do not depend on it. */
    static constexpr std::uint64_t kWatermarkBits = 9;

    /** Panic on a charge at @p when, before the retired horizon. */
    [[noreturn]] void retiredCharge(Tick when) const;

    /** Fatal, naming @p who, on a rate no tracker may hold on a
     *  grid of @p window ticks. */
    static void checkRate(double bytes_per_tick, Tick window,
                          const char *who);

    static Tick
    windowFor(double bytes_per_tick)
    {
        if (!(bytes_per_tick > 0.0))
            return kMinWindow;
        // Window sized to carry ~1 KiB, clamped to [1 ns, 1 us].
        return static_cast<Tick>(
            std::clamp(1024.0 / bytes_per_tick,
                       static_cast<double>(kMinWindow),
                       static_cast<double>(kMaxWindow)));
    }

    template <class S>
    Tick
    occupyIn(S &s, Tick when, std::uint64_t bytes)
    {
        if (bytes_per_tick_ <= 0.0 || bytes == 0)
            return when;
        const double budget =
            bytes_per_tick_ * static_cast<double>(window_);
        const double full = budget - 1e-6;
        const auto put = [&](std::uint64_t a, std::uint64_t b,
                             double v) {
            if (!touched_ || (a >> kWatermarkBits) < first_page_) {
                first_page_ = a >> kWatermarkBits;
                touched_ = true;
            }
            s.fill(a, b, v, full);
        };
        const auto finish = [&](Tick done) {
            s.commit();
            last_done_ = std::max(last_done_, done);
            return done;
        };
        std::uint64_t w = when / window_;
        double remaining = static_cast<double>(bytes);

        // The first window only offers the budget left after 'when'.
        const double u = s.usedAt(w);
        const double avail = std::min(
            static_cast<double>((w + 1) * window_ - when) *
                bytes_per_tick_,
            budget - u);
        if (avail > 0) {
            const double take = std::min(avail, remaining);
            put(w, w + 1, u + take);
            remaining -= take;
        }
        if (remaining <= 0) {
            return finish(when + static_cast<Tick>(
                                     static_cast<double>(bytes) /
                                     bytes_per_tick_ + 0.5));
        }
        // Every window of a span offers the same budget - used, so
        // consumeSpan() gives the bit-exact result of a window-by-
        // window walk (take = min(avail, remaining); remaining -=
        // take) in O(binades), queued as at most two fills.
        for (w = w + 1;;) {
            const WindowSpan sp = s.freeSpan(w, full);
            const double span_avail = budget - sp.used;
            const std::uint64_t k =
                consumeSpan(remaining, span_avail, sp.begin, sp.end);
            if (k > sp.begin)
                put(sp.begin, k, sp.used + span_avail);
            if (k < sp.end) {
                const double last = sp.used + remaining;
                put(k, k + 1, last);
                return finish(k * window_ +
                              static_cast<Tick>(last / bytes_per_tick_));
            }
            w = sp.end;
        }
    }

    /**
     * occupyIn(runs_, ...) for a charge whose first window is at or
     * past the last loaded one: every later window is free, so the
     * walk is the first window, one consumeSpan() over an idle tail
     * at the full budget, and the last window, appended as at most
     * three runs. The same arithmetic in the same order gives the
     * same completion, loads and watermark bit for bit.
     */
    Tick
    occupyTail(Tick when, std::uint64_t bytes)
    {
        if (bytes_per_tick_ <= 0.0 || bytes == 0)
            return when;
        const double budget =
            bytes_per_tick_ * static_cast<double>(window_);
        const std::uint64_t w = when / window_;
        double remaining = static_cast<double>(bytes);
        const double u = runs_.lastUsedAt(w);
        const double avail = std::min(
            static_cast<double>((w + 1) * window_ - when) *
                bytes_per_tick_,
            budget - u);
        // Loads go in ascending windows, so the first one sets the
        // watermark.
        const std::uint64_t first = avail > 0 ? w : w + 1;
        if (!touched_ || (first >> kWatermarkBits) < first_page_) {
            first_page_ = first >> kWatermarkBits;
            touched_ = true;
        }
        // The charge's spans, merged among themselves first, so that
        // the store is written once.
        WindowSpan out[3];
        std::size_t n = 0;
        const auto put = [&](std::uint64_t a, std::uint64_t b, double v) {
            if (n > 0 && out[n - 1].used == v)
                out[n - 1].end = b;
            else
                out[n++] = {a, b, v};
        };
        Tick done;
        if (avail > 0) {
            const double take = std::min(avail, remaining);
            put(w, w + 1, u + take);
            remaining -= take;
        }
        if (remaining <= 0) {
            done = when + static_cast<Tick>(static_cast<double>(bytes) /
                                                bytes_per_tick_ +
                                            0.5);
        } else {
            const std::uint64_t k =
                consumeSpan(remaining, budget, w + 1,
                            std::numeric_limits<std::uint64_t>::max());
            if (k > w + 1)
                put(w + 1, k, budget);
            put(k, k + 1, remaining);
            done = k * window_ +
                   static_cast<Tick>(remaining / bytes_per_tick_);
        }
        runs_.append(out, n);
        last_done_ = std::max(last_done_, done);
        return done;
    }

    template <class F>
    void
    forEachSpan(F &&f) const
    {
        if (use_runs_)
            runs_.forEachSpan(f);
        else
            dense_.forEachSpan(f);
    }

    double bytes_per_tick_ = 0.0;
    Tick window_ = kMinWindow;
    bool use_runs_;
    const char *who_;
    DenseWindows dense_;
    RunWindows runs_;
    /** The lowest window ever loaded, in 2^kWatermarkBits-window
     *  units, whichever store is in use; kept for the blob format. */
    std::uint64_t first_page_ = 0;
    bool touched_ = false;
    Tick last_done_ = 0;
};

} // namespace mem
} // namespace ehpsim

#endif // EHPSIM_MEM_MEM_DEVICE_HH
