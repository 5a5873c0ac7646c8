#include "mem/mem_device.hh"

#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace ehpsim
{
namespace mem
{

std::size_t
RunWindows::seek(std::uint64_t w)
{
    // Run i is the answer when runs_[i - 1].end <= w < runs_[i].end.
    const auto holds = [&](std::size_t i) {
        return (i == 0 || runs_[i - 1].end <= w) &&
               (i == live_ || w < runs_[i].end);
    };
    if (holds(finger_))
        return finger_;
    if (finger_ < live_ && holds(finger_ + 1))
        return ++finger_;
    const auto first = runs_.begin();
    finger_ = static_cast<std::size_t>(
        std::partition_point(first,
                             first + static_cast<std::ptrdiff_t>(live_),
                             [w](const Run &r) { return r.end <= w; }) -
        first);
    return finger_;
}

double
RunWindows::usedAt(std::uint64_t w)
{
    const std::size_t i = seek(w);
    return i < live_ && runs_[i].begin <= w ? runs_[i].used : 0.0;
}

WindowSpan
RunWindows::freeSpan(std::uint64_t w, double full)
{
    std::size_t i = seek(w);
    std::uint64_t cur = w;
    for (; i < live_ && runs_[i].begin <= cur; ++i) {
        if (runs_[i].used < full) {
            finger_ = i;
            return {cur, runs_[i].end, runs_[i].used};
        }
        cur = runs_[i].end;
    }
    finger_ = i;
    const std::uint64_t end = i < live_
                                  ? runs_[i].begin
                                  : std::numeric_limits<std::uint64_t>::max();
    return {cur, end, 0.0};
}

void
RunWindows::commit()
{
    if (runs_.size() == live_)
        return;
    const std::size_t last = runs_.size() - 1 - live_;
    // The rest of a run the charge ended inside, or a neighbour
    // starting where it ended, which may merge.
    keepOld(done_);
    if (next_ < live_ && runs_[next_].begin <= done_) {
        const Run r = runs_[next_++];
        push(std::max(r.begin, done_), r.end, r.used);
    }
    // Move the charge's runs from the back to just after the old ones
    // they replace, then drop those.
    const auto at = [&](std::size_t i) {
        return runs_.begin() + static_cast<std::ptrdiff_t>(i);
    };
    std::rotate(at(next_), at(live_), runs_.end());
    runs_.erase(at(splice_from_), at(next_));
    live_ = runs_.size();
    finger_ = splice_from_ + last;
}

void
RunWindows::retire(std::uint64_t w)
{
    horizon_ = std::max(horizon_, w);
    const auto dead = std::partition_point(
        runs_.begin(), runs_.end(),
        [&](const Run &r) { return r.end <= horizon_; });
    const auto n = static_cast<std::size_t>(dead - runs_.begin());
    runs_.erase(runs_.begin(), dead);
    live_ = runs_.size();
    finger_ = finger_ > n ? finger_ - n : 0;
    retire_at_ = std::max(2 * live_, kMinRetire);
}

void
OccupancyTracker::checkRate(double bytes_per_tick, Tick window,
                            const char *who)
{
    if (!std::isfinite(bytes_per_tick) || bytes_per_tick < 0.0)
        fatal(who, ": bad rate ", bytes_per_tick, " B/tick");
    // A budget within the fullness epsilon would leave no window free.
    if (bytes_per_tick > 0.0 &&
        !(bytes_per_tick * static_cast<double>(window) > 1e-6))
        fatal(who, ": rate ", bytes_per_tick,
              " B/tick leaves no window budget");
}

void
OccupancyTracker::retiredCharge(Tick when) const
{
    panic(who_, ": occupancy charge at tick ", when,
          " starts before window ", runs_.horizon(), " (tick ",
          runs_.horizon() * window_,
          "), which was retired: a transfer started before the "
          "now it was promised");
}

void
OccupancyTracker::snapshot(SnapshotWriter &w) const
{
    w.putF64(bytes_per_tick_);
    w.putU64(window_);
    w.putU64(last_done_);
    w.putBool(touched_);
    w.putU64(first_page_);
    // occupy(when) only ever scans forward from when/window_, and no
    // event scheduled at or after the save tick can pass when <
    // horizon, so windows that end at or before the horizon can
    // never be read again — drop them. A warmed link's history
    // otherwise dominates the checkpoint (the sweep fast-forward
    // blob shrank ~100x, DESIGN.md §16); post-restore behavior is
    // byte-identical either way since nothing downstream reads
    // retired windows.
    const std::uint64_t keep_from = w.horizon() / window_;
    std::uint64_t n = 0;
    forEachSpan([&](std::uint64_t b, std::uint64_t e, double) {
        if (e > keep_from)
            n += e - std::max(b, keep_from);
    });
    w.putU64(n);
    forEachSpan([&](std::uint64_t b, std::uint64_t e, double used) {
        for (std::uint64_t k = std::max(b, keep_from); k < e; ++k) {
            w.putU64(k);
            w.putF64(used);
        }
    });
}

void
OccupancyTracker::restore(SnapshotReader &r)
{
    dense_.clear();
    runs_.clear();
    bytes_per_tick_ = r.getF64();
    window_ = r.getU64();
    if (window_ < kMinWindow || window_ > kMaxWindow)
        fatal("occupancy snapshot: window of ", window_,
              " ticks outside [", kMinWindow, ", ", kMaxWindow, "]");
    checkRate(bytes_per_tick_, window_, "occupancy snapshot");
    const double budget = bytes_per_tick_ * static_cast<double>(window_);
    last_done_ = r.getU64();
    touched_ = r.getBool();
    first_page_ = r.getU64();
    // Every loaded window ends a transfer no later than last_done_.
    const std::uint64_t last_window = last_done_ / window_;
    const double full = budget - 1e-6;
    const std::uint64_t n = r.getU64();
    for (std::uint64_t i = 0, prev = 0; i < n; ++i) {
        const std::uint64_t win = r.getU64();
        const double used = r.getF64();
        if (i > 0 && win <= prev)
            fatal("occupancy snapshot: window ", win, " follows ", prev);
        if (win > last_window)
            fatal("occupancy snapshot: window ", win,
                  " lies past the last completion (window ",
                  last_window, ")");
        if (!touched_ || (win >> kWatermarkBits) < first_page_)
            fatal("occupancy snapshot: window ", win,
                  " precedes the first window touched");
        if (!std::isfinite(used) || !(used > 0.0))
            fatal("occupancy snapshot: window ", win, " carries ", used,
                  " bytes");
        prev = win;
        if (use_runs_)
            runs_.fill(win, win + 1, used, full);
        else
            dense_.fill(win, win + 1, used, full);
    }
    runs_.commit();
}

} // namespace mem
} // namespace ehpsim
