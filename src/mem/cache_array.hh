/**
 * @file
 * A generic set-associative tag array with LRU replacement.
 *
 * CacheArray is purely structural (tags + per-line metadata); timing
 * and statistics live in the wrapping cache models. It underpins the
 * GPU L1/L2, CPU L1/L2/L3, and the memory-side Infinity Cache.
 *
 * Tag storage grows on demand (DESIGN.md §2): an MI300A's caches
 * would hold ~100 MB of tag lines, most of which a run never
 * touches.
 */

#ifndef EHPSIM_MEM_CACHE_ARRAY_HH
#define EHPSIM_MEM_CACHE_ARRAY_HH

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/types.hh"

namespace ehpsim
{

class SnapshotWriter;
class SnapshotReader;

namespace mem
{

/** Per-line metadata: the tag, then one word holding the LRU
 *  timestamp and the three flags. */
struct CacheLine
{
    /** log2 of the LRU clock's range; CacheArray never lets its
     *  clock reach 2^kClockBits. */
    static constexpr unsigned kClockBits = 61;

    Addr tag = 0;
    std::uint64_t last_use : kClockBits = 0;    ///< LRU timestamp
    bool valid : 1 = false;
    bool dirty : 1 = false;
    bool prefetched : 1 = false;    ///< filled by a prefetcher
};

// A probe walks a set's lines to compare tags: four lines to a host
// cache line, so a 16-way set spans 256 B.
static_assert(sizeof(CacheLine) == 16, "CacheLine must pack to 16 B");

class CacheArray
{
  public:
    /**
     * @param size_bytes Total capacity.
     * @param assoc Ways per set.
     * @param line_bytes Cache line size.
     */
    CacheArray(std::uint64_t size_bytes, unsigned assoc,
               unsigned line_bytes);

    std::uint64_t sizeBytes() const { return size_bytes_; }

    unsigned assoc() const { return assoc_; }

    unsigned lineBytes() const { return line_bytes_; }

    unsigned numSets() const { return num_sets_; }

    /** Line-aligned base address of @p addr. */
    Addr lineAlign(Addr addr) const { return addr & ~line_mask_; }

    /** Set index of @p addr. */
    unsigned
    setIndex(Addr addr) const
    {
        return static_cast<unsigned>((addr >> line_shift_) & set_mask_);
    }

    /**
     * Look up @p addr; on hit returns the way and updates recency.
     * Inline with line(): every cache access probes, and the tag
     * compare goes first because it rarely matches.
     */
    std::optional<unsigned>
    lookup(Addr addr)
    {
        const Addr tag = lineAlign(addr);
        const unsigned set = setIndex(addr);
        const Page &p = pageOf(set);
        CacheLine *base = setBase(p, set);
        for (unsigned way = 0; way < p.width; ++way) {
            if (base[way].tag == tag && base[way].valid) {
                assert(use_counter_ + 1 < kClockLimit);
                base[way].last_use = ++use_counter_;
                return way;
            }
        }
        return std::nullopt;
    }

    /** Look up without updating replacement state. */
    std::optional<unsigned> peek(Addr addr) const;

    /** Access a line found by lookup()/peek(). @p way must be
     *  stored: a way those returned always is, any other way may lie
     *  past its page's width (use the const overload to read it). */
    CacheLine &
    line(Addr addr, unsigned way)
    {
        const unsigned set = setIndex(addr);
        const Page &p = pageOf(set);
        assert(way < p.width);
        return setBase(p, set)[way];
    }

    /** Any way of @p addr's set; a way never stored reads as an
     *  invalid line. */
    const CacheLine &line(Addr addr, unsigned way) const;

    /**
     * Fill @p addr into a free way of its set, or into the least
     * recently used one. Call only after lookup() or peek() missed
     * on @p addr: fill() does not probe, so filling a resident line
     * would give the set two copies of it. fatal()s rather than let
     * the LRU clock reach 2^CacheLine::kClockBits.
     * @return the evicted line's previous contents when a valid line
     *         was displaced (for writeback decisions).
     */
    std::optional<CacheLine> fill(Addr addr, bool dirty,
                                  bool prefetched = false);

    /** Invalidate @p addr if present; @return the old line. */
    std::optional<CacheLine> invalidate(Addr addr);

    /** Invalidate everything, returning dirty lines. */
    std::vector<CacheLine> flushAll();

    /** Number of currently valid lines. */
    std::uint64_t numValid() const;

    /** Tag lines allocated so far, valid or not (host memory, not a
     *  simulated quantity: it never enters stats). */
    std::uint64_t residentLines() const;

    /** True if no set holds two valid lines with the same tag. */
    bool tagsUnique() const;

    /**
     * @{ Checkpoint the LRU clock and the valid lines (DESIGN.md
     * §16). Sparse: only valid lines are written — a residual field
     * on an invalidated line is never observed (lookup/fill gate on
     * valid, fill overwrites every field), so dropping them is
     * behaviorally identical and keeps an untouched multi-MiB array
     * to a few bytes. A line's index is set * assoc + way, whatever
     * storage is resident. restore() frees every page, then widens
     * a page to way + 1 for each line it restores there. It fatals
     * when the saved geometry disagrees with the configured one, and
     * on any line no array could hold: indices not strictly
     * ascending, a tag that is not line-aligned, lies outside its
     * index's set or repeats a tag valid earlier in that set, a last
     * use past the saved clock, a clock CacheLine::last_use cannot
     * hold, or more lines than the array has.
     */
    void snapshot(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);
    /** @} */

  private:
    /** The LRU clock stays below this, so every timestamp fits
     *  CacheLine::last_use. */
    static constexpr std::uint64_t kClockLimit = std::uint64_t{1}
                                                 << CacheLine::kClockBits;

    /** log2 of the sets per page, the grain tag storage grows by. */
    static constexpr unsigned kPageSetBits = 6;

    /**
     * Tag storage for up to 2^kPageSetBits consecutive sets, stored
     * set-major, @c width ways per set. A page starts with no
     * storage; fill() doubles its width (capped at the
     * associativity) when a set has no free way left. Ways at or
     * past the width have never been filled, so they are invalid by
     * construction and "first invalid way, else LRU" picks the same
     * way an eagerly allocated array would.
     */
    struct Page
    {
        std::unique_ptr<CacheLine[]> lines;
        unsigned width = 0;             ///< ways stored per set
    };

    Page &
    pageOf(unsigned set)
    {
        return pages_[set >> kPageSetBits];
    }

    const Page &
    pageOf(unsigned set) const
    {
        return pages_[set >> kPageSetBits];
    }

    /** The first stored way of @p set, which lives in page @p p.
     *  An array of fewer sets than a page has them all in page 0. */
    CacheLine *
    setBase(const Page &p, unsigned set) const
    {
        constexpr unsigned kSetInPage = (1u << kPageSetBits) - 1;
        return p.lines.get() + std::size_t{set & kSetInPage} * p.width;
    }

    /** Widen @p p to @p width ways per set, keeping every way. */
    void grow(Page &p, unsigned width);

    std::uint64_t size_bytes_;
    unsigned assoc_;
    unsigned line_bytes_;
    unsigned num_sets_;
    Addr line_mask_;
    unsigned line_shift_;
    Addr set_mask_;
    unsigned page_sets_;                ///< sets per page
    std::uint64_t use_counter_ = 0;
    std::vector<Page> pages_;
};

} // namespace mem
} // namespace ehpsim

#endif // EHPSIM_MEM_CACHE_ARRAY_HH
