/**
 * @file
 * A generic set-associative tag array with LRU replacement.
 *
 * CacheArray is purely structural (tags + per-line metadata); timing
 * and statistics live in the wrapping cache models. It underpins the
 * GPU L1/L2, CPU L1/L2/L3, and the memory-side Infinity Cache.
 */

#ifndef EHPSIM_MEM_CACHE_ARRAY_HH
#define EHPSIM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/types.hh"

namespace ehpsim
{

class SnapshotWriter;
class SnapshotReader;

namespace mem
{

/** Per-line metadata. */
struct CacheLine
{
    Addr tag = 0;
    std::uint64_t last_use = 0; ///< LRU timestamp
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;    ///< filled by a prefetcher
};

// Multi-MiB arrays hold one of these per line; keep the padding out.
static_assert(sizeof(CacheLine) == 24, "CacheLine must pack to 24 B");

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
     */
    std::optional<unsigned> lookup(Addr addr);

    /** Look up without updating replacement state. */
    std::optional<unsigned> peek(Addr addr) const;

    /** Access a line found by lookup()/peek(). */
    CacheLine &line(Addr addr, unsigned way);

    const CacheLine &line(Addr addr, unsigned way) const;

    /**
     * Fill @p addr into a free way of its set, or into the least
     * recently used one. Call only after lookup() or peek() missed
     * on @p addr: fill() does not probe, so filling a resident line
     * would give the set two copies of it.
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

    /** True if no set holds two valid lines with the same tag. */
    bool tagsUnique() const;

    /**
     * @{ Checkpoint the LRU clock and the valid lines (DESIGN.md
     * §16). Sparse: only valid lines are written — a residual field
     * on an invalidated line is never observed (lookup/victimWay gate
     * on valid, fill overwrites every field), so dropping them is
     * behaviorally identical and keeps an untouched multi-MiB array
     * to a few bytes. restore() fatals when the saved geometry
     * disagrees with the configured one, and on any line no array
     * could hold: indices not strictly ascending, a tag that is not
     * line-aligned, lies outside its index's set or repeats a tag
     * valid earlier in that set, a last use past the saved clock, or
     * more lines than the array has.
     */
    void snapshot(SnapshotWriter &w) const;
    void restore(SnapshotReader &r);
    /** @} */

  private:
    /** The first way of @p addr's set. */
    CacheLine *
    setBase(Addr addr)
    {
        return &lines_[std::size_t{setIndex(addr)} * assoc_];
    }

    const CacheLine *
    setBase(Addr addr) const
    {
        return &lines_[std::size_t{setIndex(addr)} * assoc_];
    }

    std::uint64_t size_bytes_;
    unsigned assoc_;
    unsigned line_bytes_;
    unsigned num_sets_;
    Addr line_mask_;
    unsigned line_shift_;
    Addr set_mask_;
    std::uint64_t use_counter_ = 0;
    std::vector<CacheLine> lines_;          ///< sets * assoc, row-major
};

} // namespace mem
} // namespace ehpsim

#endif // EHPSIM_MEM_CACHE_ARRAY_HH
