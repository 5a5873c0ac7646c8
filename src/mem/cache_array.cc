#include "mem/cache_array.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace ehpsim
{
namespace mem
{

namespace
{
/** What line() const reads for a way no page has stored yet. */
constexpr CacheLine kUnstoredLine{};
} // anonymous namespace

CacheArray::CacheArray(std::uint64_t size_bytes, unsigned assoc,
                       unsigned line_bytes)
    : size_bytes_(size_bytes), assoc_(assoc), line_bytes_(line_bytes)
{
    if (assoc == 0 || line_bytes == 0 || size_bytes == 0)
        fatal("cache geometry must be nonzero");
    if (!std::has_single_bit(line_bytes))
        fatal("cache line size must be a power of two");
    if (size_bytes % (static_cast<std::uint64_t>(assoc) * line_bytes))
        fatal("cache size not divisible by assoc * line size");
    const std::uint64_t sets =
        size_bytes / (static_cast<std::uint64_t>(assoc) * line_bytes);
    if (!std::has_single_bit(sets))
        fatal("cache set count must be a power of two");
    num_sets_ = static_cast<unsigned>(sets);
    line_mask_ = line_bytes_ - 1;
    line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes_));
    set_mask_ = num_sets_ - 1;
    page_sets_ = std::min(num_sets_, 1u << kPageSetBits);
    pages_.resize(num_sets_ / page_sets_);
}

void
CacheArray::grow(Page &p, unsigned width)
{
    auto lines = std::make_unique<CacheLine[]>(
        static_cast<std::size_t>(page_sets_) * width);
    for (unsigned s = 0; s < page_sets_; ++s) {
        std::copy_n(p.lines.get() + std::size_t{s} * p.width, p.width,
                    lines.get() + std::size_t{s} * width);
    }
    p.lines = std::move(lines);
    p.width = width;
}

std::optional<unsigned>
CacheArray::peek(Addr addr) const
{
    const Addr tag = lineAlign(addr);
    const unsigned set = setIndex(addr);
    const Page &p = pageOf(set);
    const CacheLine *base = setBase(p, set);
    for (unsigned way = 0; way < p.width; ++way) {
        if (base[way].tag == tag && base[way].valid)
            return way;
    }
    return std::nullopt;
}

const CacheLine &
CacheArray::line(Addr addr, unsigned way) const
{
    const unsigned set = setIndex(addr);
    const Page &p = pageOf(set);
    return way < p.width ? setBase(p, set)[way] : kUnstoredLine;
}

std::optional<CacheLine>
CacheArray::fill(Addr addr, bool dirty, bool prefetched)
{
    if (use_counter_ + 1 >= kClockLimit)
        fatal("cache LRU clock would reach 2^", CacheLine::kClockBits);
    // The first invalid way, else the least recently used one. The
    // ways past the page's width are the first invalid ones when
    // every stored way is valid: widen the page and take the first.
    const unsigned set = setIndex(addr);
    Page &p = pageOf(set);
    CacheLine *base = setBase(p, set);
    unsigned way = 0;
    bool free = false;
    for (unsigned w = 0; w < p.width; ++w) {
        if (!base[w].valid) {
            way = w;
            free = true;
            break;
        }
        if (base[w].last_use < base[way].last_use)
            way = w;
    }
    if (!free && p.width < assoc_) {
        way = p.width;
        grow(p, std::min(assoc_, std::max(1u, 2 * p.width)));
        base = setBase(p, set);
    }
    CacheLine &l = base[way];
    std::optional<CacheLine> victim;
    if (l.valid)
        victim = l;
    l = {.tag = lineAlign(addr),
         .last_use = ++use_counter_,
         .valid = true,
         .dirty = dirty,
         .prefetched = prefetched};
    return victim;
}

std::optional<CacheLine>
CacheArray::invalidate(Addr addr)
{
    if (auto way = peek(addr)) {
        CacheLine &l = line(addr, *way);
        CacheLine old = l;
        l.valid = false;
        l.dirty = false;
        return old;
    }
    return std::nullopt;
}

std::vector<CacheLine>
CacheArray::flushAll()
{
    // Each page is set-major, so a walk of the pages in order visits
    // the lines in set-major order, as an eager array would.
    std::vector<CacheLine> dirty;
    for (Page &p : pages_) {
        const std::size_t n = std::size_t{page_sets_} * p.width;
        for (std::size_t i = 0; i < n; ++i) {
            CacheLine &l = p.lines[i];
            if (l.valid && l.dirty)
                dirty.push_back(l);
            l.valid = false;
            l.dirty = false;
        }
    }
    return dirty;
}

std::uint64_t
CacheArray::numValid() const
{
    std::uint64_t n = 0;
    for (const Page &p : pages_) {
        const std::size_t lines = std::size_t{page_sets_} * p.width;
        for (std::size_t i = 0; i < lines; ++i) {
            if (p.lines[i].valid)
                ++n;
        }
    }
    return n;
}

std::uint64_t
CacheArray::residentLines() const
{
    std::uint64_t n = 0;
    for (const Page &p : pages_)
        n += std::uint64_t{page_sets_} * p.width;
    return n;
}

void
CacheArray::snapshot(SnapshotWriter &w) const
{
    w.putU64(size_bytes_);
    w.putU32(assoc_);
    w.putU32(line_bytes_);
    w.putU64(use_counter_);
    w.putU64(numValid());
    for (unsigned set = 0; set < num_sets_; ++set) {
        const Page &p = pageOf(set);
        const CacheLine *base = setBase(p, set);
        for (unsigned way = 0; way < p.width; ++way) {
            const CacheLine &l = base[way];
            if (!l.valid)
                continue;
            w.putU64(std::uint64_t{set} * assoc_ + way);
            w.putU64(l.tag);
            w.putBool(l.dirty);
            w.putU64(l.last_use);
            w.putBool(l.prefetched);
        }
    }
}

void
CacheArray::restore(SnapshotReader &r)
{
    const std::uint64_t size = r.getU64();
    const std::uint32_t assoc = r.getU32();
    const std::uint32_t line = r.getU32();
    if (size != size_bytes_ || assoc != assoc_ || line != line_bytes_) {
        fatal("cache snapshot saved as ", size, " B x", assoc,
              "-way x", line, " B lines but configured as ",
              size_bytes_, " B x", assoc_, "-way x", line_bytes_,
              " B lines — checkpoint/config mismatch");
    }
    use_counter_ = r.getU64();
    if (use_counter_ >= kClockLimit)
        fatal("cache snapshot LRU clock ", use_counter_,
              " does not fit ", CacheLine::kClockBits,
              " bits — corrupt checkpoint");
    for (Page &p : pages_)
        p = Page{};
    const std::uint64_t capacity = std::uint64_t{num_sets_} * assoc_;
    const std::uint64_t valid = r.getU64();
    if (valid > capacity)
        fatal("cache snapshot holds ", valid, " lines but the array has ",
              capacity, " — corrupt checkpoint");
    std::uint64_t next = 0;     // lowest index the next line may take
    for (std::uint64_t i = 0; i < valid; ++i) {
        const std::uint64_t idx = r.getU64();
        if (idx < next || idx >= capacity)
            fatal("cache snapshot line index ", idx,
                  " out of order or out of range — corrupt checkpoint");
        next = idx + 1;
        const Addr tag = r.getU64();
        const auto set = static_cast<unsigned>(idx / assoc_);
        const auto way = static_cast<unsigned>(idx % assoc_);
        if ((tag & line_mask_) != 0 || setIndex(tag) != set)
            fatal("cache snapshot tag ", tag, " cannot sit at line ",
                  idx, " — corrupt checkpoint");
        if (peek(tag))
            fatal("cache snapshot repeats tag ", tag,
                  " in one set — corrupt checkpoint");
        Page &p = pageOf(set);
        if (way >= p.width)
            grow(p, way + 1);
        CacheLine &l = setBase(p, set)[way];
        l.tag = tag;
        l.valid = true;
        l.dirty = r.getBool();
        // Checked before it is stored: the field would truncate it.
        const std::uint64_t last_use = r.getU64();
        if (last_use > use_counter_)
            fatal("cache snapshot line last used at ", last_use,
                  " past the LRU clock ", use_counter_,
                  " — corrupt checkpoint");
        l.last_use = last_use;
        l.prefetched = r.getBool();
    }
}

bool
CacheArray::tagsUnique() const
{
    for (unsigned set = 0; set < num_sets_; ++set) {
        const Page &p = pageOf(set);
        const CacheLine *base = setBase(p, set);
        for (unsigned i = 0; i < p.width; ++i) {
            if (!base[i].valid)
                continue;
            for (unsigned j = i + 1; j < p.width; ++j) {
                if (base[j].valid && base[j].tag == base[i].tag)
                    return false;
            }
        }
    }
    return true;
}

} // namespace mem
} // namespace ehpsim
