#include "mem/cache_array.hh"

#include <bit>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace ehpsim
{
namespace mem
{

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
    lines_.resize(static_cast<std::size_t>(num_sets_) * assoc_);
}

std::optional<unsigned>
CacheArray::lookup(Addr addr)
{
    const Addr tag = lineAlign(addr);
    CacheLine *base = setBase(addr);
    for (unsigned way = 0; way < assoc_; ++way) {
        if (base[way].valid && base[way].tag == tag) {
            base[way].last_use = ++use_counter_;
            return way;
        }
    }
    return std::nullopt;
}

std::optional<unsigned>
CacheArray::peek(Addr addr) const
{
    const Addr tag = lineAlign(addr);
    const CacheLine *base = setBase(addr);
    for (unsigned way = 0; way < assoc_; ++way) {
        if (base[way].valid && base[way].tag == tag)
            return way;
    }
    return std::nullopt;
}

CacheLine &
CacheArray::line(Addr addr, unsigned way)
{
    return setBase(addr)[way];
}

const CacheLine &
CacheArray::line(Addr addr, unsigned way) const
{
    return setBase(addr)[way];
}

std::optional<CacheLine>
CacheArray::fill(Addr addr, bool dirty, bool prefetched)
{
    // The first invalid way, else the least recently used one.
    CacheLine *base = setBase(addr);
    unsigned way = 0;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (!base[w].valid) {
            way = w;
            break;
        }
        if (base[w].last_use < base[way].last_use)
            way = w;
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
    std::vector<CacheLine> dirty;
    for (auto &l : lines_) {
        if (l.valid && l.dirty)
            dirty.push_back(l);
        l.valid = false;
        l.dirty = false;
    }
    return dirty;
}

std::uint64_t
CacheArray::numValid() const
{
    std::uint64_t n = 0;
    for (const auto &l : lines_) {
        if (l.valid)
            ++n;
    }
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
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        const CacheLine &l = lines_[i];
        if (!l.valid)
            continue;
        w.putU64(i);
        w.putU64(l.tag);
        w.putBool(l.dirty);
        w.putU64(l.last_use);
        w.putBool(l.prefetched);
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
    lines_.assign(lines_.size(), CacheLine{});
    const std::uint64_t valid = r.getU64();
    if (valid > lines_.size())
        fatal("cache snapshot holds ", valid, " lines but the array has ",
              lines_.size(), " — corrupt checkpoint");
    std::uint64_t next = 0;     // lowest index the next line may take
    for (std::uint64_t i = 0; i < valid; ++i) {
        const std::uint64_t idx = r.getU64();
        if (idx < next || idx >= lines_.size())
            fatal("cache snapshot line index ", idx,
                  " out of order or out of range — corrupt checkpoint");
        next = idx + 1;
        const Addr tag = r.getU64();
        if ((tag & line_mask_) != 0 || setIndex(tag) != idx / assoc_)
            fatal("cache snapshot tag ", tag, " cannot sit at line ",
                  idx, " — corrupt checkpoint");
        if (peek(tag))
            fatal("cache snapshot repeats tag ", tag,
                  " in one set — corrupt checkpoint");
        CacheLine &l = lines_[idx];
        l.tag = tag;
        l.valid = true;
        l.dirty = r.getBool();
        l.last_use = r.getU64();
        if (l.last_use > use_counter_)
            fatal("cache snapshot line last used at ", l.last_use,
                  " past the LRU clock ", use_counter_,
                  " — corrupt checkpoint");
        l.prefetched = r.getBool();
    }
}

bool
CacheArray::tagsUnique() const
{
    for (unsigned set = 0; set < num_sets_; ++set) {
        const CacheLine *base =
            &lines_[static_cast<std::size_t>(set) * assoc_];
        for (unsigned i = 0; i < assoc_; ++i) {
            if (!base[i].valid)
                continue;
            for (unsigned j = i + 1; j < assoc_; ++j) {
                if (base[j].valid && base[j].tag == base[i].tag)
                    return false;
            }
        }
    }
    return true;
}

} // namespace mem
} // namespace ehpsim
