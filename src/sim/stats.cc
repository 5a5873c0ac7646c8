#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace ehpsim
{
namespace stats
{

StatBase::StatBase(StatGroup *parent, std::string name, StaticText desc)
    : name_(std::move(name)), desc_(desc.c_str())
{
    if (parent)
        parent->addStat(this);
}

void
Scalar::dump(std::ostream &os, const std::string &path) const
{
    os << path << name() << " " << value_ << " # " << desc() << "\n";
}

void
Scalar::dumpJson(json::JsonWriter &jw) const
{
    jw.kv(name(), value_);
}

void
Scalar::snapshot(SnapshotWriter &w) const
{
    w.putF64(value_);
}

void
Scalar::restore(SnapshotReader &r)
{
    value_ = r.getF64();
}

void
Average::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
}

void
Average::dump(std::ostream &os, const std::string &path) const
{
    os << path << name() << "::mean " << mean() << " # " << desc()
       << "\n";
    os << path << name() << "::min " << min() << " # " << desc() << "\n";
    os << path << name() << "::max " << max() << " # " << desc() << "\n";
    os << path << name() << "::count " << count_ << " # " << desc()
       << "\n";
}

void
Average::dumpJson(json::JsonWriter &jw) const
{
    jw.key(name());
    jw.beginObject();
    jw.kv("mean", mean());
    jw.kv("min", min());
    jw.kv("max", max());
    jw.kv("count", count_);
    jw.endObject();
}

void
Average::reset()
{
    sum_ = 0;
    min_ = 0;
    max_ = 0;
    count_ = 0;
}

void
Average::snapshot(SnapshotWriter &w) const
{
    w.putF64(sum_);
    w.putF64(min_);
    w.putF64(max_);
    w.putU64(count_);
}

void
Average::restore(SnapshotReader &r)
{
    sum_ = r.getF64();
    min_ = r.getF64();
    max_ = r.getF64();
    count_ = r.getU64();
}

Distribution::Distribution(StatGroup *parent, std::string name,
                           StaticText desc)
    : StatBase(parent, std::move(name), desc)
{
    init(0, 1, 1);
}

Distribution &
Distribution::init(double lo, double hi, unsigned nbuckets)
{
    if (hi <= lo || nbuckets == 0)
        panic("bad distribution bounds: [", lo, ", ", hi, ") x ",
              nbuckets);
    lo_ = lo;
    hi_ = hi;
    bucket_width_ = (hi - lo) / nbuckets;
    buckets_.assign(nbuckets, 0);
    underflow_ = overflow_ = count_ = 0;
    sum_ = 0;
    return *this;
}

void
Distribution::sample(double v, std::uint64_t n)
{
    if (v < lo_) {
        underflow_ += n;
    } else if (v >= hi_) {
        overflow_ += n;
    } else {
        auto idx = static_cast<std::size_t>((v - lo_) / bucket_width_);
        idx = std::min(idx, buckets_.size() - 1);
        buckets_[idx] += n;
    }
    count_ += n;
    sum_ += v * static_cast<double>(n);
}

void
Distribution::dump(std::ostream &os, const std::string &path) const
{
    os << path << name() << "::mean " << mean() << " # " << desc()
       << "\n";
    os << path << name() << "::count " << count_ << " # " << desc()
       << "\n";
    os << path << name() << "::underflows " << underflow_ << " # "
       << desc() << "\n";
    os << path << name() << "::overflows " << overflow_ << " # "
       << desc() << "\n";
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const double b_lo = lo_ + bucket_width_ * static_cast<double>(i);
        os << path << name() << "::bucket[" << b_lo << "] "
           << buckets_[i] << " # " << desc() << "\n";
    }
}

void
Distribution::dumpJson(json::JsonWriter &jw) const
{
    jw.key(name());
    jw.beginObject();
    jw.kv("mean", mean());
    jw.kv("count", count_);
    jw.kv("underflows", underflow_);
    jw.kv("overflows", overflow_);
    jw.kv("lo", lo_);
    jw.kv("bucket_width", bucket_width_);
    jw.key("buckets");
    jw.beginArray();
    for (const auto b : buckets_)
        jw.value(b);
    jw.endArray();
    jw.endObject();
}

void
Distribution::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    underflow_ = overflow_ = count_ = 0;
    sum_ = 0;
}

void
Distribution::snapshot(SnapshotWriter &w) const
{
    w.putF64(lo_);
    w.putF64(hi_);
    w.putU32(static_cast<std::uint32_t>(buckets_.size()));
    for (const auto b : buckets_)
        w.putU64(b);
    w.putU64(underflow_);
    w.putU64(overflow_);
    w.putU64(count_);
    w.putF64(sum_);
}

void
Distribution::restore(SnapshotReader &r)
{
    // The bucket layout is configuration, not history: the restored
    // world must already be init()ed to the saved shape.
    const double lo = r.getF64();
    const double hi = r.getF64();
    const auto nbuckets = r.getU32();
    if (lo != lo_ || hi != hi_ || nbuckets != buckets_.size())
        fatal("snapshot: distribution '", name(), "' saved as [", lo,
              ", ", hi, ") x ", nbuckets, " but configured as [", lo_,
              ", ", hi_, ") x ", buckets_.size());
    for (auto &b : buckets_)
        b = r.getU64();
    underflow_ = r.getU64();
    overflow_ = r.getU64();
    count_ = r.getU64();
    sum_ = r.getF64();
}

void
Percentile::sample(double v)
{
    samples_.push_back(v);
    sum_ += v;
    sorted_ = samples_.size() <= 1;
}

double
Percentile::mean() const
{
    return samples_.empty()
               ? 0.0
               : sum_ / static_cast<double>(samples_.size());
}

void
Percentile::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
Percentile::percentile(double p) const
{
    // Validate the argument before the empty-samples early return:
    // an out-of-range p is a caller bug whether or not any samples
    // were recorded, and the old order silently returned 0 for it
    // on an empty stat.
    if (p < 0.0 || p > 100.0)
        panic("percentile out of range: ", p);
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    const double n = static_cast<double>(samples_.size());
    // Nearest-rank: the ceil(p/100 * N)-th smallest sample.
    const double rank = std::ceil(p / 100.0 * n);
    const auto idx = static_cast<std::size_t>(
        std::max(rank - 1.0, 0.0));
    return samples_[std::min(idx, samples_.size() - 1)];
}

void
Percentile::dump(std::ostream &os, const std::string &path) const
{
    os << path << name() << "::p50 " << percentile(50) << " # "
       << desc() << "\n";
    os << path << name() << "::p95 " << percentile(95) << " # "
       << desc() << "\n";
    os << path << name() << "::p99 " << percentile(99) << " # "
       << desc() << "\n";
    os << path << name() << "::mean " << mean() << " # " << desc()
       << "\n";
    os << path << name() << "::count " << count() << " # " << desc()
       << "\n";
}

void
Percentile::dumpJson(json::JsonWriter &jw) const
{
    jw.key(name());
    jw.beginObject();
    jw.kv("p50", percentile(50));
    jw.kv("p95", percentile(95));
    jw.kv("p99", percentile(99));
    jw.kv("mean", mean());
    jw.kv("count", count());
    jw.endObject();
}

void
Percentile::reset()
{
    samples_.clear();
    sorted_ = true;
    sum_ = 0;
}

void
Percentile::snapshot(SnapshotWriter &w) const
{
    // Physical sample order never reaches the output (percentiles
    // sort, mean uses the pre-accumulated sum_), so saving whatever
    // order the vector is in preserves byte-identity.
    w.putU64(samples_.size());
    for (const auto s : samples_)
        w.putF64(s);
    w.putF64(sum_);
}

void
Percentile::restore(SnapshotReader &r)
{
    const auto n = r.getU64();
    samples_.clear();
    samples_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        samples_.push_back(r.getF64());
    sum_ = r.getF64();
    sorted_ = samples_.size() <= 1;
}

Formula::Formula(StatGroup *parent, std::string name, StaticText desc,
                 std::function<double()> fn)
    : StatBase(parent, std::move(name), desc),
      fn_(std::move(fn))
{
}

void
Formula::dump(std::ostream &os, const std::string &path) const
{
    os << path << name() << " " << value() << " # " << desc() << "\n";
}

void
Formula::dumpJson(json::JsonWriter &jw) const
{
    jw.kv(name(), value());
}

StatGroup::StatGroup(StatGroup *parent, std::string name)
    : parent_(parent), name_(std::move(name))
{
    if (!parent_)
        return;
    prev_ = parent_->group_tail_;
    (prev_ ? prev_->next_ : parent_->group_head_) = this;
    parent_->group_tail_ = this;
    ++parent_->ngroups_;
}

StatGroup::~StatGroup()
{
    if (!parent_)
        return;
    (prev_ ? prev_->next_ : parent_->group_head_) = next_;
    (next_ ? next_->prev_ : parent_->group_tail_) = prev_;
    --parent_->ngroups_;
}

std::string
StatGroup::statPath() const
{
    if (!parent_)
        return name_;
    std::string p = parent_->statPath();
    if (p.empty())
        return name_;
    return p + "." + name_;
}

void
StatGroup::dumpStats(std::ostream &os) const
{
    std::string path = statPath();
    if (!path.empty())
        path += ".";
    for (const auto *stat : statList())
        stat->dump(os, path);
    for (const auto *group : groupList())
        group->dumpStats(os);
}

void
StatGroup::dumpJsonStats(json::JsonWriter &jw) const
{
    jw.beginObject();
    for (const auto *stat : statList())
        stat->dumpJson(jw);
    for (const auto *group : groupList()) {
        jw.key(group->statName());
        group->dumpJsonStats(jw);
    }
    jw.endObject();
}

void
StatGroup::snapshot(SnapshotWriter &w) const
{
    w.section("group");
    w.putString(name_);
    w.putU32(static_cast<std::uint32_t>(nstats_));
    for (const auto *stat : statList()) {
        w.putString(stat->name());
        stat->snapshot(w);
    }
    w.putU32(static_cast<std::uint32_t>(ngroups_));
    for (const auto *group : groupList())
        group->snapshot(w);
}

void
StatGroup::restore(SnapshotReader &r)
{
    r.section("group");
    const std::string saved_name = r.getString();
    if (saved_name != name_)
        fatal("snapshot: expected stat group '", statPath(),
              "', checkpoint holds '", saved_name,
              "' — simulation shape mismatch");
    const auto nstats = r.getU32();
    if (nstats != nstats_)
        fatal("snapshot: group '", statPath(), "' has ", nstats_,
              " stats, checkpoint holds ", nstats);
    for (auto *stat : statList()) {
        const std::string sname = r.getString();
        if (sname != stat->name())
            fatal("snapshot: group '", statPath(), "' expected stat '",
                  stat->name(), "', checkpoint holds '", sname, "'");
        stat->restore(r);
    }
    const auto ngroups = r.getU32();
    if (ngroups != ngroups_)
        fatal("snapshot: group '", statPath(), "' has ", ngroups_,
              " children, checkpoint holds ", ngroups);
    for (auto *group : groupList())
        group->restore(r);
}

StatBase *
StatGroup::findStat(const std::string &name) const
{
    for (auto *stat : statList()) {
        if (stat->name() == name)
            return stat;
    }
    return nullptr;
}

void
StatGroup::addStat(StatBase *stat)
{
    if (findStat(stat->name())) {
        panic("stat '", stat->name(), "' registered twice in group '",
              statPath(), "' — stat paths must be unique");
    }
    (stat_tail_ ? stat_tail_->next_ : stat_head_) = stat;
    stat_tail_ = stat;
    ++nstats_;
}

} // namespace stats
} // namespace ehpsim
