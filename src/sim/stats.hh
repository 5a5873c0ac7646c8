/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Statistics register themselves with a StatGroup; groups nest so the
 * whole system forms a tree that can be dumped as "path.name value"
 * lines. Supported kinds: Scalar (counter), Average (mean of
 * samples), Distribution (bucketed histogram with min/max/mean), and
 * Formula (derived value evaluated at dump time).
 */

#ifndef EHPSIM_SIM_STATS_HH
#define EHPSIM_SIM_STATS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

namespace ehpsim
{

namespace json
{
class JsonWriter;
} // namespace json

class SnapshotWriter;
class SnapshotReader;

namespace stats
{

class StatGroup;

/**
 * A stat's description: text with static storage duration, held by
 * pointer. The constructor is consteval, so only a constant
 * expression such as a string literal converts; a description built
 * at run time (`s.c_str()`) fails to compile instead of dangling.
 * Registering a stat therefore copies no text (DESIGN.md §16).
 */
class StaticText
{
  public:
    consteval StaticText(const char *text) : text_(text) {}

    const char *c_str() const { return text_; }

  private:
    const char *text_;
};

/**
 * A forward iterator over an intrusive list of @p Node: it yields
 * Node pointers and steps along each node's next_ link.
 */
template <class Node>
class ListIterator
{
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Node *;
    using difference_type = std::ptrdiff_t;

    ListIterator() = default;

    explicit ListIterator(Node *node) : node_(node) {}

    Node *operator*() const { return node_; }

    ListIterator &operator++()
    {
        node_ = node_->next_;
        return *this;
    }

    ListIterator operator++(int)
    {
        ListIterator old = *this;
        ++*this;
        return old;
    }

    bool operator==(const ListIterator &) const = default;

  private:
    Node *node_ = nullptr;
};

/** The stats or child groups of one StatGroup, in registration order. */
template <class Node>
class ListRange
{
  public:
    ListRange(Node *head, std::size_t size) : head_(head), size_(size) {}

    ListIterator<Node> begin() const { return ListIterator<Node>(head_); }

    ListIterator<Node> end() const { return ListIterator<Node>(); }

    std::size_t size() const { return size_; }

  private:
    Node *head_;
    std::size_t size_;
};

/**
 * Base class for all statistics. A stat registers with its group on
 * construction and is linked into it by address, so it can be
 * neither copied nor moved.
 */
class StatBase
{
  public:
    StatBase(StatGroup *parent, std::string name, StaticText desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }

    const char *desc() const { return desc_; }

    /** Emit "path value # desc" lines. */
    virtual void dump(std::ostream &os,
                      const std::string &path) const = 0;

    /**
     * Emit this stat as a JSON object member: the writer is inside
     * an open object; implementations write key(name()) plus one
     * value (scalars a number, compound kinds a nested object).
     */
    virtual void dumpJson(json::JsonWriter &jw) const = 0;

    /** Reset to the just-constructed state. */
    virtual void reset() = 0;

    /**
     * @{ Checkpoint this stat's accumulated value(s) (DESIGN.md
     * §16). The defaults serialize nothing, which is correct only
     * for stats with no mutable state (Formula); every accumulating
     * kind overrides both. Restore must consume exactly the bytes
     * snapshot produced.
     */
    virtual void snapshot(SnapshotWriter &) const {}
    virtual void restore(SnapshotReader &) {}
    /** @} */

  private:
    friend class StatGroup;
    friend class ListIterator<StatBase>;

    std::string name_;
    const char *desc_;
    /** The next stat registered in the same group. */
    StatBase *next_ = nullptr;
};

/** A monotonically adjustable counter. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator+=(double v) { value_ += v; return *this; }

    Scalar &operator++() { value_ += 1; return *this; }

    void set(double v) { value_ = v; }

    double value() const { return value_; }

    void dump(std::ostream &os, const std::string &path) const override;

    void dumpJson(json::JsonWriter &jw) const override;

    void reset() override { value_ = 0; }

    void snapshot(SnapshotWriter &w) const override;

    void restore(SnapshotReader &r) override;

  private:
    double value_ = 0;
};

/** Mean/min/max over individually recorded samples. */
class Average : public StatBase
{
  public:
    using StatBase::StatBase;

    void sample(double v);

    std::uint64_t count() const { return count_; }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    double min() const { return count_ ? min_ : 0.0; }

    double max() const { return count_ ? max_ : 0.0; }

    void dump(std::ostream &os, const std::string &path) const override;

    void dumpJson(json::JsonWriter &jw) const override;

    void reset() override;

    void snapshot(SnapshotWriter &w) const override;

    void restore(SnapshotReader &r) override;

  private:
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
    std::uint64_t count_ = 0;
};

/** Fixed-width bucketed histogram. */
class Distribution : public StatBase
{
  public:
    Distribution(StatGroup *parent, std::string name, StaticText desc);

    /** Configure bucket range [lo, hi) with @p nbuckets buckets. */
    Distribution &init(double lo, double hi, unsigned nbuckets);

    void sample(double v, std::uint64_t n = 1);

    std::uint64_t count() const { return count_; }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    std::uint64_t bucketCount(unsigned i) const { return buckets_[i]; }

    unsigned numBuckets() const
    {
        return static_cast<unsigned>(buckets_.size());
    }

    std::uint64_t underflows() const { return underflow_; }

    std::uint64_t overflows() const { return overflow_; }

    void dump(std::ostream &os, const std::string &path) const override;

    void dumpJson(json::JsonWriter &jw) const override;

    void reset() override;

    void snapshot(SnapshotWriter &w) const override;

    void restore(SnapshotReader &r) override;

  private:
    double lo_ = 0;
    double hi_ = 1;
    double bucket_width_ = 1;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0;
};

/**
 * Exact percentiles over individually recorded samples.
 *
 * Samples are retained (sorted lazily on demand), so any percentile
 * is exact — no bucket-resolution error — and the result is a pure
 * function of the sample multiset: deterministic across runs,
 * worker counts, and insertion orders. Intended for latency
 * populations of bounded size (one sample per request, not per
 * event); dump() and dumpJson() report p50/p95/p99 plus mean/count.
 */
class Percentile : public StatBase
{
  public:
    using StatBase::StatBase;

    void sample(double v);

    std::uint64_t count() const { return samples_.size(); }

    double mean() const;

    /**
     * Nearest-rank percentile for @p p in [0, 100]: the
     * ceil(p/100 * N)-th smallest sample (the smallest for p = 0).
     * Panics on out-of-range @p p (validated before the empty-stat
     * check). Returns 0 when no samples were recorded — consumers
     * that must distinguish "no data" from a genuine 0 should check
     * count() (serve JSON emits it as *_samples).
     */
    double percentile(double p) const;

    void dump(std::ostream &os, const std::string &path) const override;

    void dumpJson(json::JsonWriter &jw) const override;

    void reset() override;

    void snapshot(SnapshotWriter &w) const override;

    void restore(SnapshotReader &r) override;

  private:
    /** Sort samples_ unless already sorted since the last sample. */
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
    double sum_ = 0;
};

/** A derived statistic evaluated lazily at dump time. */
class Formula : public StatBase
{
  public:
    Formula(StatGroup *parent, std::string name, StaticText desc,
            std::function<double()> fn);

    double value() const { return fn_ ? fn_() : 0.0; }

    void dump(std::ostream &os, const std::string &path) const override;

    void dumpJson(json::JsonWriter &jw) const override;

    void reset() override {}

  private:
    std::function<double()> fn_;
};

/**
 * A named node in the statistics tree. Components own a StatGroup
 * (usually via inheritance) and declare stats as members. A group
 * keeps its stats and child groups as intrusive lists in
 * registration order, so registering allocates nothing and a child
 * unlinks itself in O(1) when destroyed (DESIGN.md §16).
 */
class StatGroup
{
  public:
    StatGroup(StatGroup *parent, std::string name);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &statName() const { return name_; }

    /** Full dotted path from the root group. */
    std::string statPath() const;

    /** Dump this group's subtree. */
    void dumpStats(std::ostream &os) const;

    /**
     * Emit this group's subtree as one JSON object value: stats
     * become members keyed by stat name (compound kinds nest an
     * object), child groups become nested objects keyed by group
     * name. The writer must be positioned where a value is legal.
     */
    void dumpJsonStats(json::JsonWriter &jw) const;

    ListRange<StatBase> statList() const { return {stat_head_, nstats_}; }

    ListRange<StatGroup> groupList() const
    {
        return {group_head_, ngroups_};
    }

    /**
     * @{ Checkpoint this group's subtree (DESIGN.md §16). The base
     * walk serializes every registered stat and recurses into child
     * groups virtually, both in registration order, validating
     * group and stat names on restore — so a checkpoint taken from
     * a differently-shaped simulation fails loudly. State-bearing
     * subclasses override both, call the base FIRST, then append
     * their extra (non-stat) dynamic state; restore must mirror the
     * exact write order.
     */
    virtual void snapshot(SnapshotWriter &w) const;
    virtual void restore(SnapshotReader &r);
    /** @} */

    /** Find a stat by name in this group only; nullptr if absent. */
    StatBase *findStat(const std::string &name) const;

  private:
    friend class StatBase;
    friend class ListIterator<StatGroup>;

    /** Register @p stat; panics if the name is already taken in
     *  this group (the runtime twin of ehpsim-lint's dup-stat). */
    void addStat(StatBase *stat);

    StatGroup *parent_;
    std::string name_;
    /** @{ This group's stats, first and last registered. */
    StatBase *stat_head_ = nullptr;
    StatBase *stat_tail_ = nullptr;
    /** @} */
    /** @{ This group's child groups, first and last registered. */
    StatGroup *group_head_ = nullptr;
    StatGroup *group_tail_ = nullptr;
    /** @} */
    /** @{ Siblings under parent_, in registration order. */
    StatGroup *prev_ = nullptr;
    StatGroup *next_ = nullptr;
    /** @} */
    std::size_t nstats_ = 0;
    std::size_t ngroups_ = 0;
};

} // namespace stats
} // namespace ehpsim

#endif // EHPSIM_SIM_STATS_HH
