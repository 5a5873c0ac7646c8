/**
 * @file
 * Deterministic checkpoint serialization (DESIGN.md §16).
 *
 * A snapshot captures the complete dynamic state of a warmed
 * simulation — event-queue contents, stat values, and every
 * state-bearing SimObject — so a sweep can run a shared warmup
 * prefix once and fork N knob points from the in-memory blob
 * instead of re-simulating the prefix per point. The contract the
 * whole layer serves: checkpoint -> restore -> run produces JSON
 * byte-identical to the straight-through run.
 *
 * Format (version 5): an 8-byte magic ("EHPSNAP1"), a little-endian
 * u32 format version, then a flat stream of tagged values. Every
 * value carries a one-byte type tag and every logical record starts
 * with a named section marker, so a truncated, bit-flipped, or
 * mis-ordered blob fails loudly (fatal(), which throws) at the
 * first wrong byte instead of silently restoring garbage. There is
 * no random access: writers and readers must walk the object tree
 * in the exact same order, which the StatGroup tree walk guarantees
 * by construction (registration order).
 *
 * Callables cannot be serialized, so pending one-shot events round
 * trip through the EventQueue's keyed-factory registry instead: the
 * writer records (tick, seq, key, payload) and the reader replays
 * each through the factory registered under the key (see
 * EventQueue::registerKeyedFactory).
 */

#ifndef EHPSIM_SIM_SNAPSHOT_HH
#define EHPSIM_SIM_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ehpsim
{

/**
 * Serializes typed values into an in-memory blob. The header is
 * written on construction; blob() is valid at any point after the
 * last put (there is no explicit finish step — the format is a
 * self-delimiting stream).
 */
class SnapshotWriter
{
  public:
    SnapshotWriter();

    SnapshotWriter(const SnapshotWriter &) = delete;
    SnapshotWriter &operator=(const SnapshotWriter &) = delete;

    /** Begin a named record; the reader must expect the same name. */
    void section(std::string_view name);

    /**
     * The save tick, set by saveWorld() before the object walk.
     * History-pruning serializers (OccupancyTracker) may drop state
     * that can no longer affect any event at or after this tick;
     * the default 0 keeps everything.
     */
    void setHorizon(std::uint64_t tick) { horizon_ = tick; }
    std::uint64_t horizon() const { return horizon_; }

    void putU8(std::uint8_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putF64(double v);
    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putString(std::string_view v);

    const std::string &blob() const { return buf_; }

  private:
    void raw(const void *p, std::size_t n);
    void tagged(std::uint8_t tag, const void *p, std::size_t n);

    std::string buf_;
    std::uint64_t horizon_ = 0;
};

/**
 * Reads a blob produced by SnapshotWriter. Construction validates
 * the magic and version; every get validates its type tag and
 * bounds. All failures are fatal() — a corrupt checkpoint is a user
 * input error, and fatal throws so callers (tests, the sweep
 * runner) can intercept it.
 */
class SnapshotReader
{
  public:
    /** @p blob must outlive the reader (it is viewed, not copied). */
    explicit SnapshotReader(std::string_view blob);

    /** Consume a section marker; fatal unless it names @p name. */
    void section(std::string_view name);

    std::uint8_t getU8();
    std::uint32_t getU32();
    std::uint64_t getU64();
    double getF64();
    bool getBool() { return getU8() != 0; }
    std::string getString();

    /** True once every byte has been consumed. */
    bool atEnd() const { return pos_ == blob_.size(); }

  private:
    void need(std::size_t n, const char *what);
    void tag(std::uint8_t expect, const char *what);

    std::string_view blob_;
    std::size_t pos_ = 0;
};

/** FNV-1a 64-bit hash; the sweep fork API keys shared warmup
 *  prefixes by the hash of their pre-knob configuration string. */
std::uint64_t fnv1a(std::string_view s);

/** Write @p blob to @p path (fatal on any I/O error). */
void writeSnapshotFile(const std::string &path,
                       const std::string &blob);

/** Read an entire snapshot file (fatal if absent or unreadable);
 *  header validation happens when a SnapshotReader is built on the
 *  returned bytes. */
std::string readSnapshotFile(const std::string &path);

} // namespace ehpsim

#endif // EHPSIM_SIM_SNAPSHOT_HH
