#include "sim/snapshot.hh"

#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace ehpsim
{

namespace
{

constexpr char kMagic[8] = {'E', 'H', 'P', 'S', 'N', 'A', 'P', '1'};
constexpr std::uint32_t kVersion = 5;

/** Value type tags; a mismatch means the stream is corrupt or the
 *  writer/reader walks diverged. */
enum Tag : std::uint8_t
{
    tagU8 = 0x01,
    tagU32 = 0x02,
    tagU64 = 0x03,
    tagF64 = 0x05,
    tagString = 0x06,
    tagSection = 0x07,
};

const char *
tagName(std::uint8_t t)
{
    switch (t) {
      case tagU8: return "u8";
      case tagU32: return "u32";
      case tagU64: return "u64";
      case tagF64: return "f64";
      case tagString: return "string";
      case tagSection: return "section";
      default: return "unknown";
    }
}

/** Fixed-width little-endian encode, independent of host order. */
template <typename T>
void
encodeLe(unsigned char *out, T v)
{
    auto u = static_cast<std::uint64_t>(v);
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out[i] = static_cast<unsigned char>((u >> (8 * i)) & 0xff);
}

template <typename T>
T
decodeLe(const unsigned char *in)
{
    std::uint64_t u = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        u |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return static_cast<T>(u);
}

} // anonymous namespace

SnapshotWriter::SnapshotWriter()
{
    buf_.append(kMagic, sizeof(kMagic));
    unsigned char ver[4];
    encodeLe<std::uint32_t>(ver, kVersion);
    buf_.append(reinterpret_cast<const char *>(ver), sizeof(ver));
}

void
SnapshotWriter::raw(const void *p, std::size_t n)
{
    buf_.append(static_cast<const char *>(p), n);
}

void
SnapshotWriter::tagged(std::uint8_t tag, const void *p, std::size_t n)
{
    buf_.push_back(static_cast<char>(tag));
    raw(p, n);
}

void
SnapshotWriter::section(std::string_view name)
{
    buf_.push_back(static_cast<char>(tagSection));
    unsigned char len[4];
    encodeLe<std::uint32_t>(len,
                            static_cast<std::uint32_t>(name.size()));
    raw(len, sizeof(len));
    raw(name.data(), name.size());
}

void
SnapshotWriter::putU8(std::uint8_t v)
{
    tagged(tagU8, &v, 1);
}

void
SnapshotWriter::putU32(std::uint32_t v)
{
    unsigned char b[4];
    encodeLe(b, v);
    tagged(tagU32, b, sizeof(b));
}

void
SnapshotWriter::putU64(std::uint64_t v)
{
    unsigned char b[8];
    encodeLe(b, v);
    tagged(tagU64, b, sizeof(b));
}

void
SnapshotWriter::putF64(double v)
{
    unsigned char b[8];
    encodeLe<std::uint64_t>(b, std::bit_cast<std::uint64_t>(v));
    tagged(tagF64, b, sizeof(b));
}

void
SnapshotWriter::putString(std::string_view v)
{
    buf_.push_back(static_cast<char>(tagString));
    unsigned char len[4];
    encodeLe<std::uint32_t>(len, static_cast<std::uint32_t>(v.size()));
    raw(len, sizeof(len));
    raw(v.data(), v.size());
}

SnapshotReader::SnapshotReader(std::string_view blob) : blob_(blob)
{
    if (blob_.size() < sizeof(kMagic) + 4)
        fatal("snapshot: blob of ", blob_.size(),
              " bytes is too short to hold a header");
    if (std::memcmp(blob_.data(), kMagic, sizeof(kMagic)) != 0)
        fatal("snapshot: bad magic (not an ehpsim checkpoint)");
    pos_ = sizeof(kMagic);
    const auto ver = decodeLe<std::uint32_t>(
        reinterpret_cast<const unsigned char *>(blob_.data() + pos_));
    pos_ += 4;
    if (ver != kVersion)
        fatal("snapshot: format version ", ver, " (this build reads ",
              kVersion, ")");
}

void
SnapshotReader::need(std::size_t n, const char *what)
{
    if (blob_.size() - pos_ < n)
        fatal("snapshot: truncated while reading ", what, " at offset ",
              pos_, " (", blob_.size(), " bytes total)");
}

void
SnapshotReader::tag(std::uint8_t expect, const char *what)
{
    need(1, what);
    const auto got =
        static_cast<std::uint8_t>(blob_[pos_]);
    if (got != expect)
        fatal("snapshot: expected ", tagName(expect), " for ", what,
              " at offset ", pos_, ", found ", tagName(got),
              " — corrupt or mis-ordered checkpoint");
    ++pos_;
}

void
SnapshotReader::section(std::string_view name)
{
    tag(tagSection, "section marker");
    need(4, "section name length");
    const auto len = decodeLe<std::uint32_t>(
        reinterpret_cast<const unsigned char *>(blob_.data() + pos_));
    pos_ += 4;
    need(len, "section name");
    const std::string_view got = blob_.substr(pos_, len);
    pos_ += len;
    if (got != name)
        fatal("snapshot: expected section '", name, "', found '", got,
              "' — checkpoint does not match this simulation's shape");
}

std::uint8_t
SnapshotReader::getU8()
{
    tag(tagU8, "u8");
    need(1, "u8");
    return static_cast<std::uint8_t>(blob_[pos_++]);
}

std::uint32_t
SnapshotReader::getU32()
{
    tag(tagU32, "u32");
    need(4, "u32");
    const auto v = decodeLe<std::uint32_t>(
        reinterpret_cast<const unsigned char *>(blob_.data() + pos_));
    pos_ += 4;
    return v;
}

std::uint64_t
SnapshotReader::getU64()
{
    tag(tagU64, "u64");
    need(8, "u64");
    const auto v = decodeLe<std::uint64_t>(
        reinterpret_cast<const unsigned char *>(blob_.data() + pos_));
    pos_ += 8;
    return v;
}

double
SnapshotReader::getF64()
{
    tag(tagF64, "f64");
    need(8, "f64");
    const auto v = decodeLe<std::uint64_t>(
        reinterpret_cast<const unsigned char *>(blob_.data() + pos_));
    pos_ += 8;
    return std::bit_cast<double>(v);
}

std::string
SnapshotReader::getString()
{
    tag(tagString, "string");
    need(4, "string length");
    const auto len = decodeLe<std::uint32_t>(
        reinterpret_cast<const unsigned char *>(blob_.data() + pos_));
    pos_ += 4;
    need(len, "string payload");
    std::string v(blob_.substr(pos_, len));
    pos_ += len;
    return v;
}

std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

void
writeSnapshotFile(const std::string &path, const std::string &blob)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("snapshot: cannot open '", path, "' for writing");
    out.write(blob.data(),
              static_cast<std::streamsize>(blob.size()));
    if (!out.flush())
        fatal("snapshot: error writing '", path, "'");
}

std::string
readSnapshotFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("snapshot: cannot open '", path, "' for reading");
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad())
        fatal("snapshot: error reading '", path, "'");
    return ss.str();
}

} // namespace ehpsim
