/**
 * @file
 * Portable binary serialization for checkpoints: a little-endian,
 * versioned, CRC32-checksummed byte format with a typed error on
 * every malformed input.
 *
 * Every record's byte layout is written once, as a transfer function
 * templated on the archive: `template <typename Ar> void
 * transfer(Ar &a, Io<Ar, T> x)` calls one verb per field in wire
 * order (`a.u64(x.count)`, `a.f64(x.mean)`, ...). BlobWriter's verbs
 * append the field; BlobReader's verbs overwrite it, throwing
 * CheckpointError (never invoking UB) on truncation or corruption.
 * `Ar::kReading` lets read-side checks and rebuilds sit under
 * `if constexpr`, so validation costs nothing when writing. Two verbs
 * check as they read: narrowInt() carries an int as an i64 and
 * rejects what an int cannot hold, and enumAs<Wire>() carries an enum
 * as a Wire integer and rejects values past the enum's last
 * enumerator.
 *
 * Container layout (all little-endian):
 *
 *   u32 magic  ("CSCK")
 *   u32 format version
 *   u32 config digest (CRC32 over a canonical config dump)
 *   u64 payload length
 *   ...payload bytes...
 *   u32 CRC32 over the payload
 *
 * Doubles are bit-preserved via their IEEE-754 u64 image, so a
 * round-trip is byte-exact, NaN payloads and signed zeros included.
 */

#ifndef CSPRINT_COMMON_BLOB_HH
#define CSPRINT_COMMON_BLOB_HH

#include <climits>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace csprint {

/** Typed failure raised by checkpoint load/validation paths. */
class CheckpointError : public std::runtime_error
{
  public:
    enum class Kind
    {
        BadMagic,    ///< not a checkpoint blob at all
        BadVersion,  ///< format version this build cannot read
        BadDigest,   ///< checkpoint from a different configuration
        Truncated,   ///< ran out of bytes mid-record
        BadChecksum, ///< payload CRC mismatch (bit rot / torn write)
        Corrupt,     ///< structurally invalid contents
        Unsupported, ///< state the serializer cannot capture
        Io,          ///< filesystem-level failure
        Invariant,   ///< paranoia-mode validation failure
    };

    CheckpointError(Kind kind, const std::string &what)
        : std::runtime_error(what), kind_(kind)
    {
    }

    Kind kind() const { return kind_; }

  private:
    Kind kind_;
};

/** CRC32 (IEEE 802.3 polynomial, reflected) over @p n bytes. */
std::uint32_t crc32(const void *data, std::size_t n,
                    std::uint32_t seed = 0);

/**
 * The reference a transfer function takes its record by: const when
 * the archive writes, mutable when it reads.
 */
template <typename Archive, typename T>
using Io = std::conditional_t<Archive::kReading, T &, const T &>;

// Transfer functions move size_t fields with the u64 verbs.
static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "the checkpoint codec assumes a 64-bit size_t");

/** Append-only little-endian byte sink. */
class BlobWriter
{
  public:
    static constexpr bool kReading = false;

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { putLe(v, 2); }
    void u32(std::uint32_t v) { putLe(v, 4); }
    void u64(std::uint64_t v) { putLe(v, 8); }
    void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void sz(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }

    /** An int, as an i64 (BlobReader::narrowInt checks the range). */
    void narrowInt(int v, const char *) { i64(v); }

    /** Enum @p v as a Wire integer; @p last bounds it on the read side. */
    template <typename Wire, typename E>
    void enumAs(E v, E, const char *)
    {
        putLe(static_cast<std::uint64_t>(static_cast<Wire>(v)),
              sizeof(Wire));
    }

    void f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void str(const std::string &s)
    {
        sz(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    /** Length-prefixed vector; @p one(*this, x) writes each element. */
    template <typename T, typename Fn>
    void vec(const std::vector<T> &v, std::size_t, Fn &&one)
    {
        sz(v.size());
        for (const T &x : v)
            one(*this, x);
    }

    void vecU64(const std::vector<std::uint64_t> &v)
    {
        vec(v, 8, [](BlobWriter &w, std::uint64_t x) { w.u64(x); });
    }

    void vecF64(const std::vector<double> &v)
    {
        vec(v, 8, [](BlobWriter &w, double x) { w.f64(x); });
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    void putLe(std::uint64_t v, int nbytes)
    {
        std::uint8_t le[8];
        for (int i = 0; i < nbytes; ++i)
            le[i] = static_cast<std::uint8_t>(v >> (8 * i));
        buf_.insert(buf_.end(), le, le + nbytes);
    }

    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked little-endian byte source. Every read throws
 * CheckpointError::Truncated rather than walking off the buffer, and
 * vector lengths are validated against the bytes remaining before any
 * allocation so a fuzzed length field cannot trigger OOM.
 */
class BlobReader
{
  public:
    static constexpr bool kReading = true;

    BlobReader(const std::uint8_t *data, std::size_t n)
        : data_(data), size_(n)
    {
    }

    explicit BlobReader(const std::vector<std::uint8_t> &buf)
        : BlobReader(buf.data(), buf.size())
    {
    }

    std::uint8_t u8() { return static_cast<std::uint8_t>(getLe(1)); }
    std::uint16_t u16() { return static_cast<std::uint16_t>(getLe(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(getLe(4)); }
    std::uint64_t u64() { return getLe(8); }
    std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool boolean() { return u8() != 0; }

    std::size_t sz()
    {
        const std::uint64_t v = u64();
        if (v > size_ - pos_)
            fail("size field exceeds remaining bytes");
        return static_cast<std::size_t>(v);
    }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string str()
    {
        const std::size_t n = sz();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    void bytes(void *out, std::size_t n)
    {
        need(n);
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    // Transfer verbs: overwrite the field with the next value.
    void u8(std::uint8_t &v) { v = u8(); }
    void u16(std::uint16_t &v) { v = u16(); }
    void u32(std::uint32_t &v) { v = u32(); }
    void u64(std::uint64_t &v) { v = u64(); }
    void i16(std::int16_t &v) { v = i16(); }
    void i64(std::int64_t &v) { v = i64(); }
    void boolean(bool &v) { v = boolean(); }
    void sz(std::size_t &v) { v = sz(); }
    void f64(double &v) { v = f64(); }
    void str(std::string &v) { v = str(); }

    /** An int carried as an i64; Corrupt when an int cannot hold it. */
    void narrowInt(int &v, const char *what)
    {
        const std::int64_t x = i64();
        if (x < INT_MIN || x > INT_MAX)
            corrupt(std::string(what) + " " + std::to_string(x) +
                    " is outside the int range");
        v = static_cast<int>(x);
    }

    /** Enum carried as a Wire integer; Corrupt past @p last. */
    template <typename Wire, typename E>
    void enumAs(E &v, E last, const char *what)
    {
        const auto x = static_cast<std::int64_t>(
            static_cast<Wire>(getLe(sizeof(Wire))));
        if (x < 0 || x > static_cast<std::int64_t>(last))
            corrupt(std::string(what) + " value " + std::to_string(x) +
                    " out of range");
        v = static_cast<E>(x);
    }

    /**
     * Read a length-prefixed vector into @p v, calling
     * @p one(*this, element) for each. @p elemBytes is the minimum
     * serialized footprint of one element, used to reject a length
     * field larger than the remaining input before reserving memory.
     */
    template <typename T, typename Fn>
    void vec(std::vector<T> &v, std::size_t elemBytes, Fn &&one)
    {
        const std::size_t n = sz();
        if (elemBytes > 0 && n > (size_ - pos_) / elemBytes)
            fail("vector length exceeds remaining bytes");
        v.clear();
        v.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            v.emplace_back();
            one(*this, v.back());
        }
    }

    void vecU64(std::vector<std::uint64_t> &v)
    {
        vec(v, 8, [](BlobReader &r, std::uint64_t &x) { r.u64(x); });
    }

    void vecF64(std::vector<double> &v)
    {
        vec(v, 8, [](BlobReader &r, double &x) { r.f64(x); });
    }

    std::size_t remaining() const { return size_ - pos_; }
    std::size_t position() const { return pos_; }

    /** Throw Corrupt unless the whole buffer was consumed. */
    void expectEnd() const
    {
        if (pos_ != size_)
            throw CheckpointError(
                CheckpointError::Kind::Corrupt,
                "checkpoint payload has " +
                    std::to_string(size_ - pos_) +
                    " trailing bytes past the last record");
    }

  private:
    void need(std::size_t n) const
    {
        if (n > size_ - pos_)
            throw CheckpointError(
                CheckpointError::Kind::Truncated,
                "checkpoint truncated: need " + std::to_string(n) +
                    " bytes at offset " + std::to_string(pos_) +
                    ", have " + std::to_string(size_ - pos_));
    }

    [[noreturn]] static void corrupt(const std::string &what)
    {
        throw CheckpointError(CheckpointError::Kind::Corrupt, what);
    }

    [[noreturn]] void fail(const char *msg) const
    {
        throw CheckpointError(CheckpointError::Kind::Truncated,
                              std::string(msg) + " at offset " +
                                  std::to_string(pos_));
    }

    std::uint64_t getLe(int nbytes)
    {
        need(static_cast<std::size_t>(nbytes));
        std::uint64_t v = 0;
        for (int i = 0; i < nbytes; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += static_cast<std::size_t>(nbytes);
        return v;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/**
 * Read the whole file at @p path into @p out. Returns false (never
 * throws) when the file cannot be opened or read.
 */
bool readFileBytes(const std::string &path, std::vector<std::uint8_t> &out);

/**
 * Publish @p n bytes as @p path: write `path.tmp`, then rename(2) it
 * over @p path, so a reader sees the old contents or the new ones,
 * never a torn file. Nothing is fsynced, so this survives process
 * death but not power loss. Throws CheckpointError with Kind::Io.
 */
void writeFileAtomic(const std::string &path, const void *data,
                     std::size_t n);

/** Container framing shared by every checkpoint blob. */
struct BlobContainer
{
    static constexpr std::uint32_t kMagic = 0x4b435343u; // "CSCK"
    static constexpr std::uint32_t kVersion = 5;

    /** Wrap @p payload in the magic/version/digest/CRC frame. */
    static std::vector<std::uint8_t>
    seal(std::uint32_t configDigest, std::vector<std::uint8_t> payload);

    /**
     * Validate the frame of @p blob and return a reader positioned at
     * the payload. Throws CheckpointError on a bad magic, unreadable
     * version, digest mismatch, truncation, trailing garbage, or CRC
     * mismatch.
     */
    static BlobReader open(const std::vector<std::uint8_t> &blob,
                           std::uint32_t expectConfigDigest);
};

} // namespace csprint

#endif // CSPRINT_COMMON_BLOB_HH
