/**
 * @file
 * Portable binary serialization for checkpoints: a little-endian,
 * versioned, CRC32-checksummed byte format with a typed error on
 * every malformed input. BlobWriter appends primitives and vectors to
 * a byte buffer; BlobReader consumes the same sequence, throwing
 * CheckpointError (never invoking UB) on truncation or corruption.
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

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
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

    /** Stable name for the kind ("truncated", "bad_checksum", ...). */
    static const char *kindName(Kind kind);

  private:
    Kind kind_;
};

/** CRC32 (IEEE 802.3 polynomial, reflected) over @p n bytes. */
std::uint32_t crc32(const void *data, std::size_t n,
                    std::uint32_t seed = 0);

/** Append-only little-endian byte sink. */
class BlobWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { putLe(v, 2); }
    void u32(std::uint32_t v) { putLe(v, 4); }
    void u64(std::uint64_t v) { putLe(v, 8); }
    void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void sz(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }

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

    template <typename T, typename Fn>
    void vec(const std::vector<T> &v, Fn &&writeOne)
    {
        sz(v.size());
        for (const T &x : v)
            writeOne(*this, x);
    }

    void vecU64(const std::vector<std::uint64_t> &v)
    {
        vec(v, [](BlobWriter &w, std::uint64_t x) { w.u64(x); });
    }

    void vecF64(const std::vector<double> &v)
    {
        vec(v, [](BlobWriter &w, double x) { w.f64(x); });
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

    /**
     * Read a length-prefixed vector. @p elemBytes is the minimum
     * serialized footprint of one element, used to reject a length
     * field larger than the remaining input before reserving memory.
     */
    template <typename T, typename Fn>
    std::vector<T> vec(std::size_t elemBytes, Fn &&readOne)
    {
        const std::size_t n = sz();
        if (elemBytes > 0 && n > (size_ - pos_) / elemBytes)
            fail("vector length exceeds remaining bytes");
        std::vector<T> v;
        v.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            v.push_back(readOne(*this));
        return v;
    }

    std::vector<std::uint64_t> vecU64()
    {
        return vec<std::uint64_t>(8,
                                  [](BlobReader &r) { return r.u64(); });
    }

    std::vector<double> vecF64()
    {
        return vec<double>(8, [](BlobReader &r) { return r.f64(); });
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
    static constexpr std::uint32_t kVersion = 1;

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
