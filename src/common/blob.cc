#include "common/blob.hh"

#include <array>
#include <cstdio>
#include <fstream>

namespace csprint {

const char *
CheckpointError::kindName(Kind kind)
{
    switch (kind) {
    case Kind::BadMagic:
        return "bad_magic";
    case Kind::BadVersion:
        return "bad_version";
    case Kind::BadDigest:
        return "bad_digest";
    case Kind::Truncated:
        return "truncated";
    case Kind::BadChecksum:
        return "bad_checksum";
    case Kind::Corrupt:
        return "corrupt";
    case Kind::Unsupported:
        return "unsupported";
    case Kind::Io:
        return "io";
    case Kind::Invariant:
        return "invariant";
    }
    return "unknown";
}

namespace {

/**
 * Slicing-by-8 tables for the reflected CRC-32 polynomial 0xedb88320:
 * t[0] is the classic bytewise table and t[k][i] is the CRC of byte i
 * followed by k zero bytes, so eight input bytes fold in with eight
 * independent lookups.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n, std::uint32_t seed)
{
    static const CrcTables t = makeCrcTables();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xffffffffu;
    for (; n >= 8; n -= 8, p += 8) {
        // Little-endian assembly, independent of host byte order.
        const std::uint32_t lo = c ^ (std::uint32_t(p[0]) |
                                      std::uint32_t(p[1]) << 8 |
                                      std::uint32_t(p[2]) << 16 |
                                      std::uint32_t(p[3]) << 24);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; n > 0; --n, ++p)
        c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::vector<std::uint8_t>
BlobContainer::seal(std::uint32_t configDigest,
                    std::vector<std::uint8_t> payload)
{
    BlobWriter head;
    head.u32(kMagic);
    head.u32(kVersion);
    head.u32(configDigest);
    head.u64(payload.size());

    const std::uint32_t crc = crc32(payload.data(), payload.size());

    std::vector<std::uint8_t> out = head.take();
    out.insert(out.end(), payload.begin(), payload.end());
    BlobWriter tail;
    tail.u32(crc);
    const auto &t = tail.buffer();
    out.insert(out.end(), t.begin(), t.end());
    return out;
}

BlobReader
BlobContainer::open(const std::vector<std::uint8_t> &blob,
                    std::uint32_t expectConfigDigest)
{
    BlobReader head(blob);
    const std::uint32_t magic = head.u32();
    if (magic != kMagic)
        throw CheckpointError(CheckpointError::Kind::BadMagic,
                              "not a checkpoint blob (bad magic)");
    const std::uint32_t version = head.u32();
    if (version != kVersion)
        throw CheckpointError(
            CheckpointError::Kind::BadVersion,
            "checkpoint format version " + std::to_string(version) +
                " not readable by this build (expect " +
                std::to_string(kVersion) + ")");
    const std::uint32_t digest = head.u32();
    if (digest != expectConfigDigest)
        throw CheckpointError(
            CheckpointError::Kind::BadDigest,
            "checkpoint config digest mismatch: blob was written "
            "under a different scenario configuration");
    const std::uint64_t payloadLen = head.u64();

    const std::size_t headerBytes = head.position();
    constexpr std::size_t kCrcBytes = 4;
    if (payloadLen > blob.size() - headerBytes ||
        blob.size() - headerBytes - payloadLen < kCrcBytes)
        throw CheckpointError(
            CheckpointError::Kind::Truncated,
            "checkpoint truncated: frame declares " +
                std::to_string(payloadLen) + " payload bytes, file has " +
                std::to_string(blob.size() - headerBytes) +
                " after the header");
    if (blob.size() != headerBytes + payloadLen + kCrcBytes)
        throw CheckpointError(
            CheckpointError::Kind::Corrupt,
            "checkpoint has trailing bytes past the CRC footer");

    const std::uint32_t storedCrc =
        BlobReader(blob.data() + headerBytes + payloadLen, kCrcBytes).u32();
    const std::uint32_t actualCrc =
        crc32(blob.data() + headerBytes,
              static_cast<std::size_t>(payloadLen));
    if (storedCrc != actualCrc)
        throw CheckpointError(
            CheckpointError::Kind::BadChecksum,
            "checkpoint payload CRC mismatch (torn write or bit rot)");

    return BlobReader(blob.data() + headerBytes,
                      static_cast<std::size_t>(payloadLen));
}

bool
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(0, std::ios::end);
    const std::streamoff len = in.tellg();
    if (len < 0)
        return false;
    in.seekg(0, std::ios::beg);
    out.resize(static_cast<std::size_t>(len));
    if (len > 0)
        in.read(reinterpret_cast<char *>(out.data()), len);
    return static_cast<bool>(in);
}

void
writeFileAtomic(const std::string &path, const void *data, std::size_t n)
{
    const auto ioError = [](const std::string &what) {
        return CheckpointError(CheckpointError::Kind::Io, what);
    };
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw ioError("cannot open " + tmp + " for writing");
        out.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(n));
        out.flush();
        if (!out)
            throw ioError("short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw ioError("cannot rename " + tmp + " to " + path);
}

} // namespace csprint
