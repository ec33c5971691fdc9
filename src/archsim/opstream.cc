#include "archsim/opstream.hh"

#include <algorithm>

#include "common/logging.hh"

namespace csprint {

std::size_t
OpStream::fill(MicroOp *out, std::size_t max)
{
    std::size_t n = 0;
    while (n < max && next(out[n]))
        ++n;
    return n;
}

namespace {
/** Default window for fillInto() when the caller's buffer is tiny. */
constexpr std::size_t kFillWindow = 1024;
} // namespace

std::size_t
OpStream::fillInto(std::vector<MicroOp> &out)
{
    if (out.size() < kFillWindow)
        out.resize(kFillWindow);
    return fill(out.data(), out.size());
}

VectorOpStream::VectorOpStream(std::vector<MicroOp> ops)
    : ops(std::move(ops))
{
}

bool
VectorOpStream::next(MicroOp &op)
{
    if (pos >= ops.size())
        return false;
    op = ops[pos++];
    return true;
}

std::size_t
VectorOpStream::fill(MicroOp *out, std::size_t max)
{
    const std::size_t n = std::min(max, ops.size() - pos);
    std::copy_n(ops.data() + pos, n, out);
    pos += n;
    return n;
}

ChunkedOpStream::ChunkedOpStream(std::size_t num_chunks, ChunkFn fn)
    : num_chunks(num_chunks), fn(std::move(fn))
{
    SPRINT_ASSERT(this->fn != nullptr, "chunk function required");
}

bool
ChunkedOpStream::refill()
{
    while (next_chunk < num_chunks) {
        pos = 0;
        fn(next_chunk++, buffer);
        if (!buffer.empty())
            return true;
    }
    return false;
}

bool
ChunkedOpStream::next(MicroOp &op)
{
    if (pos >= buffer.size() && !refill())
        return false;
    op = buffer[pos++];
    return true;
}

std::size_t
ChunkedOpStream::fill(MicroOp *out, std::size_t max)
{
    if (pos >= buffer.size() && !refill())
        return 0;
    const std::size_t n = std::min(max, buffer.size() - pos);
    std::copy_n(buffer.data() + pos, n, out);
    pos += n;
    return n;
}

std::size_t
ChunkedOpStream::fillInto(std::vector<MicroOp> &out)
{
    if (pos >= buffer.size()) {
        // Drained: generate the next chunk straight into the caller's
        // window, whose capacity outlives this stream, and leave the
        // own buffer drained.
        while (next_chunk < num_chunks) {
            fn(next_chunk++, out);
            if (!out.empty())
                return out.size();
        }
        return 0;
    }
    const std::size_t n = buffer.size() - pos;
    if (out.size() < n)
        out.resize(n);
    std::copy_n(buffer.data() + pos, n, out.data());
    pos = buffer.size();
    return n;
}

} // namespace csprint
