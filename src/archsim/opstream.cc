#include "archsim/opstream.hh"

#include <algorithm>

#include "common/logging.hh"

namespace csprint {

namespace {
/** Smallest window VectorOpStream::fillInto() fills. */
constexpr std::size_t kFillWindow = 1024;
} // namespace

VectorOpStream::VectorOpStream(std::vector<MicroOp> ops)
    : ops(std::move(ops))
{
}

std::size_t
VectorOpStream::fillInto(std::vector<MicroOp> &out)
{
    if (out.size() < kFillWindow)
        out.resize(kFillWindow);
    const std::size_t n = std::min(out.size(), ops.size() - pos);
    std::copy_n(ops.data() + pos, n, out.data());
    pos += n;
    return n;
}

ChunkedOpStream::ChunkedOpStream(std::size_t num_chunks, ChunkFn fn)
    : num_chunks(num_chunks), fn(std::move(fn))
{
    SPRINT_ASSERT(this->fn != nullptr, "chunk function required");
}

std::size_t
ChunkedOpStream::fillInto(std::vector<MicroOp> &out)
{
    while (next_chunk < num_chunks) {
        fn(next_chunk++, out);
        if (!out.empty())
            return out.size();
    }
    return 0;
}

} // namespace csprint
