/**
 * @file
 * Operation-stream abstraction: tasks hand the simulator a lazily
 * generated sequence of micro-ops. ChunkedOpStream lets workload
 * kernels generate one natural unit of work at a time (an image row, a
 * batch of points) without storing whole-task traces in memory.
 *
 * Streams have one pull method, fillInto(), which hands the caller a
 * whole run of ops in a window the caller owns, so the simulation hot
 * path never round-trips through a virtual call per op. A chunked
 * stream generates each chunk straight into that window and keeps no
 * buffer of its own.
 */

#ifndef CSPRINT_ARCHSIM_OPSTREAM_HH
#define CSPRINT_ARCHSIM_OPSTREAM_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "archsim/op.hh"

namespace csprint {

/** A pull-based generator of micro-ops. */
class OpStream
{
  public:
    virtual ~OpStream() = default;

    /**
     * Hand out the next run of ops: the stream may resize or overwrite
     * @p out entirely, and returns how many ops are valid at
     * out[0..n). A return of zero means the stream is exhausted — a
     * stream must never return zero while ops remain.
     */
    virtual std::size_t fillInto(std::vector<MicroOp> &out) = 0;
};

/**
 * A stream backed by a pre-built vector of ops (tests, tiny tasks).
 * fillInto() grows the window to at least 1024 ops and copies as many
 * of the remaining ops as it holds.
 */
class VectorOpStream : public OpStream
{
  public:
    explicit VectorOpStream(std::vector<MicroOp> ops);

    std::size_t fillInto(std::vector<MicroOp> &out) override;

  private:
    friend struct CheckpointIO;

    std::vector<MicroOp> ops;
    std::size_t pos = 0;
};

/**
 * A stream generated chunk by chunk: each fillInto() has the callback
 * write the ops of the next non-empty chunk (for example one image
 * row) into the caller's window.
 */
class ChunkedOpStream : public OpStream
{
  public:
    /** @param fn writes the ops of chunk @p chunk into @p out, which
     *  is the caller's window: on entry it holds unspecified
     *  leftovers (an earlier chunk, or another stream's ops). The
     *  callback owns the reset (clear() or resize()), so a fixed-size
     *  generator can resize() once and overwrite in place without
     *  paying a re-initialization per chunk. A callback that neither
     *  clears nor writes re-emits the leftovers — always reset first,
     *  even on chunks that produce no ops. */
    using ChunkFn = std::function<void(std::size_t chunk,
                                       std::vector<MicroOp> &out)>;

    ChunkedOpStream(std::size_t num_chunks, ChunkFn fn);

    std::size_t fillInto(std::vector<MicroOp> &out) override;

  private:
    friend struct CheckpointIO;

    std::size_t num_chunks;
    std::size_t next_chunk = 0;
    ChunkFn fn;
};

} // namespace csprint

#endif // CSPRINT_ARCHSIM_OPSTREAM_HH
