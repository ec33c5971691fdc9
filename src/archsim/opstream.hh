/**
 * @file
 * Operation-stream abstraction: tasks hand the simulator a lazily
 * generated sequence of micro-ops. ChunkedOpStream lets workload
 * kernels generate one natural unit of work at a time (an image row, a
 * batch of points) without storing whole-task traces in memory.
 *
 * Streams expose two pull interfaces: the per-op next() and the bulk
 * fill(), which hands the machine whole runs of ops at once so the
 * simulation hot path never round-trips through a virtual call per op.
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

    /** Produce the next op; false when the stream is exhausted. */
    virtual bool next(MicroOp &op) = 0;

    /**
     * Copy up to @p max ops into @p out and return how many were
     * written. A return of zero means the stream is exhausted — a
     * stream must never return zero while ops remain. The default
     * implementation loops over next(); concrete streams override it
     * to hand out whole chunks per call.
     */
    virtual std::size_t fill(MicroOp *out, std::size_t max);

    /**
     * Bulk variant that may replace @p out's contents entirely
     * (including generating into it directly to avoid the copy);
     * returns how many ops are valid at out[0..n). Zero means
     * exhausted, as for fill(). The default resizes @p out to a
     * batch window and delegates to fill().
     */
    virtual std::size_t fillInto(std::vector<MicroOp> &out);
};

/** A stream backed by a pre-built vector of ops (tests, tiny tasks). */
class VectorOpStream : public OpStream
{
  public:
    explicit VectorOpStream(std::vector<MicroOp> ops);

    bool next(MicroOp &op) override;
    std::size_t fill(MicroOp *out, std::size_t max) override;

  private:
    friend struct CheckpointIO;

    std::vector<MicroOp> ops;
    std::size_t pos = 0;
};

/**
 * A stream generated chunk by chunk: the callback fills a buffer with
 * the ops of chunk @p i (for example one image row); the stream drains
 * the buffer and then requests the next chunk.
 */
class ChunkedOpStream : public OpStream
{
  public:
    /** @param fn rebuilds the buffer for a chunk index. The callback
     *  owns the reset (clear() or resize()): on entry the vector
     *  holds unspecified leftovers from an earlier chunk (under
     *  fillInto() it is the caller's window, so they can come from
     *  another stream), so a fixed-size generator can resize() once
     *  and overwrite in place without paying a re-initialization
     *  per chunk. A callback that neither clears nor writes
     *  re-emits the leftovers — always reset first, even on chunks
     *  that produce no ops. */
    using ChunkFn = std::function<void(std::size_t chunk,
                                       std::vector<MicroOp> &out)>;

    ChunkedOpStream(std::size_t num_chunks, ChunkFn fn);

    bool next(MicroOp &op) override;
    std::size_t fill(MicroOp *out, std::size_t max) override;
    std::size_t fillInto(std::vector<MicroOp> &out) override;

  private:
    friend struct CheckpointIO;

    bool refill();

    std::size_t num_chunks;
    std::size_t next_chunk = 0;
    ChunkFn fn;
    std::vector<MicroOp> buffer;
    std::size_t pos = 0;
};

} // namespace csprint

#endif // CSPRINT_ARCHSIM_OPSTREAM_HH
