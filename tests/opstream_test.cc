/**
 * @file
 * Tests for the op-stream abstraction and the MicroOp helpers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "archsim/op.hh"
#include "archsim/opstream.hh"
#include "archsim/program.hh"

namespace csprint {
namespace {

TEST(MicroOp, FactoryHelpers)
{
    EXPECT_EQ(MicroOp::intAlu().kind(), OpKind::IntAlu);
    EXPECT_EQ(MicroOp::fpAlu().kind(), OpKind::FpAlu);
    EXPECT_EQ(MicroOp::branch().kind(), OpKind::Branch);
    EXPECT_EQ(MicroOp::pause().kind(), OpKind::Pause);
    EXPECT_EQ(MicroOp::load(0x1234).kind(), OpKind::Load);
    EXPECT_EQ(MicroOp::load(0x1234).addr(), 0x1234u);
    EXPECT_EQ(MicroOp::store(0x99).addr(), 0x99u);
    EXPECT_EQ(MicroOp::lockAcquire(3).addr(), 3u);
    EXPECT_EQ(MicroOp::lockRelease(3).kind(), OpKind::LockRelease);
}

/** Every op @p s hands out through fillInto(), in order. */
std::vector<std::uint64_t>
drain(OpStream &s, std::vector<MicroOp> &window)
{
    std::vector<std::uint64_t> got;
    while (const std::size_t n = s.fillInto(window)) {
        EXPECT_GE(window.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            got.push_back(window[i].bits);
    }
    return got;
}

std::vector<std::uint64_t>
drain(OpStream &s)
{
    std::vector<MicroOp> window;
    return drain(s, window);
}

TEST(VectorOpStream, DrainsInOrder)
{
    VectorOpStream s({MicroOp::intAlu(), MicroOp::load(64),
                      MicroOp::store(128)});
    std::vector<MicroOp> window;
    EXPECT_EQ(drain(s, window),
              (std::vector<std::uint64_t>{MicroOp::intAlu().bits,
                                          MicroOp::load(64).bits,
                                          MicroOp::store(128).bits}));
    EXPECT_EQ(s.fillInto(window), 0u);  // stays exhausted
}

TEST(VectorOpStream, EmptyIsImmediatelyExhausted)
{
    VectorOpStream s({});
    std::vector<MicroOp> window;
    EXPECT_EQ(s.fillInto(window), 0u);
}

TEST(VectorOpStream, FillsWindowsOfAtLeast1024Ops)
{
    // The window grows to 1024 ops and never shrinks: a small window
    // is filled 1024 at a time, a larger one (left by a chunked
    // stream) to its own size. These are the machine's op windows,
    // whose pending part a checkpoint stores.
    std::vector<MicroOp> ref;
    for (int i = 0; i < 2500; ++i)
        ref.push_back(MicroOp::load(64 * i));
    VectorOpStream s(ref);
    std::vector<MicroOp> window(3, MicroOp::intAlu());
    EXPECT_EQ(s.fillInto(window), 1024u);
    EXPECT_EQ(window.size(), 1024u);
    window.resize(1300);
    EXPECT_EQ(s.fillInto(window), 1300u);
    EXPECT_EQ(s.fillInto(window), 2500u - 1024u - 1300u);
    EXPECT_EQ(s.fillInto(window), 0u);

    VectorOpStream again(ref);
    std::vector<std::uint64_t> want;
    for (const MicroOp &op : ref)
        want.push_back(op.bits);
    EXPECT_EQ(drain(again), want);
}

TEST(ChunkedOpStream, GeneratesAllChunks)
{
    ChunkedOpStream s(4, [](std::size_t chunk,
                            std::vector<MicroOp> &out) {
        out.clear();
        for (std::size_t i = 0; i <= chunk; ++i)
            out.push_back(MicroOp::load(chunk * 100 + i));
    });
    const std::vector<std::uint64_t> got = drain(s);
    ASSERT_EQ(got.size(), 1u + 2u + 3u + 4u);
    EXPECT_EQ(got.back(), MicroOp::load(303).bits);
}

TEST(ChunkedOpStream, SkipsEmptyChunks)
{
    // Chunks 0 and 2 are empty; the stream must not emit garbage or
    // terminate early.
    ChunkedOpStream s(4, [](std::size_t chunk,
                            std::vector<MicroOp> &out) {
        out.clear();
        if (chunk % 2 == 1)
            out.push_back(MicroOp::intAlu());
    });
    EXPECT_EQ(drain(s).size(), 2u);
}

TEST(ChunkedOpStream, AllChunksEmpty)
{
    ChunkedOpStream s(8, [](std::size_t, std::vector<MicroOp> &out) {
        out.clear();
    });
    std::vector<MicroOp> window(5, MicroOp::intAlu());
    EXPECT_EQ(s.fillInto(window), 0u);
}

TEST(ChunkedOpStream, ZeroChunks)
{
    ChunkedOpStream s(0, [](std::size_t, std::vector<MicroOp> &out) {
        out.clear();
        out.push_back(MicroOp::intAlu());
    });
    std::vector<MicroOp> window;
    EXPECT_EQ(s.fillInto(window), 0u);
}

TEST(ChunkedOpStream, HandsOutWholeChunks)
{
    ChunkedOpStream s(
        3, [](std::size_t chunk, std::vector<MicroOp> &out) {
            out.clear();
            for (std::size_t i = 0; i < 5 + chunk; ++i)
                out.push_back(MicroOp::load(chunk * 1000 + i));
        });
    std::vector<MicroOp> window;
    for (std::size_t chunk = 0; chunk < 3; ++chunk) {
        ASSERT_EQ(s.fillInto(window), 5 + chunk);
        EXPECT_EQ(window[0].addr(), chunk * 1000);
    }
    EXPECT_EQ(s.fillInto(window), 0u);
}

TEST(ChunkedOpStream, IgnoresTheWindowsLeftovers)
{
    // Chunk sizes 0..6 (empty chunks included) of distinct ops, and a
    // callback that resets only by resize() and overwrite, so a
    // leftover anywhere in the window would show.
    auto make = [] {
        return ChunkedOpStream(
            12, [](std::size_t chunk, std::vector<MicroOp> &out) {
                out.resize((chunk * 5) % 7);
                for (std::size_t i = 0; i < out.size(); ++i)
                    out[i] = MicroOp::store(chunk * 1000 + 8 * i);
            });
    };
    std::vector<std::uint64_t> want;
    for (std::size_t chunk = 0; chunk < 12; ++chunk) {
        for (std::size_t i = 0; i < (chunk * 5) % 7; ++i)
            want.push_back(MicroOp::store(chunk * 1000 + 8 * i).bits);
    }
    ASSERT_GT(want.size(), 30u);

    // From an empty window, and from one that starts out holding
    // another stream's ops.
    ChunkedOpStream fresh = make();
    EXPECT_EQ(drain(fresh), want);
    ChunkedOpStream s = make();
    std::vector<MicroOp> window(40, MicroOp::load(0xdead));
    EXPECT_EQ(drain(s, window), want);
    EXPECT_EQ(s.fillInto(window), 0u);  // stays exhausted
}

TEST(AddressAllocator, DisjointLineAlignedRanges)
{
    AddressAllocator alloc;
    const std::uint64_t a = alloc.alloc(100);
    const std::uint64_t b = alloc.alloc(1);
    const std::uint64_t c = alloc.alloc(4096);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_EQ(c % 64, 0u);
    // No overlap, and at least one guard line between buffers.
    EXPECT_GE(b, a + 100);
    EXPECT_GE(b - (a + 100), 0u);
    EXPECT_GE(c, b + 1);
    EXPECT_NE(a / 64, b / 64);  // never share a cache line
    EXPECT_NE(b / 64, c / 64);
}

TEST(OpKindNames, AllDistinct)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < kNumOpKinds; ++i)
        names.insert(opKindName(static_cast<OpKind>(i)));
    EXPECT_EQ(names.size(), kNumOpKinds);
}

} // namespace
} // namespace csprint
