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

TEST(VectorOpStream, DrainsInOrder)
{
    VectorOpStream s({MicroOp::intAlu(), MicroOp::load(64),
                      MicroOp::store(128)});
    MicroOp op;
    ASSERT_TRUE(s.next(op));
    EXPECT_EQ(op.kind(), OpKind::IntAlu);
    ASSERT_TRUE(s.next(op));
    EXPECT_EQ(op.addr(), 64u);
    ASSERT_TRUE(s.next(op));
    EXPECT_EQ(op.addr(), 128u);
    EXPECT_FALSE(s.next(op));
    EXPECT_FALSE(s.next(op));  // stays exhausted
}

TEST(VectorOpStream, EmptyIsImmediatelyExhausted)
{
    VectorOpStream s({});
    MicroOp op;
    EXPECT_FALSE(s.next(op));
}

TEST(ChunkedOpStream, GeneratesAllChunks)
{
    ChunkedOpStream s(4, [](std::size_t chunk,
                            std::vector<MicroOp> &out) {
        out.clear();
        for (std::size_t i = 0; i <= chunk; ++i)
            out.push_back(MicroOp::load(chunk * 100 + i));
    });
    MicroOp op;
    std::size_t count = 0;
    std::uint64_t last = 0;
    while (s.next(op)) {
        ++count;
        last = op.addr();
    }
    EXPECT_EQ(count, 1u + 2u + 3u + 4u);
    EXPECT_EQ(last, 303u);
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
    MicroOp op;
    std::size_t count = 0;
    while (s.next(op))
        ++count;
    EXPECT_EQ(count, 2u);
}

TEST(ChunkedOpStream, AllChunksEmpty)
{
    ChunkedOpStream s(8, [](std::size_t, std::vector<MicroOp> &) {});
    MicroOp op;
    EXPECT_FALSE(s.next(op));
}

TEST(ChunkedOpStream, ZeroChunks)
{
    ChunkedOpStream s(0, [](std::size_t, std::vector<MicroOp> &out) {
        out.clear();
        out.push_back(MicroOp::intAlu());
    });
    MicroOp op;
    EXPECT_FALSE(s.next(op));
}

TEST(OpStreamFill, VectorBulkMatchesNextOrder)
{
    std::vector<MicroOp> ref;
    for (int i = 0; i < 257; ++i)
        ref.push_back(MicroOp::load(64 * i));
    VectorOpStream a(ref);
    VectorOpStream b(ref);
    std::vector<MicroOp> got;
    MicroOp buf[100];
    std::size_t n;
    while ((n = a.fill(buf, 100)) > 0)
        got.insert(got.end(), buf, buf + n);
    ASSERT_EQ(got.size(), ref.size());
    MicroOp op;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_TRUE(b.next(op));
        EXPECT_EQ(got[i].bits, op.bits);
    }
    EXPECT_FALSE(b.next(op));
    EXPECT_EQ(a.fill(buf, 100), 0u);  // stays exhausted
}

TEST(OpStreamFill, ChunkedBulkHandsOutWholeChunks)
{
    auto make = [] {
        return ChunkedOpStream(
            3, [](std::size_t chunk, std::vector<MicroOp> &out) {
                out.clear();
                for (std::size_t i = 0; i < 5 + chunk; ++i)
                    out.push_back(MicroOp::load(chunk * 1000 + i));
            });
    };
    // fill() never returns zero while ops remain, and preserves order.
    ChunkedOpStream s = make();
    ChunkedOpStream r = make();
    MicroOp buf[4];
    std::vector<MicroOp> got;
    std::size_t n;
    while ((n = s.fill(buf, 4)) > 0)
        got.insert(got.end(), buf, buf + n);
    MicroOp op;
    std::size_t i = 0;
    while (r.next(op)) {
        ASSERT_LT(i, got.size());
        EXPECT_EQ(got[i++].bits, op.bits);
    }
    EXPECT_EQ(i, got.size());

    // fillInto() hands over whole chunks (possibly generated
    // straight into the caller's window) and reports exhaustion
    // with zero.
    ChunkedOpStream s2 = make();
    std::vector<MicroOp> window;
    std::size_t total = 0;
    while ((n = s2.fillInto(window)) > 0) {
        ASSERT_GE(window.size(), n);
        total += n;
    }
    EXPECT_EQ(total, 5u + 6u + 7u);
}

TEST(OpStreamFill, ChunkedFillIntoServesTheOpsOfNext)
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
    ChunkedOpStream ref = make();
    MicroOp op;
    while (ref.next(op))
        want.push_back(op.bits);
    ASSERT_GT(want.size(), 30u);

    // Serve every op through fillInto(), from a window that starts out
    // holding another stream's ops; then again after a few next()
    // calls, so the first fillInto() copies the own buffer's
    // remainder and the rest generate into the window; then
    // alternating next() with fillInto().
    for (int skip : {0, 2, -1}) {
        SCOPED_TRACE(skip);
        ChunkedOpStream s = make();
        std::vector<MicroOp> window(40, MicroOp::load(0xdead));
        std::vector<std::uint64_t> got;
        for (int i = 0; i < skip && s.next(op); ++i)
            got.push_back(op.bits);
        for (int round = 0;; ++round) {
            if (skip < 0 && round % 2 == 1) {
                if (!s.next(op))
                    break;
                got.push_back(op.bits);
                continue;
            }
            const std::size_t n = s.fillInto(window);
            if (n == 0)
                break;
            ASSERT_GE(window.size(), n);
            for (std::size_t i = 0; i < n; ++i)
                got.push_back(window[i].bits);
        }
        EXPECT_EQ(got, want);
        EXPECT_EQ(s.fillInto(window), 0u);  // stays exhausted
        EXPECT_FALSE(s.next(op));
    }
}

TEST(OpStreamFill, DefaultFillIntoUsesNext)
{
    // A stream that only implements next() still works through the
    // bulk interface.
    class CountingStream : public OpStream
    {
      public:
        bool next(MicroOp &op) override
        {
            if (left == 0)
                return false;
            --left;
            op = MicroOp::intAlu();
            return true;
        }
        int left = 10;
    };
    CountingStream s;
    std::vector<MicroOp> window;
    EXPECT_EQ(s.fillInto(window), 10u);
    EXPECT_EQ(s.fillInto(window), 0u);
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
