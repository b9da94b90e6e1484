// BoundSketch: the cross-bucket per-vertex bound persistence. The
// contract that keeps the engine decision-preserving: upper bounds it
// returns are witness-path lengths (sound forever), lower bounds are only
// reported at the exact insertion epoch they were measured, and records
// tighten monotonically.
#include "core/bound_sketch.hpp"

#include <gtest/gtest.h>

#include "graph/types.hpp"

namespace gsp {
namespace {

TEST(BoundSketchTest, EmptySketchKnowsNothing) {
    BoundSketch sk;
    sk.reset(8);
    EXPECT_EQ(sk.upper_bound(0, 1), kInfiniteWeight);
    EXPECT_EQ(sk.lower_bound_at(0, 1, 1), 0.0);
}

TEST(BoundSketchTest, ExactRecordServesBothDirectionsOfTheSlot) {
    BoundSketch sk;
    sk.reset(8);
    sk.record_exact(/*src=*/2, /*x=*/5, 3.5, /*epoch=*/4);
    // Queries look at slot(5, keyed 2) and slot(2, keyed 5); only the
    // former was written, and both query orders must find it.
    EXPECT_DOUBLE_EQ(sk.upper_bound(2, 5), 3.5);
    EXPECT_DOUBLE_EQ(sk.upper_bound(5, 2), 3.5);
    EXPECT_DOUBLE_EQ(sk.lower_bound_at(2, 5, 4), 3.5);
    EXPECT_DOUBLE_EQ(sk.lower_bound_at(5, 2, 4), 3.5);
}

TEST(BoundSketchTest, UpperBoundsPersistAcrossEpochs) {
    BoundSketch sk;
    sk.reset(8);
    sk.record_exact(1, 2, 2.0, 3);
    // The spanner grew since: the lower bound is expired...
    EXPECT_EQ(sk.lower_bound_at(1, 2, 7), 0.0);
    // ...but the witness path still exists, so the upper bound stands.
    EXPECT_DOUBLE_EQ(sk.upper_bound(1, 2), 2.0);
}

TEST(BoundSketchTest, MonotoneTightening) {
    BoundSketch sk;
    sk.reset(8);
    sk.record_upper(1, 2, 5.0);
    sk.record_upper(1, 2, 3.0);
    sk.record_upper(1, 2, 4.0);  // looser: ignored
    EXPECT_DOUBLE_EQ(sk.upper_bound(1, 2), 3.0);

    sk.record_far(1, 2, 2.0, 6);
    sk.record_far(1, 2, 2.5, 6);  // same epoch: raises
    EXPECT_DOUBLE_EQ(sk.lower_bound_at(1, 2, 6), 2.5);
    sk.record_far(1, 2, 1.0, 9);  // newer epoch: replaces the tag
    EXPECT_DOUBLE_EQ(sk.lower_bound_at(1, 2, 9), 1.0);
    EXPECT_EQ(sk.lower_bound_at(1, 2, 6), 0.0);  // old tag gone
    // The tightened upper bound survived the lower-bound churn.
    EXPECT_DOUBLE_EQ(sk.upper_bound(1, 2), 3.0);
}

TEST(BoundSketchTest, EvictionIsDeterministicAndForgetsTheLoser) {
    BoundSketch sk;
    sk.reset(16);
    // Sources 1 and 1 + ways map to the same way of vertex 9.
    const VertexId a = 1;
    const auto b = static_cast<VertexId>(1 + BoundSketch::kDefaultWays);
    sk.record_exact(a, 9, 2.0, 1);
    EXPECT_DOUBLE_EQ(sk.upper_bound(a, 9), 2.0);
    sk.record_exact(b, 9, 4.0, 1);
    // b evicted a: a's bound must be *forgotten*, never blended.
    EXPECT_DOUBLE_EQ(sk.upper_bound(b, 9), 4.0);
    EXPECT_EQ(sk.upper_bound(a, 9), kInfiniteWeight);
}

TEST(BoundSketchTest, DistinctWaysCoexist) {
    BoundSketch sk;
    sk.reset(16);
    // ways sources with distinct low bits all land in different ways.
    for (VertexId s = 0; s < BoundSketch::kDefaultWays; ++s) {
        sk.record_exact(s, 10, 1.0 + s, 2);
    }
    for (VertexId s = 0; s < BoundSketch::kDefaultWays; ++s) {
        EXPECT_DOUBLE_EQ(sk.upper_bound(s, 10), 1.0 + s) << "source " << s;
    }
}

TEST(BoundSketchTest, RuntimeAssociativityHoldsMoreSources) {
    // The kWays sweep knob: at `ways` associativity, `ways` sources with
    // distinct low bits coexist per vertex; the next aliasing source
    // evicts. Verify at 2 and 8 (the bench_micro sweep endpoints).
    for (const std::size_t ways : {std::size_t{2}, std::size_t{8}}) {
        BoundSketch sk;
        sk.reset(32, ways);
        EXPECT_EQ(sk.ways(), ways);
        for (VertexId s = 0; s < ways; ++s) sk.record_exact(s, 20, 1.0 + s, 2);
        for (VertexId s = 0; s < ways; ++s) {
            EXPECT_DOUBLE_EQ(sk.upper_bound(s, 20), 1.0 + s)
                << "ways " << ways << " source " << s;
        }
        const auto alias = static_cast<VertexId>(ways);  // low bits == source 0
        sk.record_exact(alias, 20, 9.0, 2);
        EXPECT_DOUBLE_EQ(sk.upper_bound(alias, 20), 9.0);
        EXPECT_EQ(sk.upper_bound(0, 20), kInfiniteWeight) << "ways " << ways;
    }
}

TEST(BoundSketchTest, RejectsNonPowerOfTwoWays) {
    BoundSketch sk;
    EXPECT_THROW(sk.reset(8, 3), std::invalid_argument);
    EXPECT_THROW(sk.reset(8, 0), std::invalid_argument);
}

TEST(BoundSketchTest, ResetClearsEverything) {
    BoundSketch sk;
    sk.reset(8);
    sk.record_exact(1, 2, 2.0, 3);
    sk.reset(8);
    EXPECT_EQ(sk.upper_bound(1, 2), kInfiniteWeight);
    EXPECT_EQ(sk.lower_bound_at(1, 2, 3), 0.0);
}

}  // namespace
}  // namespace gsp
