/**
 * @file
 * Unit and property tests for the generic set-associative array.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "mem/setassoc.hh"
#include "mem/warmstate.hh"
#include "sim/rng.hh"

using namespace tlsim;
using namespace tlsim::mem;

TEST(SetAssoc, MissOnEmpty)
{
    SetAssocArray array(16, 2);
    EXPECT_FALSE(array.lookup(0x1234).has_value());
}

TEST(SetAssoc, InsertThenHit)
{
    SetAssocArray array(16, 2);
    array.insert(0x1234, 1, false);
    auto way = array.lookup(0x1234);
    ASSERT_TRUE(way.has_value());
}

TEST(SetAssoc, DistinctSetsDoNotCollide)
{
    SetAssocArray array(16, 1);
    array.insert(0, 1, false);
    array.insert(1, 2, false);
    EXPECT_TRUE(array.lookup(0).has_value());
    EXPECT_TRUE(array.lookup(1).has_value());
}

TEST(SetAssoc, LruEviction)
{
    SetAssocArray array(1, 2); // one set, two ways
    array.insert(0x10, 1, false);
    array.insert(0x20, 2, false);
    auto evicted = array.insert(0x30, 3, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->blockAddr, 0x10u); // oldest goes
    EXPECT_FALSE(array.lookup(0x10).has_value());
    EXPECT_TRUE(array.lookup(0x20).has_value());
    EXPECT_TRUE(array.lookup(0x30).has_value());
}

TEST(SetAssoc, TouchRefreshesLru)
{
    SetAssocArray array(1, 2);
    array.insert(0x10, 1, false);
    array.insert(0x20, 2, false);
    auto way = array.lookup(0x10);
    array.touch(0x10, *way, 3, false);
    auto evicted = array.insert(0x30, 4, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->blockAddr, 0x20u); // 0x10 was refreshed
}

TEST(SetAssoc, DirtyTracking)
{
    SetAssocArray array(1, 1);
    array.insert(0x10, 1, true);
    auto evicted = array.insert(0x20, 2, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_TRUE(evicted->dirty);
    auto evicted2 = array.insert(0x30, 3, false);
    ASSERT_TRUE(evicted2.has_value());
    EXPECT_FALSE(evicted2->dirty);
}

TEST(SetAssoc, TouchMakesDirty)
{
    SetAssocArray array(1, 1);
    array.insert(0x10, 1, false);
    auto way = array.lookup(0x10);
    array.touch(0x10, *way, 2, true);
    auto evicted = array.insert(0x20, 3, false);
    ASSERT_TRUE(evicted->dirty);
}

TEST(SetAssoc, EvictionAddressRoundTrips)
{
    SetAssocArray array(64, 4);
    Addr addr = 0xdeadbe;
    array.insert(addr, 1, false);
    for (int i = 0; i < 4; ++i) {
        // Fill the same set with conflicting blocks.
        array.insert(addr + 64 * (i + 1), 2 + i, false);
    }
    // The original must have been evicted with its full address.
    EXPECT_FALSE(array.lookup(addr).has_value());
}

TEST(SetAssoc, InvalidateRemovesBlock)
{
    SetAssocArray array(16, 2);
    array.insert(0x55, 1, false);
    EXPECT_TRUE(array.invalidate(0x55));
    EXPECT_FALSE(array.lookup(0x55).has_value());
    EXPECT_FALSE(array.invalidate(0x55));
}

TEST(SetAssoc, ValidCount)
{
    SetAssocArray array(16, 2);
    EXPECT_EQ(array.validCount(), 0u);
    array.insert(1, 1, false);
    array.insert(2, 2, false);
    EXPECT_EQ(array.validCount(), 2u);
}

TEST(SetAssoc, PartialTagMatchesCountsWays)
{
    SetAssocArray array(16, 4);
    // Two blocks in set 0 whose tags share the low 6 bits.
    Addr a = 0 | (Addr(0x01) << 4); // tag 0x01
    Addr b = 0 | (Addr(0x41) << 4); // tag 0x41: same low-6 bits
    Addr c = 0 | (Addr(0x02) << 4); // tag 0x02: different
    array.insert(a, 1, false);
    array.insert(b, 2, false);
    array.insert(c, 3, false);
    EXPECT_EQ(array.partialTagMatches(a, 6), 2);
    EXPECT_EQ(array.partialTagMatches(c, 6), 1);
    // Wider partial tags disambiguate.
    EXPECT_EQ(array.partialTagMatches(a, 8), 1);
}

TEST(SetAssoc, VictimPrefersInvalid)
{
    SetAssocArray array(1, 4);
    array.insert(0x10, 10, false);
    EXPECT_NE(array.victimWay(0), 0u); // way 0 is valid, prefer empty
}

TEST(SetAssoc, NonPowerOfTwoSetsPanics)
{
    EXPECT_THROW(SetAssocArray(15, 2), PanicError);
}

TEST(SetAssoc, TouchWrongBlockPanics)
{
    SetAssocArray array(16, 2);
    array.insert(0x10, 1, false);
    EXPECT_THROW(array.touch(0x20, 0, 2, false), PanicError);
}

TEST(LineState, SixteenBytesRoundTripWidestTag)
{
    EXPECT_EQ(sizeof(LineState), 16u);
    LineState line;
    EXPECT_FALSE(line.valid());
    line.fill(LineState::maxTag, true);
    line.lastUse = ~std::uint64_t(0);
    EXPECT_EQ(LineState::maxTag, (Addr(1) << 62) - 1);
    EXPECT_EQ(line.tag(), LineState::maxTag);
    EXPECT_TRUE(line.valid());
    EXPECT_TRUE(line.dirty());
    EXPECT_TRUE(line.holds(LineState::maxTag));
    EXPECT_FALSE(line.holds(LineState::maxTag - 1));
    EXPECT_EQ(line.lastUse, ~std::uint64_t(0));

    // Invalidation clears valid only, as it did with separate fields.
    line.invalidate();
    EXPECT_FALSE(line.valid());
    EXPECT_FALSE(line.holds(LineState::maxTag));
    EXPECT_EQ(line.tag(), LineState::maxTag);
    EXPECT_TRUE(line.dirty());

    line.fill(0, false);
    EXPECT_TRUE(line.holds(0));
    EXPECT_FALSE(line.dirty());
    line.markDirty();
    EXPECT_TRUE(line.holds(0));
    EXPECT_TRUE(line.dirty());
}

TEST(LineState, WidestTagThroughArray)
{
    // One set: the tag is the whole block address.
    SetAssocArray array(1, 1);
    array.insert(LineState::maxTag, 1, true);
    ASSERT_TRUE(array.lookup(LineState::maxTag).has_value());
    EXPECT_EQ(array.blockAddrOf(0, 0), LineState::maxTag);
    auto evicted = array.insert(5, 2, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->blockAddr, LineState::maxTag);
    EXPECT_TRUE(evicted->dirty);
}

TEST(LineState, TagWiderThan62BitsPanics)
{
    SetAssocArray array(1, 2);
    EXPECT_THROW(array.insert(Addr(1) << 62, 1, false), PanicError);
    EXPECT_THROW(array.insert(~Addr(0), 1, true), PanicError);
    LineState line;
    EXPECT_THROW(line.fill(LineState::maxTag + 1, false), PanicError);
}

TEST(LineState, WarmStateRejectsTooWideTag)
{
    SetAssocArray array(1, 1);
    array.insert(LineState::maxTag, 7, true);
    std::ostringstream os;
    warm::writeArray(os, array);
    std::string bytes = os.str();

    SetAssocArray restored(1, 1);
    std::istringstream ok(bytes);
    ASSERT_TRUE(warm::readArray(ok, restored));
    EXPECT_TRUE(restored.lookup(LineState::maxTag).has_value());
    EXPECT_TRUE(restored.at(0, 0).dirty());
    EXPECT_EQ(restored.at(0, 0).lastUse, 7u);

    // Set the tag's bit 62 (byte 7 of the tag, after the 4+4+8-byte
    // header and the 4+4-byte set/way): rejected, not a panic.
    bytes[16 + 8 + 7] = static_cast<char>(bytes[16 + 8 + 7] | 0x40);
    std::istringstream bad(bytes);
    EXPECT_FALSE(warm::readArray(bad, restored));
}

/** Property: capacity is never exceeded and LRU victims are oldest. */
class SetAssocSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                std::uint32_t>>
{};

TEST_P(SetAssocSweep, RandomizedLruInvariant)
{
    auto [sets, ways] = GetParam();
    SetAssocArray array(sets, ways);
    Rng rng(sets * 131 + ways);
    std::uint64_t counter = 0;
    for (int i = 0; i < 5000; ++i) {
        Addr addr = rng.below(sets * ways * 4);
        ++counter;
        auto way = array.lookup(addr);
        if (way) {
            array.touch(addr, *way, counter, false);
        } else {
            array.insert(addr, counter, false);
        }
        EXPECT_LE(array.validCount(),
                  static_cast<std::uint64_t>(sets) * ways);
    }
    EXPECT_GT(array.validCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SetAssocSweep,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(1u, 8u),
                      std::make_pair(16u, 2u), std::make_pair(64u, 4u),
                      std::make_pair(512u, 4u)));
