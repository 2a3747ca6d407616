/**
 * @file
 * Unit tests for the DNUCA bank-set storage structure.
 */

#include <gtest/gtest.h>

#include "nuca/bankset.hh"
#include "sim/rng.hh"

using namespace tlsim;
using namespace tlsim::nuca;

namespace
{

BankSetArray
makeArray()
{
    return BankSetArray(BankSetConfig{});
}

/** Build a block address from (bankset, set, tag). */
Addr
makeAddr(std::uint32_t bank_set, std::uint32_t set, Addr tag)
{
    return bank_set | (Addr(set) << 4) | (tag << 13);
}

} // namespace

TEST(BankSet, CapacityIs16MB)
{
    auto array = makeArray();
    EXPECT_EQ(array.capacityBlocks() * 64, 16u * 1024 * 1024);
}

TEST(BankSet, AddressDecomposition)
{
    auto array = makeArray();
    Addr addr = makeAddr(5, 100, 0x77);
    EXPECT_EQ(array.bankSetOf(addr), 5u);
    EXPECT_EQ(array.setIndexOf(addr), 100u);
    EXPECT_EQ(array.tagOf(addr), 0x77u);
    EXPECT_EQ(array.partialTagOf(addr), 0x37u); // low 6 of 0x77
}

TEST(BankSet, InsertGoesToTailBank)
{
    auto array = makeArray();
    Addr addr = makeAddr(3, 10, 1);
    array.insertAtTail(addr, 1, false);
    auto loc = array.lookup(addr);
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(loc->bank, 15u);
    EXPECT_EQ(loc->bankSet, 3u);
    EXPECT_EQ(loc->setIndex, 10u);
}

TEST(BankSet, LookupMissOnEmpty)
{
    auto array = makeArray();
    EXPECT_FALSE(array.lookup(makeAddr(0, 0, 1)).has_value());
}

TEST(BankSet, PromoteMovesOneCloser)
{
    auto array = makeArray();
    Addr addr = makeAddr(2, 7, 9);
    array.insertAtTail(addr, 1, false);
    auto loc = array.lookup(addr);
    auto new_loc = array.promote(*loc, 2);
    EXPECT_EQ(new_loc.bank, 14u);
    auto found = array.lookup(addr);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->bank, 14u);
}

TEST(BankSet, PromoteSwapsVictim)
{
    auto array = makeArray();
    Addr a = makeAddr(1, 5, 10);
    Addr b = makeAddr(1, 5, 11);
    array.insertAtTail(a, 1, false);
    // Promote a to bank 14.
    array.promote(*array.lookup(a), 2);
    array.insertAtTail(b, 3, false);
    // Fill bank 14's two ways so a swap has a victim... promote b
    // into 14: the LRU way there might hold a.
    array.promote(*array.lookup(b), 4);
    // Both still resident somewhere in the chain.
    EXPECT_TRUE(array.lookup(a).has_value());
    EXPECT_TRUE(array.lookup(b).has_value());
}

TEST(BankSet, PromoteFromHeadPanics)
{
    auto array = makeArray();
    Addr addr = makeAddr(0, 0, 1);
    array.insertAtTail(addr, 1, false);
    auto loc = array.lookup(addr);
    // Walk it all the way to bank 0.
    for (int i = 0; i < 15; ++i)
        loc = array.promote(*loc, 2 + i);
    EXPECT_EQ(loc->bank, 0u);
    EXPECT_THROW(array.promote(*loc, 99), PanicError);
}

TEST(BankSet, TailEvictionLru)
{
    auto array = makeArray();
    Addr a = makeAddr(0, 3, 1);
    Addr b = makeAddr(0, 3, 2);
    Addr c = makeAddr(0, 3, 3);
    array.insertAtTail(a, 1, false);
    array.insertAtTail(b, 2, false);
    auto evicted = array.insertAtTail(c, 3, true);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->blockAddr, a);
    EXPECT_FALSE(array.lookup(a).has_value());
}

TEST(BankSet, EvictionReportsDirty)
{
    auto array = makeArray();
    Addr a = makeAddr(0, 3, 1);
    array.insertAtTail(a, 1, true);
    array.insertAtTail(makeAddr(0, 3, 2), 2, false);
    auto evicted = array.insertAtTail(makeAddr(0, 3, 3), 3, false);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_TRUE(evicted->dirty);
}

TEST(BankSet, PromotedBlocksSurviveTailChurn)
{
    // The scan-resistance property: a promoted block is immune to
    // insertion-driven tail eviction.
    auto array = makeArray();
    Addr hot = makeAddr(0, 9, 100);
    array.insertAtTail(hot, 1, false);
    array.promote(*array.lookup(hot), 2);
    for (Addr t = 0; t < 50; ++t)
        array.insertAtTail(makeAddr(0, 9, 200 + t), 3 + t, false);
    EXPECT_TRUE(array.lookup(hot).has_value());
}

TEST(BankSet, PartialTagCandidatesFindHolder)
{
    auto array = makeArray();
    Addr addr = makeAddr(4, 20, 0x55);
    array.insertAtTail(addr, 1, false);
    SetProbe found = array.probe(addr, 2);
    ASSERT_EQ(found.candidates.size(), 1);
    EXPECT_TRUE(found.candidates.contains(15));
    ASSERT_TRUE(found.holder.has_value());
    EXPECT_EQ(found.holder->bank, 15u);
}

TEST(BankSet, PartialTagFalsePositive)
{
    auto array = makeArray();
    // Two tags sharing the low 6 bits (0x15 and 0x55).
    Addr resident = makeAddr(4, 20, 0x55);
    Addr probe = makeAddr(4, 20, 0x15);
    array.insertAtTail(resident, 1, false);
    SetProbe found = array.probe(probe, 2);
    ASSERT_EQ(found.candidates.size(), 1); // false positive
    EXPECT_FALSE(found.holder.has_value());
    EXPECT_FALSE(array.lookup(probe).has_value());
}

TEST(BankSet, PartialTagExcludesCloseBanks)
{
    auto array = makeArray();
    Addr addr = makeAddr(4, 20, 0x55);
    array.insertAtTail(addr, 1, false);
    auto loc = array.lookup(addr);
    // Promote to bank 1 (a "close" bank).
    while (loc->bank > 1)
        loc = array.promote(*loc, 100 + loc->bank);
    SetProbe found = array.probe(addr, 2);
    EXPECT_TRUE(found.candidates.empty());
    ASSERT_TRUE(found.holder.has_value());
    EXPECT_EQ(found.holder->bank, 1u);
}

TEST(BankSet, BlockAddrRoundTrip)
{
    auto array = makeArray();
    Addr addr = makeAddr(7, 300, 0x1234);
    array.insertAtTail(addr, 1, false);
    auto loc = array.lookup(addr);
    EXPECT_EQ(array.blockAddrAt(*loc), addr);
}

TEST(BankSet, TouchUpdatesDirty)
{
    auto array = makeArray();
    Addr addr = makeAddr(0, 0, 5);
    array.insertAtTail(addr, 1, false);
    auto loc = array.lookup(addr);
    array.touch(*loc, 2, true);
    EXPECT_TRUE(array.frame(*loc).dirty());
}

TEST(BankSet, RandomizedCapacityInvariant)
{
    auto array = makeArray();
    Rng rng(99);
    std::uint64_t counter = 0;
    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.below(1 << 18);
        ++counter;
        auto loc = array.lookup(addr);
        if (loc) {
            array.touch(*loc, counter, false);
            if (loc->bank > 0)
                array.promote(*loc, counter);
        } else {
            array.insertAtTail(addr, counter, false);
        }
    }
    EXPECT_LE(array.validCount(), array.capacityBlocks());
    EXPECT_GT(array.validCount(), 0u);
}

TEST(BankSet, ProbeMatchesLookupAndPartialTagScan)
{
    // One pass must find what a lookup and a separate partial-tag
    // scan of the banks beyond the close ones find, on a busy set
    // full of partial-tag aliases.
    auto array = makeArray();
    Rng rng(7);
    std::uint64_t counter = 0;
    for (int i = 0; i < 4000; ++i) {
        Addr addr = makeAddr(3, 11, rng.below(256));
        ++counter;
        auto loc = array.lookup(addr);
        if (loc && loc->bank > 0)
            array.promote(*loc, counter);
        else if (!loc)
            array.insertAtTail(addr, counter, false);

        Addr probe = makeAddr(3, 11, rng.below(256));
        SetProbe found = array.probe(probe, 2);
        auto holder = array.lookup(probe);
        ASSERT_EQ(found.holder.has_value(), holder.has_value());
        if (holder) {
            EXPECT_EQ(found.holder->bank, holder->bank);
        }
        for (std::uint32_t bank = 0; bank < 16; ++bank) {
            bool match = false;
            for (std::uint32_t way = 0; way < 2; ++way) {
                const mem::LineState &line =
                    array.frame(BankLocation{3, 11, bank, way});
                match |= line.valid() &&
                         (line.tag() & 63) == (probe >> 13 & 63);
            }
            EXPECT_EQ(found.candidates.contains(static_cast<int>(bank)),
                      bank >= 2 && match)
                << "bank " << bank;
        }
    }
}

TEST(BankSet, TagWiderThan62BitsPanics)
{
    BankSetConfig cfg;
    cfg.numBankSets = 1;
    cfg.setsPerBankSet = 1;
    BankSetArray array(cfg);
    // One bank set of one set: the tag is the whole block address.
    EXPECT_THROW(array.insertAtTail(Addr(1) << 62, 1, false), PanicError);
    auto evicted =
        array.insertAtTail(mem::LineState::maxTag, 1, true);
    EXPECT_FALSE(evicted.has_value());
    auto loc = array.lookup(mem::LineState::maxTag);
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(array.blockAddrAt(*loc), mem::LineState::maxTag);
}
