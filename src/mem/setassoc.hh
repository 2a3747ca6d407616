/**
 * @file
 * Generic set-associative tag array with LRU replacement.
 *
 * Used for the L1 caches and for the SNUCA2/TLC L2 banks (the DNUCA
 * bank-set structure in src/nuca builds on the same line state).
 */

#ifndef TLSIM_MEM_SETASSOC_HH
#define TLSIM_MEM_SETASSOC_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tlsim
{
namespace mem
{

/**
 * State of one cache line frame, 16 bytes: the tag, valid and dirty
 * share one word (tag:62 | valid:1 | dirty:1) beside the LRU stamp,
 * so a 4-way set fits in one 64 B host line.
 */
class LineState
{
  public:
    /** Widest tag a frame can hold. */
    static constexpr unsigned tagBits = 62;
    static constexpr Addr maxTag = (Addr(1) << tagBits) - 1;

    Addr tag() const { return word & maxTag; }
    bool valid() const { return (word & validBit) != 0; }
    bool dirty() const { return (word & dirtyBit) != 0; }

    /** True if the frame is valid and holds @p tag. */
    bool
    holds(Addr tag) const
    {
        return (word & ~dirtyBit) == (tag | validBit);
    }

    /** Make the frame a valid copy of @p tag (panics past maxTag). */
    void
    fill(Addr tag, bool dirty)
    {
        TLSIM_ASSERT(tag <= maxTag, "tag {:#x} is wider than {} bits",
                     tag, tagBits);
        word = tag | validBit | (dirty ? dirtyBit : 0);
    }

    void markDirty() { word |= dirtyBit; }

    /** Clear valid; the tag and dirty bits stay as they were. */
    void invalidate() { word &= ~validBit; }

    /** LRU timestamp (monotonic counter supplied by the caller). */
    std::uint64_t lastUse = 0;

  private:
    static constexpr Addr validBit = Addr(1) << 62;
    static constexpr Addr dirtyBit = Addr(1) << 63;

    Addr word = 0;
};

static_assert(sizeof(LineState) == 16);

/** Result of an insertion: the victim, if a valid line was evicted. */
struct Eviction
{
    Addr blockAddr = 0;
    bool dirty = false;
};

/**
 * A set-associative array of tags with true-LRU replacement.
 *
 * The array is indexed by low block-address bits; the caller supplies
 * a monotonically increasing use counter for LRU ordering so multiple
 * arrays can share one logical clock.
 */
class SetAssocArray
{
  public:
    /**
     * @param num_sets Number of sets (power of two).
     * @param ways Associativity.
     */
    SetAssocArray(std::uint32_t num_sets, std::uint32_t ways)
        : numSets(num_sets), numWays(ways),
          lines(static_cast<std::size_t>(num_sets) * ways)
    {
        TLSIM_ASSERT(num_sets > 0 && (num_sets & (num_sets - 1)) == 0,
                     "numSets must be a power of two, got {}", num_sets);
        TLSIM_ASSERT(ways > 0, "ways must be positive");
    }

    std::uint32_t sets() const { return numSets; }
    std::uint32_t ways() const { return numWays; }

    /** Set index for a block address. */
    std::uint32_t
    setIndex(Addr block_addr) const
    {
        return static_cast<std::uint32_t>(block_addr & (numSets - 1));
    }

    /** Tag for a block address. */
    Addr tagOf(Addr block_addr) const { return block_addr >> setShift(); }

    /** Reconstruct the block address of a frame. */
    Addr
    blockAddrOf(std::uint32_t set, std::uint32_t way) const
    {
        const LineState &line = at(set, way);
        return (line.tag() << setShift()) | set;
    }

    /** Find the way holding the block, if present. */
    std::optional<std::uint32_t>
    lookup(Addr block_addr) const
    {
        std::uint32_t set = setIndex(block_addr);
        Addr tag = tagOf(block_addr);
        for (std::uint32_t w = 0; w < numWays; ++w) {
            if (at(set, w).holds(tag))
                return w;
        }
        return std::nullopt;
    }

    /** Update LRU (and optionally dirty) state on a hit. */
    void
    touch(Addr block_addr, std::uint32_t way, std::uint64_t use_counter,
          bool make_dirty = false)
    {
        std::uint32_t set = setIndex(block_addr);
        LineState &line = at(set, way);
        TLSIM_ASSERT(line.holds(tagOf(block_addr)),
                     "touch of non-resident block");
        line.lastUse = use_counter;
        if (make_dirty)
            line.markDirty();
    }

    /**
     * Insert a block, evicting the LRU line of its set if needed.
     * @return The eviction, if a valid line was displaced.
     */
    std::optional<Eviction>
    insert(Addr block_addr, std::uint64_t use_counter, bool dirty)
    {
        std::uint32_t set = setIndex(block_addr);
        std::uint32_t victim = victimWay(set);
        LineState &line = at(set, victim);
        std::optional<Eviction> evicted;
        if (line.valid()) {
            evicted = Eviction{(line.tag() << setShift()) | set,
                               line.dirty()};
        }
        line.fill(tagOf(block_addr), dirty);
        line.lastUse = use_counter;
        return evicted;
    }

    /**
     * Number of valid ways in the block's set whose low @p bits tag
     * bits match the block's partial tag (used by the optimized TLC
     * designs' in-bank partial-tag comparison).
     */
    int
    partialTagMatches(Addr block_addr, int bits) const
    {
        std::uint32_t set = setIndex(block_addr);
        Addr mask = (Addr(1) << bits) - 1;
        Addr ptag = tagOf(block_addr) & mask;
        int matches = 0;
        for (std::uint32_t w = 0; w < numWays; ++w) {
            const LineState &line = at(set, w);
            if (line.valid() && (line.tag() & mask) == ptag)
                ++matches;
        }
        return matches;
    }

    /** Invalidate a block if present; @return true if it was there. */
    bool
    invalidate(Addr block_addr)
    {
        auto way = lookup(block_addr);
        if (!way)
            return false;
        at(setIndex(block_addr), *way).invalidate();
        return true;
    }

    /** The way that insert() would victimize in this set. */
    std::uint32_t
    victimWay(std::uint32_t set) const
    {
        std::uint32_t victim = 0;
        std::uint64_t oldest = ~std::uint64_t(0);
        for (std::uint32_t w = 0; w < numWays; ++w) {
            const LineState &line = at(set, w);
            if (!line.valid())
                return w;
            if (line.lastUse < oldest) {
                oldest = line.lastUse;
                victim = w;
            }
        }
        return victim;
    }

    /** Direct frame access (used by the DNUCA bank-set structure). */
    LineState &
    at(std::uint32_t set, std::uint32_t way)
    {
        return lines[static_cast<std::size_t>(set) * numWays + way];
    }

    const LineState &
    at(std::uint32_t set, std::uint32_t way) const
    {
        return lines[static_cast<std::size_t>(set) * numWays + way];
    }

    /** Count of valid lines (O(n), for tests/stats). */
    std::uint64_t
    validCount() const
    {
        std::uint64_t n = 0;
        for (const auto &line : lines)
            n += line.valid() ? 1 : 0;
        return n;
    }

  private:
    std::uint32_t setShift() const { return __builtin_ctz(numSets); }

    std::uint32_t numSets;
    std::uint32_t numWays;
    std::vector<LineState> lines;
};

} // namespace mem
} // namespace tlsim

#endif // TLSIM_MEM_SETASSOC_HH
