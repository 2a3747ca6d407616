/**
 * @file
 * The DNUCA bank-set storage structure.
 *
 * A DNUCA cache groups its banks into bank sets: a block address maps
 * to one bank set and may reside in any bank of that set (each bank
 * contributing its internal ways to the set's total associativity).
 * Banks within a set are ordered by distance from the controller;
 * blocks are inserted at the farthest (tail) bank and migrate one
 * bank closer on each hit (generational promotion).
 *
 * A 6-bit partial tag view of the whole structure supports the
 * controller's "smart search": it names which non-close banks could
 * possibly hold a block, enabling fast misses.
 */

#ifndef TLSIM_NUCA_BANKSET_HH
#define TLSIM_NUCA_BANKSET_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/setassoc.hh"
#include "noc/rowset.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tlsim
{
namespace nuca
{

/** Where a block lives inside the bank-set structure. */
struct BankLocation
{
    std::uint32_t bankSet; // which bank set (mesh column)
    std::uint32_t setIndex; // set within the bank set
    std::uint32_t bank; // bank within the set (mesh row; 0 = closest)
    std::uint32_t way; // way within the bank
};

/** What one pass over a block's set finds (BankSetArray::probe). */
struct SetProbe
{
    /** Where the block lives, if resident. */
    std::optional<BankLocation> holder;
    /**
     * Banks beyond the close ones whose partial tags match: the
     * controller's smart-search candidates, the holder included when
     * it lies beyond them.
     */
    noc::RowSet candidates;
};

/** Geometry of the bank-set structure. */
struct BankSetConfig
{
    std::uint32_t numBankSets = 16;
    std::uint32_t banksPerSet = 16;
    std::uint32_t setsPerBankSet = 512;
    std::uint32_t waysPerBank = 2;
    int partialTagBits = 6;
};

/**
 * Tag state for an entire DNUCA cache (all bank sets).
 */
class BankSetArray
{
  public:
    explicit BankSetArray(const BankSetConfig &config);

    const BankSetConfig &config() const { return cfg; }

    /** Total capacity in blocks. */
    std::uint64_t
    capacityBlocks() const
    {
        return static_cast<std::uint64_t>(cfg.numBankSets) *
               cfg.setsPerBankSet * cfg.banksPerSet * cfg.waysPerBank;
    }

    /** Bank set a block address maps to. */
    std::uint32_t
    bankSetOf(Addr block_addr) const
    {
        return static_cast<std::uint32_t>(block_addr &
                                          (cfg.numBankSets - 1));
    }

    /** Set index within the bank set. */
    std::uint32_t
    setIndexOf(Addr block_addr) const
    {
        return static_cast<std::uint32_t>(
            (block_addr >> bankSetShift()) & (cfg.setsPerBankSet - 1));
    }

    /** Full tag of a block address. */
    Addr
    tagOf(Addr block_addr) const
    {
        return block_addr >> (bankSetShift() + setShift());
    }

    /** Partial tag (low bits of the full tag). */
    std::uint32_t
    partialTagOf(Addr block_addr) const
    {
        return static_cast<std::uint32_t>(
            tagOf(block_addr) & ((1u << cfg.partialTagBits) - 1));
    }

    /** Find a block anywhere in its bank set. */
    std::optional<BankLocation> lookup(Addr block_addr) const;

    /**
     * One pass over the block's set: find the holder (as lookup
     * does) and the banks beyond the closest @p close_banks whose
     * partial tags match (true holder and false positives alike).
     */
    SetProbe probe(Addr block_addr, std::uint32_t close_banks) const;

    /** Update LRU/dirty on a hit. */
    void touch(const BankLocation &loc, std::uint64_t use_counter,
               bool make_dirty);

    /**
     * Promote the block one bank closer by swapping with the LRU way
     * of the same set in the next-closer bank.
     * @return The location the block now occupies.
     */
    BankLocation promote(const BankLocation &loc,
                         std::uint64_t use_counter);

    /**
     * Insert a block at the tail (farthest) bank of its bank set,
     * evicting that bank's LRU way if valid.
     */
    std::optional<mem::Eviction>
    insertAtTail(Addr block_addr, std::uint64_t use_counter, bool dirty);

    /**
     * Insert a block at an arbitrary bank of its set (Kim et al.'s
     * insertion-policy design space: tail / middle / head), evicting
     * that bank's LRU way if valid.
     */
    std::optional<mem::Eviction>
    insertAt(Addr block_addr, std::uint32_t bank,
             std::uint64_t use_counter, bool dirty);

    /** Block address stored in a frame (frame must be valid). */
    Addr blockAddrAt(const BankLocation &loc) const;

    /** Direct frame access. */
    mem::LineState &frame(const BankLocation &loc);
    const mem::LineState &frame(const BankLocation &loc) const;

    /** Count of valid frames (for tests). */
    std::uint64_t validCount() const;

  private:
    std::uint32_t bankSetShift() const
    {
        return __builtin_ctz(cfg.numBankSets);
    }

    std::uint32_t setShift() const
    {
        return __builtin_ctz(cfg.setsPerBankSet);
    }

    std::size_t
    frameIndex(std::uint32_t bank_set, std::uint32_t set,
               std::uint32_t bank, std::uint32_t way) const
    {
        return ((static_cast<std::size_t>(bank_set) *
                     cfg.setsPerBankSet + set) *
                    cfg.banksPerSet + bank) *
                   cfg.waysPerBank + way;
    }

    BankSetConfig cfg;
    std::vector<mem::LineState> frames;
};

} // namespace nuca
} // namespace tlsim

#endif // TLSIM_NUCA_BANKSET_HH
