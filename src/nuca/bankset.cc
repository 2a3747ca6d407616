#include "nuca/bankset.hh"

namespace tlsim
{
namespace nuca
{

BankSetArray::BankSetArray(const BankSetConfig &config)
    : cfg(config),
      frames(static_cast<std::size_t>(config.numBankSets) *
             config.setsPerBankSet * config.banksPerSet *
             config.waysPerBank)
{
    TLSIM_ASSERT((cfg.numBankSets & (cfg.numBankSets - 1)) == 0,
                 "numBankSets must be a power of two");
    TLSIM_ASSERT((cfg.setsPerBankSet & (cfg.setsPerBankSet - 1)) == 0,
                 "setsPerBankSet must be a power of two");
}

std::optional<BankLocation>
BankSetArray::lookup(Addr block_addr) const
{
    std::uint32_t bank_set = bankSetOf(block_addr);
    std::uint32_t set = setIndexOf(block_addr);
    Addr tag = tagOf(block_addr);
    for (std::uint32_t bank = 0; bank < cfg.banksPerSet; ++bank) {
        for (std::uint32_t way = 0; way < cfg.waysPerBank; ++way) {
            const auto &line =
                frames[frameIndex(bank_set, set, bank, way)];
            if (line.holds(tag))
                return BankLocation{bank_set, set, bank, way};
        }
    }
    return std::nullopt;
}

SetProbe
BankSetArray::probe(Addr block_addr, std::uint32_t close_banks) const
{
    std::uint32_t bank_set = bankSetOf(block_addr);
    std::uint32_t set = setIndexOf(block_addr);
    Addr tag = tagOf(block_addr);
    std::uint32_t ptag = partialTagOf(block_addr);
    std::uint32_t mask = (1u << cfg.partialTagBits) - 1;

    SetProbe found;
    for (std::uint32_t bank = 0; bank < cfg.banksPerSet; ++bank) {
        for (std::uint32_t way = 0; way < cfg.waysPerBank; ++way) {
            const auto &line =
                frames[frameIndex(bank_set, set, bank, way)];
            if (!found.holder && line.holds(tag))
                found.holder = BankLocation{bank_set, set, bank, way};
            if (bank >= close_banks && line.valid() &&
                static_cast<std::uint32_t>(line.tag() & mask) == ptag)
                found.candidates.add(static_cast<int>(bank));
        }
    }
    return found;
}

void
BankSetArray::touch(const BankLocation &loc, std::uint64_t use_counter,
                    bool make_dirty)
{
    auto &line = frame(loc);
    TLSIM_ASSERT(line.valid(), "touch of invalid frame");
    line.lastUse = use_counter;
    if (make_dirty)
        line.markDirty();
}

BankLocation
BankSetArray::promote(const BankLocation &loc, std::uint64_t use_counter)
{
    TLSIM_ASSERT(loc.bank > 0, "cannot promote from the head bank");
    auto &line = frame(loc);
    TLSIM_ASSERT(line.valid(), "promote of invalid frame");

    // Victim: LRU way of the same set in the next-closer bank.
    BankLocation dst{loc.bankSet, loc.setIndex, loc.bank - 1, 0};
    std::uint64_t oldest = ~std::uint64_t(0);
    bool found_invalid = false;
    for (std::uint32_t way = 0; way < cfg.waysPerBank; ++way) {
        BankLocation cand{loc.bankSet, loc.setIndex, loc.bank - 1, way};
        const auto &cand_line = frame(cand);
        if (!cand_line.valid()) {
            dst = cand;
            found_invalid = true;
            break;
        }
        if (cand_line.lastUse < oldest) {
            oldest = cand_line.lastUse;
            dst = cand;
        }
    }

    auto &dst_line = frame(dst);
    if (found_invalid) {
        dst_line = line;
        line.invalidate();
    } else {
        std::swap(line, dst_line);
    }
    dst_line.lastUse = use_counter;
    return dst;
}

std::optional<mem::Eviction>
BankSetArray::insertAtTail(Addr block_addr, std::uint64_t use_counter,
                           bool dirty)
{
    return insertAt(block_addr, cfg.banksPerSet - 1, use_counter,
                    dirty);
}

std::optional<mem::Eviction>
BankSetArray::insertAt(Addr block_addr, std::uint32_t tail,
                       std::uint64_t use_counter, bool dirty)
{
    TLSIM_ASSERT(tail < cfg.banksPerSet, "insertion bank out of range");
    std::uint32_t bank_set = bankSetOf(block_addr);
    std::uint32_t set = setIndexOf(block_addr);

    // LRU (or invalid) way of the tail bank's set.
    std::uint32_t victim_way = 0;
    std::uint64_t oldest = ~std::uint64_t(0);
    for (std::uint32_t way = 0; way < cfg.waysPerBank; ++way) {
        const auto &line = frames[frameIndex(bank_set, set, tail, way)];
        if (!line.valid()) {
            victim_way = way;
            oldest = 0;
            break;
        }
        if (line.lastUse < oldest) {
            oldest = line.lastUse;
            victim_way = way;
        }
    }

    auto &line = frames[frameIndex(bank_set, set, tail, victim_way)];
    std::optional<mem::Eviction> evicted;
    if (line.valid()) {
        BankLocation loc{bank_set, set, tail, victim_way};
        evicted = mem::Eviction{blockAddrAt(loc), line.dirty()};
    }
    line.fill(tagOf(block_addr), dirty);
    line.lastUse = use_counter;
    return evicted;
}

Addr
BankSetArray::blockAddrAt(const BankLocation &loc) const
{
    const auto &line = frame(loc);
    TLSIM_ASSERT(line.valid(), "blockAddrAt of invalid frame");
    return (line.tag() << (bankSetShift() + setShift())) |
           (static_cast<Addr>(loc.setIndex) << bankSetShift()) |
           loc.bankSet;
}

mem::LineState &
BankSetArray::frame(const BankLocation &loc)
{
    return frames[frameIndex(loc.bankSet, loc.setIndex, loc.bank,
                             loc.way)];
}

const mem::LineState &
BankSetArray::frame(const BankLocation &loc) const
{
    return frames[frameIndex(loc.bankSet, loc.setIndex, loc.bank,
                             loc.way)];
}

std::uint64_t
BankSetArray::validCount() const
{
    std::uint64_t count = 0;
    for (const auto &line : frames)
        count += line.valid() ? 1 : 0;
    return count;
}

} // namespace nuca
} // namespace tlsim
