/**
 * @file
 * Configuration of the TLC design family (paper Table 2).
 */

#ifndef TLSIM_TLC_CONFIG_HH
#define TLSIM_TLC_CONFIG_HH

#include <cstdint>
#include <string>

namespace tlsim
{
namespace tlc
{

/**
 * Parameters of one member of the TLC family.
 *
 * The base design stores whole blocks in one bank; the optimized
 * designs stripe each block across banksPerBlock banks, check 6-bit
 * partial tags at the banks, and resolve full tags at the controller.
 */
struct TlcConfig
{
    std::string name;
    /** Number of storage banks. */
    int banks;
    /** Banks a 64 B block is striped across (1 for the base design). */
    int banksPerBlock;
    /** Capacity of one bank [bytes]. */
    std::uint64_t bankBytes;
    /** Transmission lines shared by a pair of adjacent banks. */
    int linesPerPair;
    /** Request (controller->bank) link width in bits, per pair. */
    int downBits;
    /** Response (bank->controller) link width in bits, per pair. */
    int upBits;
    /** Set associativity. */
    int ways = 4;
    /** Partial tag width used by the optimized designs. */
    int partialTagBits = 6;
    /** High-order tag bits returned with optimized-design responses. */
    int highTagBits = 24;

    /**
     * Probability that the controller's end-to-end ECC check detects
     * a corrupted response, forcing a retry round trip (paper
     * Section 4's fault-repair mechanism). Zero models clean lines.
     */
    double lineErrorRate = 0.0;

    /** Bank pairs (each pair shares one up and one down link). */
    int pairs() const { return banks / 2; }

    /** Address-selected bank groups (banks / banksPerBlock). */
    int groups() const { return banks / banksPerBlock; }

    /** Total transmission lines used (Table 2, column 6). */
    int totalLines() const { return pairs() * linesPerPair; }

    /** Total cache capacity [bytes]. */
    std::uint64_t
    capacity() const
    {
        return static_cast<std::uint64_t>(banks) * bankBytes;
    }
};

/** The base TLC design: 32 x 512 KB banks, 2048 lines. */
TlcConfig baseTlc();

/** TLCopt 1000: 16 x 1 MB banks, 2 banks/block, 1008 lines. */
TlcConfig tlcOpt1000();

/** TLCopt 500: 16 x 1 MB banks, 4 banks/block, 512 lines. */
TlcConfig tlcOpt500();

/** TLCopt 350: 16 x 1 MB banks, 8 banks/block, 352 lines. */
TlcConfig tlcOpt350();

} // namespace tlc
} // namespace tlsim

#endif // TLSIM_TLC_CONFIG_HH
