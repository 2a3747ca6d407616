/**
 * @file
 * A fixed-size set of mesh rows: the rows a column multicast visits,
 * and DNUCA's partial-tag search candidates.
 */

#ifndef TLSIM_NOC_ROWSET_HH
#define TLSIM_NOC_ROWSET_HH

#include <cstdint>
#include <initializer_list>

#include "sim/logging.hh"

namespace tlsim
{
namespace noc
{

/**
 * A set of rows of one mesh column (rows 0..63), visited nearest
 * first: the rows a column multicast drops a copy at. A fixed-size
 * bitmask, so building one never allocates.
 */
class RowSet
{
  public:
    RowSet() = default;

    RowSet(std::initializer_list<int> rows)
    {
        for (int row : rows)
            add(row);
    }

    void
    add(int row)
    {
        TLSIM_ASSERT(row >= 0 && row < 64, "row {} outside a RowSet",
                     row);
        bits |= std::uint64_t(1) << row;
    }

    bool
    contains(int row) const
    {
        return row >= 0 && row < 64 && (bits >> row & 1) != 0;
    }

    bool empty() const { return bits == 0; }

    /** Number of rows in the set. */
    int size() const { return __builtin_popcountll(bits); }

    /** The farthest row; the set must not be empty. */
    int last() const { return 63 - __builtin_clzll(bits); }

    /** Call @p f with each row, nearest first. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::uint64_t rest = bits; rest != 0; rest &= rest - 1)
            f(__builtin_ctzll(rest));
    }

  private:
    std::uint64_t bits = 0;
};

} // namespace noc
} // namespace tlsim

#endif // TLSIM_NOC_ROWSET_HH
