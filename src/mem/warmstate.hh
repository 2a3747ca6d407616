/**
 * @file
 * Binary serialization helpers for functional warm state.
 *
 * Warm-state checkpoints capture exactly what accessFunctional
 * mutates — tag/valid/dirty/LRU state plus the owning structure's LRU
 * use counter — so a resumed run replays bit-identically to a cold
 * one (docs/SAMPLING.md, "Checkpoint invalidation"). DRAM carries no
 * functional state (its model is timing-only), so it has no section.
 *
 * Encoding is little-endian and sparse: only valid lines are written,
 * in set-major order, which keeps short-warm checkpoints small. The
 * readers return false on any mismatch (truncation, geometry change)
 * so callers treat a stale checkpoint as a miss, never a crash.
 */

#ifndef TLSIM_MEM_WARMSTATE_HH
#define TLSIM_MEM_WARMSTATE_HH

#include <cstdint>
#include <istream>
#include <ostream>

#include "mem/setassoc.hh"

namespace tlsim
{
namespace mem
{
namespace warm
{

inline void
putU64(std::ostream &os, std::uint64_t v)
{
    char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<char>(v >> (8 * i));
    os.write(bytes, 8);
}

inline bool
getU64(std::istream &is, std::uint64_t &v)
{
    char bytes[8];
    if (!is.read(bytes, 8))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[i]))
             << (8 * i);
    return true;
}

inline void
putU32(std::ostream &os, std::uint32_t v)
{
    char bytes[4];
    for (int i = 0; i < 4; ++i)
        bytes[i] = static_cast<char>(v >> (8 * i));
    os.write(bytes, 4);
}

inline bool
getU32(std::istream &is, std::uint32_t &v)
{
    char bytes[4];
    if (!is.read(bytes, 4))
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes[i]))
             << (8 * i);
    return true;
}

inline void
putU8(std::ostream &os, std::uint8_t v)
{
    os.put(static_cast<char>(v));
}

inline bool
getU8(std::istream &is, std::uint8_t &v)
{
    int c = is.get();
    if (c == std::istream::traits_type::eof())
        return false;
    v = static_cast<std::uint8_t>(c);
    return true;
}

/** Serialize a set-associative array (geometry + valid lines). */
inline void
writeArray(std::ostream &os, const SetAssocArray &array)
{
    putU32(os, array.sets());
    putU32(os, array.ways());
    putU64(os, array.validCount());
    for (std::uint32_t set = 0; set < array.sets(); ++set) {
        for (std::uint32_t way = 0; way < array.ways(); ++way) {
            const LineState &line = array.at(set, way);
            if (!line.valid())
                continue;
            putU32(os, set);
            putU32(os, way);
            putU64(os, line.tag());
            putU64(os, line.lastUse);
            putU8(os, line.dirty() ? 1 : 0);
        }
    }
}

/**
 * Restore an array written by writeArray. The destination's geometry
 * must match; all its lines are reset first so a load over a used
 * array is equivalent to loading into a fresh one. Only what
 * writeArray can produce loads: lines in strictly increasing
 * (set, way) order, a 0/1 dirty byte, and no tag twice in one set.
 * @return false on truncation, geometry mismatch or any other
 *         deviation (caller should discard the checkpoint).
 */
inline bool
readArray(std::istream &is, SetAssocArray &array)
{
    std::uint32_t sets = 0, ways = 0;
    std::uint64_t valid = 0;
    if (!getU32(is, sets) || !getU32(is, ways) || !getU64(is, valid))
        return false;
    if (sets != array.sets() || ways != array.ways())
        return false;
    for (std::uint32_t set = 0; set < array.sets(); ++set)
        for (std::uint32_t way = 0; way < array.ways(); ++way)
            array.at(set, way) = LineState{};
    std::uint64_t next_slot = 0;
    for (std::uint64_t i = 0; i < valid; ++i) {
        std::uint32_t set = 0, way = 0;
        std::uint64_t tag = 0, last_use = 0;
        std::uint8_t dirty = 0;
        if (!getU32(is, set) || !getU32(is, way) || !getU64(is, tag) ||
            !getU64(is, last_use) || !getU8(is, dirty))
            return false;
        if (set >= array.sets() || way >= array.ways() ||
            tag > LineState::maxTag || dirty > 1)
            return false;
        std::uint64_t slot =
            static_cast<std::uint64_t>(set) * array.ways() + way;
        if (slot < next_slot)
            return false;
        next_slot = slot + 1;
        for (std::uint32_t w = 0; w < way; ++w)
            if (array.at(set, w).holds(tag))
                return false;
        LineState &line = array.at(set, way);
        line.fill(tag, dirty != 0);
        line.lastUse = last_use;
    }
    return true;
}

} // namespace warm
} // namespace mem
} // namespace tlsim

#endif // TLSIM_MEM_WARMSTATE_HH
