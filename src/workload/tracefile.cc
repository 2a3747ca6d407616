#include "workload/tracefile.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"

namespace tlsim
{
namespace workload
{

namespace
{

// Control-byte layout (one per record):
//   bits 0-1  record kind: 0 = load, 1 = store, 2 = ifetch
//   bit  2    dependsOnPrev (data records)
//   bit  3    mispredict (ifetch records)
//   bits 4-7  gap, when < 15; 15 escapes to a varint gap field
constexpr std::uint8_t kindMask = 0x3;
constexpr std::uint8_t kindLoad = 0;
constexpr std::uint8_t kindStore = 1;
constexpr std::uint8_t kindIFetch = 2;
constexpr std::uint8_t depBit = 0x4;
constexpr std::uint8_t mispredictBit = 0x8;
constexpr std::uint8_t gapShift = 4;
constexpr std::uint32_t gapEscape = 15;

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
getU32(const std::vector<std::uint8_t> &in, std::uint64_t off)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(in[off + i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::vector<std::uint8_t> &in, std::uint64_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(in[off + i]) << (8 * i);
    return v;
}

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Decode one varint from trace bytes, advancing @p off. */
std::uint64_t
readVarint(const std::vector<std::uint8_t> &bytes, std::uint64_t &off,
           std::uint64_t end, const std::string &name)
{
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
        if (off >= end || shift > 63)
            fatal("tlt '{}': truncated or oversized varint at byte {}",
                  name, off);
        std::uint8_t b = bytes[off++];
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0)
            return v;
        shift += 7;
    }
}

/**
 * Decode the record at @p off (advancing it), updating the caller's
 * delta registers. Shared by the replay cursor, the loader's
 * validation pass, and the interval-signature scan.
 */
cpu::TraceRecord
decodeRecord(const std::vector<std::uint8_t> &bytes, std::uint64_t &off,
             std::uint64_t end, std::uint64_t &last_data,
             std::uint64_t &last_ifetch, const std::string &name)
{
    std::uint8_t control = bytes[off++];
    cpu::TraceRecord record;
    std::uint32_t small_gap = control >> gapShift;
    record.gap = small_gap == gapEscape
                     ? static_cast<std::uint32_t>(
                           readVarint(bytes, off, end, name))
                     : small_gap;
    std::uint64_t delta = readVarint(bytes, off, end, name);
    std::uint8_t kind = control & kindMask;
    if (kind == kindIFetch) {
        record.isIFetch = true;
        record.mispredict = (control & mispredictBit) != 0;
        last_ifetch += static_cast<std::uint64_t>(unzigzag(delta));
        record.blockAddr = last_ifetch;
    } else {
        record.type = kind == kindStore ? mem::AccessType::Store
                                        : mem::AccessType::Load;
        record.dependsOnPrev = (control & depBit) != 0;
        last_data += static_cast<std::uint64_t>(unzigzag(delta));
        record.blockAddr = last_data;
    }
    return record;
}

std::uint64_t
instructionsOf(const cpu::TraceRecord &record)
{
    // Mirrors OoOCore::run / System::functionalWarm accounting: the
    // gap plus the data operation itself; ifetch events are free.
    return record.gap + (record.isIFetch ? 0 : 1);
}

} // namespace

TraceFileWriter::TraceFileWriter(std::uint32_t index_stride)
    : indexStride(index_stride)
{
    TLSIM_ASSERT(index_stride > 0, "index stride must be positive");
}

void
TraceFileWriter::append(const cpu::TraceRecord &record)
{
    TLSIM_ASSERT(!finished, "append after finish");
    if (records == 0 || instrSinceIndex >= indexStride) {
        index.push_back(TltIndexEntry{
            tltHeaderBytes + body.size(), records, instructions,
            lastDataAddr, lastIFetchAddr});
        instrSinceIndex = 0;
    }

    std::uint8_t control;
    std::uint64_t delta;
    if (record.isIFetch) {
        control = kindIFetch;
        if (record.mispredict)
            control |= mispredictBit;
        delta = zigzag(
            static_cast<std::int64_t>(record.blockAddr - lastIFetchAddr));
        lastIFetchAddr = record.blockAddr;
    } else {
        control = record.type == mem::AccessType::Store ? kindStore
                                                        : kindLoad;
        if (record.dependsOnPrev)
            control |= depBit;
        delta = zigzag(
            static_cast<std::int64_t>(record.blockAddr - lastDataAddr));
        lastDataAddr = record.blockAddr;
    }
    if (record.gap < gapEscape) {
        control |= static_cast<std::uint8_t>(record.gap << gapShift);
        body.push_back(control);
    } else {
        control |= static_cast<std::uint8_t>(gapEscape << gapShift);
        body.push_back(control);
        putVarint(body, record.gap);
    }
    putVarint(body, delta);

    ++records;
    std::uint64_t instr = instructionsOf(record);
    instructions += instr;
    instrSinceIndex += instr;
}

void
TraceFileWriter::finish(std::ostream &os)
{
    TLSIM_ASSERT(!finished, "finish called twice");
    finished = true;

    std::vector<std::uint8_t> header;
    header.reserve(tltHeaderBytes);
    header.insert(header.end(), tltMagic, tltMagic + sizeof(tltMagic));
    putU32(header, tltVersion);
    putU32(header, indexStride);
    putU64(header, records);
    putU64(header, instructions);
    putU64(header, tltHeaderBytes + body.size()); // index offset
    putU64(header, index.size());
    header.resize(tltHeaderBytes, 0);

    os.write(reinterpret_cast<const char *>(header.data()),
             static_cast<std::streamsize>(header.size()));
    os.write(reinterpret_cast<const char *>(body.data()),
             static_cast<std::streamsize>(body.size()));
    std::vector<std::uint8_t> tail;
    tail.reserve(index.size() * 40);
    for (const TltIndexEntry &entry : index) {
        putU64(tail, entry.byteOffset);
        putU64(tail, entry.recordIndex);
        putU64(tail, entry.instrIndex);
        putU64(tail, entry.lastDataAddr);
        putU64(tail, entry.lastIFetchAddr);
    }
    os.write(reinterpret_cast<const char *>(tail.data()),
             static_cast<std::streamsize>(tail.size()));
    TLSIM_ASSERT(os.good(), "trace write failed");
}

TraceFile
TraceFile::load(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.is_open())
        fatal("cannot open trace file '{}'", path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());
    return fromBytes(std::move(bytes), path);
}

TraceFile
TraceFile::fromBytes(std::vector<std::uint8_t> raw,
                     const std::string &name)
{
    TraceFile file;
    file.sourceName = name;
    file.bytes = std::move(raw);
    const auto &bytes = file.bytes;
    if (bytes.size() < tltHeaderBytes ||
        !std::equal(tltMagic, tltMagic + sizeof(tltMagic),
                    bytes.begin()))
        fatal("'{}' is not a tlt trace (bad magic or truncated "
              "header)", name);
    std::uint32_t version = getU32(bytes, 8);
    if (version != tltVersion)
        fatal("tlt '{}': unsupported version {} (this build reads "
              "version {})", name, version, tltVersion);
    file.records = getU64(bytes, 16);
    file.instructions = getU64(bytes, 24);
    std::uint64_t index_offset = getU64(bytes, 32);
    std::uint64_t index_count = getU64(bytes, 40);
    file.bodyBegin = tltHeaderBytes;
    file.bodyEnd = index_offset;
    // Offset and count are bounded separately: their sum or product
    // could wrap.
    if (index_offset < tltHeaderBytes || index_offset > bytes.size() ||
        index_count > (bytes.size() - index_offset) / 40)
        fatal("tlt '{}': index extends past end of file", name);
    if (file.records == 0)
        fatal("tlt '{}': empty trace", name);

    file.index.reserve(index_count);
    for (std::uint64_t i = 0; i < index_count; ++i) {
        std::uint64_t off = index_offset + i * 40;
        TltIndexEntry entry;
        entry.byteOffset = getU64(bytes, off);
        entry.recordIndex = getU64(bytes, off + 8);
        entry.instrIndex = getU64(bytes, off + 16);
        entry.lastDataAddr = getU64(bytes, off + 24);
        entry.lastIFetchAddr = getU64(bytes, off + 32);
        if (entry.byteOffset < file.bodyBegin ||
            entry.byteOffset >= file.bodyEnd ||
            entry.recordIndex >= file.records ||
            (i > 0 &&
             entry.recordIndex <= file.index.back().recordIndex))
            fatal("tlt '{}': corrupt index entry {}", name, i);
        file.index.push_back(entry);
    }

    // Full validation decode: every record must parse, every index
    // entry must hold the decoder's state at its record, and the
    // header counts must match, so replay and seeks can trust the
    // body and the index blindly. The entries rise strictly and stay
    // below the header's record count, so a body that holds that
    // count meets every one of them.
    std::uint64_t off = file.bodyBegin;
    std::uint64_t last_data = 0, last_ifetch = 0;
    std::uint64_t records = 0, instructions = 0;
    std::size_t next_entry = 0;
    while (off < file.bodyEnd) {
        if (next_entry < file.index.size() &&
            file.index[next_entry].recordIndex == records) {
            const TltIndexEntry &entry = file.index[next_entry];
            if (entry.byteOffset != off ||
                entry.instrIndex != instructions ||
                entry.lastDataAddr != last_data ||
                entry.lastIFetchAddr != last_ifetch)
                fatal("tlt '{}': index entry {} does not match record "
                      "{}", name, next_entry, records);
            ++next_entry;
        }
        cpu::TraceRecord record = decodeRecord(
            bytes, off, file.bodyEnd, last_data, last_ifetch, name);
        ++records;
        instructions += instructionsOf(record);
    }
    if (records != file.records || instructions != file.instructions)
        fatal("tlt '{}': header claims {} records / {} instructions "
              "but body holds {} / {}", name, file.records,
              file.instructions, records, instructions);

    file.hash = fnv1a(bytes);
    return file;
}

TraceFileSource::TraceFileSource(const TraceFile &file)
    : trace(file), offset(file.bodyBegin)
{}

cpu::TraceRecord
TraceFileSource::next()
{
    if (offset >= trace.bodyEnd) {
        // Wrap: the core needs an infinite stream. Delta registers
        // reset so the replay of the first record is identical to a
        // fresh cursor's.
        offset = trace.bodyBegin;
        recIdx = 0;
        lastDataAddr = 0;
        lastIFetchAddr = 0;
        ++wraps;
    }
    cpu::TraceRecord record =
        decodeRecord(trace.bytes, offset, trace.bodyEnd, lastDataAddr,
                     lastIFetchAddr, trace.sourceName);
    ++recIdx;
    instrIdx += instructionsOf(record);
    return record;
}

void
TraceFileSource::seekToRecord(std::uint64_t record_index)
{
    TLSIM_ASSERT(record_index <= trace.records,
                 "seek to record {} past end of '{}' ({} records)",
                 record_index, trace.sourceName, trace.records);
    // Closest index entry at or before the target.
    TltIndexEntry start{trace.bodyBegin, 0, 0, 0, 0};
    auto it = std::upper_bound(
        trace.index.begin(), trace.index.end(), record_index,
        [](std::uint64_t target, const TltIndexEntry &entry) {
            return target < entry.recordIndex;
        });
    if (it != trace.index.begin())
        start = *(it - 1);

    offset = start.byteOffset;
    recIdx = start.recordIndex;
    instrIdx = start.instrIndex;
    lastDataAddr = start.lastDataAddr;
    lastIFetchAddr = start.lastIFetchAddr;
    wraps = 0;
    while (recIdx < record_index) {
        cpu::TraceRecord record =
            decodeRecord(trace.bytes, offset, trace.bodyEnd,
                         lastDataAddr, lastIFetchAddr,
                         trace.sourceName);
        ++recIdx;
        instrIdx += instructionsOf(record);
    }
}

std::uint64_t
parseTextTrace(std::istream &is, TraceFileWriter &writer,
               const std::string &name)
{
    std::string line;
    std::uint64_t line_no = 0;
    std::uint64_t parsed = 0;
    while (std::getline(is, line)) {
        ++line_no;
        std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::istringstream fields(line);
        std::uint64_t gap;
        std::string kind, addr_hex, flags;
        if (!(fields >> gap >> kind >> addr_hex) || kind.size() != 1)
            fatal("{}:{}: malformed trace line '{}'", name, line_no,
                  line);
        cpu::TraceRecord record;
        record.gap = static_cast<std::uint32_t>(gap);
        switch (kind[0]) {
          case 'L': record.type = mem::AccessType::Load; break;
          case 'S': record.type = mem::AccessType::Store; break;
          case 'I': record.isIFetch = true; break;
          default:
            fatal("{}:{}: unknown record kind '{}' (want L, S or I)",
                  name, line_no, kind);
        }
        char *end = nullptr;
        record.blockAddr = std::strtoull(addr_hex.c_str(), &end, 16);
        if (end == addr_hex.c_str() || *end != '\0')
            fatal("{}:{}: malformed hex block address '{}'", name,
                  line_no, addr_hex);
        if (fields >> flags) {
            for (char flag : flags) {
                if (flag == 'd' && !record.isIFetch)
                    record.dependsOnPrev = true;
                else if (flag == 'm' && record.isIFetch)
                    record.mispredict = true;
                else
                    fatal("{}:{}: flag '{}' invalid for a '{}' record",
                          name, line_no, flag, kind);
            }
        }
        writer.append(record);
        ++parsed;
    }
    return parsed;
}

void
formatTextRecord(std::ostream &os, const cpu::TraceRecord &record)
{
    os << record.gap << ' ';
    if (record.isIFetch)
        os << 'I';
    else
        os << (record.type == mem::AccessType::Store ? 'S' : 'L');
    os << ' ' << std::hex << record.blockAddr << std::dec;
    if (record.dependsOnPrev && !record.isIFetch)
        os << " d";
    if (record.mispredict && record.isIFetch)
        os << " m";
    os << '\n';
}

} // namespace workload
} // namespace tlsim
