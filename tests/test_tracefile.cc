/**
 * @file
 * Tests for the `tlt` v1 binary trace format: encode/decode round
 * trips, instruction accounting, seeking, wrapping, the text-format
 * converter, and rejection of malformed input.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <sstream>
#include <vector>

#include "sim/logging.hh"
#include "workload/generator.hh"
#include "workload/tracefile.hh"

using namespace tlsim;
using namespace tlsim::workload;
using tlsim::cpu::TraceRecord;

namespace
{

TraceRecord
rec(std::uint32_t gap, bool ifetch, mem::AccessType type, Addr addr,
    bool dep = false, bool mispredict = false)
{
    TraceRecord r;
    r.gap = gap;
    r.isIFetch = ifetch;
    if (!ifetch)
        r.type = type; // type is meaningless for ifetch records
    r.blockAddr = addr;
    r.dependsOnPrev = dep;
    r.mispredict = mispredict;
    return r;
}

/** Hand-built record list covering the encoder's edge cases. */
std::vector<TraceRecord>
edgeRecords()
{
    using mem::AccessType;
    return {
        // Inline gaps (0..14), escaped gaps (>= 15), large gaps.
        rec(0, false, AccessType::Load, 0x1000),
        rec(14, false, AccessType::Store, 0x1001),
        rec(15, false, AccessType::Load, 0x1000), // zero delta
        rec(200, false, AccessType::Load, 0x0),   // negative delta
        rec(100000, true, AccessType::InstFetch, 0x400000),
        // Interleaved streams: each keeps its own delta register.
        rec(3, false, AccessType::Load, 0x2000, true),
        rec(0, true, AccessType::InstFetch, 0x400001, false, true),
        rec(1, false, AccessType::Store, 0x1fff),
        rec(2, true, AccessType::InstFetch, 0x3fffff),
        // A huge forward jump exercises multi-byte varints.
        rec(7, false, AccessType::Load, Addr(1) << 40),
        rec(0, false, AccessType::Load, 0x1000),
    };
}

std::uint64_t
instructionsOf(const std::vector<TraceRecord> &records)
{
    std::uint64_t n = 0;
    for (const TraceRecord &r : records)
        n += r.gap + (r.isIFetch ? 0 : 1);
    return n;
}

/** The `.tlt` file image of @p records. */
std::vector<std::uint8_t>
imageOf(const std::vector<TraceRecord> &records,
        std::uint32_t stride = tltDefaultIndexStride)
{
    TraceFileWriter writer(stride);
    for (const TraceRecord &r : records)
        writer.append(r);
    std::ostringstream os(std::ios::binary);
    writer.finish(os);
    const std::string &bytes = os.str();
    return {bytes.begin(), bytes.end()};
}

TraceFile
encode(const std::vector<TraceRecord> &records,
       std::uint32_t stride = tltDefaultIndexStride)
{
    return TraceFile::fromBytes(imageOf(records, stride), "<test>");
}

/** A small generated trace with several seek-index entries. */
std::vector<std::uint8_t>
generatedImage()
{
    TraceGenerator generator(profileByName("gcc"), 5);
    std::vector<TraceRecord> records;
    for (int i = 0; i < 120; ++i)
        records.push_back(generator.next());
    return imageOf(records, 64);
}

std::vector<std::uint8_t>
edgeImage()
{
    return imageOf(edgeRecords(), 16);
}

std::uint64_t
getU64At(const std::vector<std::uint8_t> &bytes, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
    return v;
}

void
putU64At(std::vector<std::uint8_t> &bytes, std::size_t at,
         std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void
expectEqual(const TraceRecord &a, const TraceRecord &b)
{
    EXPECT_EQ(a.gap, b.gap);
    EXPECT_EQ(a.isIFetch, b.isIFetch);
    if (!a.isIFetch) {
        EXPECT_EQ(a.type, b.type);
    }
    EXPECT_EQ(a.blockAddr, b.blockAddr);
    EXPECT_EQ(a.dependsOnPrev, b.dependsOnPrev);
    EXPECT_EQ(a.mispredict, b.mispredict);
}

} // namespace

TEST(TraceFile, RoundTripPreservesEveryField)
{
    auto records = edgeRecords();
    TraceFile trace = encode(records);
    EXPECT_EQ(trace.recordCount(), records.size());
    EXPECT_EQ(trace.instructionCount(), instructionsOf(records));

    TraceFileSource source(trace);
    for (std::size_t i = 0; i < records.size(); ++i) {
        SCOPED_TRACE(i);
        expectEqual(source.next(), records[i]);
    }
}

TEST(TraceFile, GeneratorRoundTripIsExact)
{
    TraceGenerator generator(profileByName("gcc"), 42);
    std::vector<TraceRecord> records;
    TraceFileWriter writer(4096); // small stride: many index entries
    while (writer.instructionCount() < 50000) {
        records.push_back(generator.next());
        writer.append(records.back());
    }
    std::ostringstream os(std::ios::binary);
    writer.finish(os);
    const std::string &bytes = os.str();
    TraceFile trace = TraceFile::fromBytes(
        std::vector<std::uint8_t>(bytes.begin(), bytes.end()));

    EXPECT_GT(trace.seekIndex().size(), 2u);
    TraceFileSource source(trace);
    for (std::size_t i = 0; i < records.size(); ++i)
        expectEqual(source.next(), records[i]);
}

TEST(TraceFile, SeekMatchesLinearReplay)
{
    TraceGenerator generator(profileByName("mcf"), 9);
    TraceFileWriter writer(2048);
    while (writer.instructionCount() < 30000)
        writer.append(generator.next());
    std::ostringstream os(std::ios::binary);
    writer.finish(os);
    const std::string &bytes = os.str();
    TraceFile trace = TraceFile::fromBytes(
        std::vector<std::uint8_t>(bytes.begin(), bytes.end()));

    for (std::uint64_t target :
         {std::uint64_t(0), std::uint64_t(1), trace.recordCount() / 3,
          trace.recordCount() / 2, trace.recordCount() - 1}) {
        TraceFileSource linear(trace);
        for (std::uint64_t i = 0; i < target; ++i)
            linear.next();
        TraceFileSource seeked(trace);
        seeked.seekToRecord(target);
        EXPECT_EQ(seeked.recordIndex(), linear.recordIndex());
        EXPECT_EQ(seeked.instructionsConsumed(),
                  linear.instructionsConsumed());
        // The next few records must decode identically: the seek
        // restored both delta registers, not just the position.
        for (int i = 0; i < 5; ++i)
            expectEqual(seeked.next(), linear.next());
    }
}

TEST(TraceFile, WrapRestartsTheStream)
{
    auto records = edgeRecords();
    TraceFile trace = encode(records);
    TraceFileSource source(trace);
    for (std::size_t i = 0; i < records.size(); ++i)
        source.next();
    EXPECT_EQ(source.wrapCount(), 0u);
    // Wrapped replay equals a fresh cursor: delta registers reset.
    TraceFileSource fresh(trace);
    for (std::size_t i = 0; i < records.size(); ++i) {
        SCOPED_TRACE(i);
        expectEqual(source.next(), fresh.next());
    }
    EXPECT_EQ(source.wrapCount(), 1u);
}

TEST(TraceFile, TextRoundTripReproducesTheBinary)
{
    auto records = edgeRecords();
    TraceFile direct = encode(records);

    std::ostringstream text;
    text << "# comment line\n\n";
    for (const TraceRecord &r : records)
        formatTextRecord(text, r);

    std::istringstream is(text.str());
    TraceFileWriter writer;
    EXPECT_EQ(parseTextTrace(is, writer, "<test>"), records.size());
    std::ostringstream os(std::ios::binary);
    writer.finish(os);
    const std::string &bytes = os.str();
    TraceFile parsed = TraceFile::fromBytes(
        std::vector<std::uint8_t>(bytes.begin(), bytes.end()));

    // Same records in, same file image out: the content hashes match,
    // which is what makes text->tlt conversion reproducible.
    EXPECT_EQ(parsed.contentHash(), direct.contentHash());
    EXPECT_EQ(parsed.recordCount(), direct.recordCount());
    EXPECT_EQ(parsed.instructionCount(), direct.instructionCount());
}

TEST(TraceFile, MalformedTextIsFatal)
{
    TraceFileWriter writer;
    std::istringstream bad_kind("0 X 1000\n");
    EXPECT_THROW(parseTextTrace(bad_kind, writer, "<t>"), FatalError);
    std::istringstream bad_addr("0 L zzzz\n");
    EXPECT_THROW(parseTextTrace(bad_addr, writer, "<t>"), FatalError);
    std::istringstream bad_flag("0 L 1000 q\n");
    EXPECT_THROW(parseTextTrace(bad_flag, writer, "<t>"), FatalError);
}

TEST(TraceFile, CorruptImagesAreRejected)
{
    std::vector<std::uint8_t> image = imageOf(edgeRecords());

    std::vector<std::uint8_t> truncated(image.begin(),
                                        image.begin() + 20);
    EXPECT_THROW(TraceFile::fromBytes(truncated), FatalError);

    std::vector<std::uint8_t> bad_magic = image;
    bad_magic[0] ^= 0xff;
    EXPECT_THROW(TraceFile::fromBytes(bad_magic), FatalError);

    // Header record count no longer matches the body.
    std::vector<std::uint8_t> bad_count = image;
    bad_count[16] ^= 0x01;
    EXPECT_THROW(TraceFile::fromBytes(bad_count), FatalError);

    // An index count whose byte size wraps to 24 in 64 bits.
    std::vector<std::uint8_t> huge_count = image;
    putU64At(huge_count, 40, ~std::uint64_t(0) / 40 + 1);
    EXPECT_THROW(TraceFile::fromBytes(huge_count), FatalError);

    // An index offset just below 2^64: offset + 40 wraps to 32.
    std::vector<std::uint8_t> wrapped_offset = image;
    putU64At(wrapped_offset, 32, ~std::uint64_t(0) - 7);
    putU64At(wrapped_offset, 40, 1);
    EXPECT_THROW(TraceFile::fromBytes(wrapped_offset), FatalError);

    // Index entries that disagree with their records, on an image
    // with several entries.
    std::vector<std::uint8_t> indexed = generatedImage();
    ASSERT_NO_THROW(TraceFile::fromBytes(indexed));
    std::uint64_t index_offset = getU64At(indexed, 32);
    ASSERT_GT(getU64At(indexed, 40), 2u);

    // Entry 1's fields: byte offset, record index, instructions
    // before it, data and ifetch delta registers. Each one off by one
    // still lies inside the body and below the record count.
    for (std::uint64_t field = 0; field < 5; ++field) {
        SCOPED_TRACE(field);
        std::vector<std::uint8_t> bad = indexed;
        std::uint64_t at = index_offset + 40 + 8 * field;
        putU64At(bad, at, getU64At(bad, at) + 1);
        EXPECT_THROW(TraceFile::fromBytes(bad), FatalError);
    }

    // Entries out of order.
    std::vector<std::uint8_t> swapped = indexed;
    std::swap_ranges(swapped.begin() + index_offset + 40,
                     swapped.begin() + index_offset + 80,
                     swapped.begin() + index_offset + 80);
    EXPECT_THROW(TraceFile::fromBytes(swapped), FatalError);
}

TEST(TraceFile, MutatedImagesAreRejectedOrReplayCleanly)
{
    // Truncate, bit-flip and splice two valid images; every mutant
    // either throws FatalError or loads, and a mutant that loads
    // seeks to every record exactly as a linear replay reaches it.
    const std::vector<std::vector<std::uint8_t>> images = {
        generatedImage(), edgeImage()};
    std::mt19937_64 rng(9973);
    auto below = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    std::size_t loaded = 0;
    std::size_t rejected = 0;
    for (int round = 0; round < 1000; ++round) {
        for (const auto &image : images) {
            std::vector<std::uint8_t> mutant = image;
            switch (below(3)) {
              case 0:
                mutant.resize(below(mutant.size()));
                break;
              case 1:
                for (std::size_t flips = 1 + below(3); flips; --flips)
                    mutant[below(mutant.size())] ^=
                        static_cast<std::uint8_t>(1u << below(8));
                break;
              default: {
                const auto &donor = images[below(images.size())];
                std::size_t from = below(donor.size());
                std::size_t len = below(donor.size() - from) + 1;
                std::size_t at = below(mutant.size());
                std::size_t cut = below(mutant.size() - at);
                mutant.erase(mutant.begin() + at,
                             mutant.begin() + at + cut);
                mutant.insert(mutant.begin() + at,
                              donor.begin() + from,
                              donor.begin() + from + len);
              }
            }

            std::optional<TraceFile> trace;
            try {
                trace = TraceFile::fromBytes(mutant);
            } catch (const FatalError &) {
                ++rejected;
                continue;
            }
            ++loaded;
            TraceFileSource linear(*trace);
            for (std::uint64_t r = 0; r < trace->recordCount(); ++r) {
                TraceFileSource seeked(*trace);
                seeked.seekToRecord(r);
                ASSERT_EQ(seeked.recordIndex(), linear.recordIndex());
                ASSERT_EQ(seeked.instructionsConsumed(),
                          linear.instructionsConsumed());
                TraceRecord expected = linear.next();
                TraceRecord got = seeked.next();
                ASSERT_EQ(got.blockAddr, expected.blockAddr);
                ASSERT_EQ(got.gap, expected.gap);
            }
            EXPECT_EQ(linear.instructionsConsumed(),
                      trace->instructionCount());
        }
    }
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(TraceFile, SeekPastEndIsFatal)
{
    TraceFile trace = encode(edgeRecords());
    TraceFileSource source(trace);
    EXPECT_THROW(source.seekToRecord(trace.recordCount() + 1),
                 PanicError);
}
