/**
 * @file
 * Tests for the `tlt` v1 binary trace format: encode/decode round
 * trips, instruction accounting, seeking, wrapping, the text-format
 * converter, and rejection of malformed input.
 */

#include <gtest/gtest.h>

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

TraceFile
encode(const std::vector<TraceRecord> &records,
       std::uint32_t stride = tltDefaultIndexStride)
{
    TraceFileWriter writer(stride);
    for (const TraceRecord &r : records)
        writer.append(r);
    std::ostringstream os(std::ios::binary);
    writer.finish(os);
    const std::string &bytes = os.str();
    return TraceFile::fromBytes(
        std::vector<std::uint8_t>(bytes.begin(), bytes.end()),
        "<test>");
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
    auto records = edgeRecords();
    TraceFileWriter writer;
    for (const TraceRecord &r : records)
        writer.append(r);
    std::ostringstream os(std::ios::binary);
    writer.finish(os);
    const std::string &str = os.str();
    std::vector<std::uint8_t> image(str.begin(), str.end());

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
}

TEST(TraceFile, SeekPastEndIsFatal)
{
    TraceFile trace = encode(edgeRecords());
    TraceFileSource source(trace);
    EXPECT_THROW(source.seekToRecord(trace.recordCount() + 1),
                 PanicError);
}
