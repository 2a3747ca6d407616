/**
 * @file
 * Tests for sim/json: RFC 8259 accept/reject cases, exact number
 * conversions, the escaper, the nesting cap, and a seeded mutation
 * loop over every JSON document tlsim writes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "harness/config.hh"
#include "harness/sweep/journal.hh"
#include "harness/sweep/resultcache.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/trace/tracesink.hh"

using namespace tlsim;

namespace
{

bool
accepts(const std::string &text)
{
    return json::parse(text).has_value();
}

json::Value
number(const std::string &token)
{
    std::optional<json::Value> v = json::parse(token);
    EXPECT_TRUE(v && v->isNumber()) << token;
    return v.value_or(json::Value{});
}

} // namespace

TEST(Json, AcceptsRfc8259Documents)
{
    for (const char *text :
         {"0", "-0", "12", "-3.25", "1e5", "1E+5", "2.5e-3", "true",
          "false", "null", "\"\"", "\"a\\/b\"", "[]", "{}", " \t\r\n[1] ",
          "[1, \"x\", {\"a\": null, \"b\": [true, false]}]",
          "{\"\": 0}"})
        EXPECT_TRUE(accepts(text)) << text;

    auto doc = json::parse(R"({"k": [1, "two", {"n": -3}], "t": true})");
    ASSERT_TRUE(doc && doc->isObject());
    const json::Value *k = doc->find("k");
    ASSERT_TRUE(k && k->isArray());
    ASSERT_EQ(k->items.size(), 3u);
    EXPECT_EQ(k->items[0].asU64(), 1u);
    EXPECT_EQ(k->items[1].text, "two");
    EXPECT_EQ(k->items[2].find("n")->asI64(), -3);
    EXPECT_TRUE(doc->find("t")->boolean);
    EXPECT_EQ(doc->findString("k"), nullptr);
    EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(Json, DecodesEscapes)
{
    auto s = json::parse(R"("\"\\\/\b\f\n\r\t)"
                         R"(\u0041\u00e9\u20ac\ud83d\ude00")");
    ASSERT_TRUE(s && s->isString());
    EXPECT_EQ(s->text, "\"\\/\b\f\n\r\tA\xc3\xa9\xe2\x82\xac"
                       "\xf0\x9f\x98\x80");
    // Bytes >= 0x80 pass through unchanged.
    EXPECT_EQ(json::parse("\"\xc3\xa9\"")->text, "\xc3\xa9");
}

TEST(Json, RejectsMalformedDocuments)
{
    for (const char *text :
         {"", " ", "01", "-01", "1.", ".5", "+1", "1e", "1e+", "-",
          "0x10", "NaN", "Infinity", "-Infinity", "tru", "nul", "True",
          "[1,]", "[,1]", "[1 2]", "{\"a\":1,}", "{a:1}", "{'a':1}",
          "{\"a\"}", "{\"a\" 1}", "{\"a\":}", "{1:2}", "\"abc", "[",
          "{", "]", "\"\\u00\"", "\"\\u00zz\"", "\"\\u12\"",
          "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"", "\"\\q\"",
          "\"\\x41\"", "\"tab\there\"", "\"nl\nhere\"", "[1] x",
          "{}{}", "1 2", "[1]\x01"})
        EXPECT_FALSE(accepts(text)) << text;
    // An embedded NUL ends nothing: it is a stray byte.
    EXPECT_FALSE(accepts(std::string("[1]\0", 4)));
    EXPECT_FALSE(accepts(std::string("\"a\0b\"", 5)));
}

TEST(Json, RejectsDuplicateKeysWithOffset)
{
    std::string error;
    EXPECT_FALSE(json::parse(R"({"a": 1, "b": 2, "a": 3})", &error));
    EXPECT_EQ(error, "offset 17: duplicate object key");
    // Equal keys in different objects are fine.
    EXPECT_TRUE(accepts(R"({"a": {"a": 1}, "b": {"a": 2}})"));

    EXPECT_FALSE(json::parse("[1, 2", &error));
    EXPECT_EQ(error, "offset 5: expected ',' or ']'");
}

TEST(Json, IntegerConversionsAreExact)
{
    constexpr auto u64max = std::numeric_limits<std::uint64_t>::max();
    constexpr auto i64max = std::numeric_limits<std::int64_t>::max();
    constexpr auto i64min = std::numeric_limits<std::int64_t>::min();

    EXPECT_EQ(number("0").asU64(), 0u);
    EXPECT_EQ(number("18446744073709551615").asU64(), u64max);
    EXPECT_EQ(number("11400714819323198485").asU64(),
              0x9e3779b97f4a7c15ULL);
    EXPECT_FALSE(number("18446744073709551616").asU64());
    EXPECT_FALSE(number("-1").asU64());
    EXPECT_FALSE(number("-0").asU64());
    EXPECT_FALSE(number("2.5").asU64());
    EXPECT_FALSE(number("1.0").asU64());
    EXPECT_FALSE(number("1e10").asU64());

    EXPECT_EQ(number("-1").asI64(), -1);
    EXPECT_EQ(number("9223372036854775807").asI64(), i64max);
    EXPECT_EQ(number("-9223372036854775808").asI64(), i64min);
    EXPECT_FALSE(number("9223372036854775808").asI64());
    EXPECT_FALSE(number("-9223372036854775809").asI64());
    EXPECT_FALSE(number("2.5").asI64());
    EXPECT_FALSE(number("1e10").asI64());

    EXPECT_EQ(number("1e10").asDouble(), 1e10);
    EXPECT_EQ(number("-2.5").asDouble(), -2.5);
    EXPECT_EQ(number("0.30000000000000004").asDouble(), 0.1 + 0.2);
    EXPECT_FALSE(number("1e999").asDouble());

    // Only numbers convert.
    EXPECT_FALSE(json::parse("\"7\"")->asU64());
    EXPECT_FALSE(json::parse("true")->asDouble());
}

TEST(Json, EscapeIsSingleLineAndRoundTrips)
{
    std::string every;
    for (int c = 0; c < 256; ++c)
        every += static_cast<char>(c);
    std::string escaped = json::escape(every);
    EXPECT_EQ(escaped.find('\n'), std::string::npos);
    auto back = json::parse("\"" + escaped + "\"");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->text, every);

    // The exact bytes every writer's output (and its pins) relies on.
    EXPECT_EQ(json::escape("a\"b\\c\nd\re\tf\x01g\x1fh/\x7f"),
              "a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh/\x7f");
    EXPECT_EQ(json::escape(std::string("\0\b\f", 3)),
              "\\u0000\\u0008\\u000c");
}

TEST(Json, NestingIsCapped)
{
    auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']');
    };
    EXPECT_TRUE(accepts(nested(json::maxDepth)));
    EXPECT_FALSE(accepts(nested(json::maxDepth + 1)));

    std::string error;
    EXPECT_FALSE(json::parse(std::string(100'000, '['), &error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos)
        << error;
    EXPECT_FALSE(json::parse(std::string(100'000, '{'), &error));
    std::string objects;
    for (int i = 0; i < 100'000; ++i)
        objects += "{\"a\":";
    EXPECT_FALSE(json::parse(objects, &error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos)
        << error;
}

namespace
{

/** One sample of each JSON document tlsim writes. */
std::vector<std::string>
writtenDocuments()
{
    std::vector<std::string> docs;

    harness::SystemConfig config;
    config.cores = 4;
    config.mem.backend = "ddr";
    config.mem.options["tCAS"] = 36;
    config.l2Options["promoteOnHit"] = 0;
    config.fault.enabled = true;
    config.fault.deadLinks = "3";
    config.fault.seed = 0x9e3779b97f4a7c15ULL;
    docs.push_back(harness::configToJson(config));

    harness::sweep::RunSpec spec{"gcc", 0, config};
    harness::RunResult result;
    result.design = "TLC";
    result.benchmark = "gcc";
    result.cycles = 123456;
    result.ipc = 1.0 / 3.0;
    std::ostringstream entry;
    harness::sweep::writeResultJson(entry, spec, result);
    docs.push_back(entry.str());

    std::string dir = "test_json_tmp";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string path = dir + "/sweep.jsonl";
    {
        harness::sweep::journal::Writer writer(path, false);
        writer.done(harness::sweep::specKey(spec), "executed",
                    entry.str(), "{\"a\": {\"b\": 1}}\n");
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    docs.push_back(line);
    std::filesystem::remove_all(dir);

    stats::StatGroup root{"system"};
    stats::StatGroup child{"l2", &root};
    stats::Scalar requests{&child, "requests", "requests \"seen\""};
    stats::Distribution queue{&child, "queue", "queue depth", 0.0, 10.0,
                              5};
    requests += 3.0;
    queue.sample(2.5);
    std::ostringstream stats_json;
    root.dumpStatsJson(stats_json);
    docs.push_back(stats_json.str());

    std::ostringstream trace_json;
    {
        trace::TraceSink sink(trace_json);
        sink.span(trace::cat::l2, "load\t42", 100, 130, trace::tid::l2, 7);
        sink.counter(trace::cat::dram, "outstanding", 50, 3.0);
        sink.close();
    }
    docs.push_back(trace_json.str());
    return docs;
}

} // namespace

/**
 * Truncate, bit-flip and splice each written document. Every mutant
 * must parse or be rejected with a message, and reach the config and
 * cache-entry readers without crashing; run under the sanitizers, a
 * stray read or overflow fails the job.
 */
TEST(Json, MutantsParseOrFailCleanly)
{
    std::vector<std::string> docs = writtenDocuments();
    ASSERT_EQ(docs.size(), 5u);
    for (const std::string &doc : docs) {
        std::string error;
        EXPECT_TRUE(json::parse(doc, &error)) << error << "\n" << doc;
    }

    harness::SystemConfig config = harness::loadConfigJson(docs[0]);
    harness::sweep::RunSpec spec{"gcc", 0, config};
    ASSERT_TRUE(harness::sweep::readResultJson(docs[1], spec));

    std::mt19937_64 rng(9973);
    auto below = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    std::size_t parsed = 0;
    std::size_t rejected = 0;
    for (int round = 0; round < 1500; ++round) {
        for (std::size_t d = 0; d < docs.size(); ++d) {
            std::string mutant = docs[d];
            bool proper_prefix = false;
            switch (below(3)) {
              case 0: {
                std::size_t keep = below(mutant.size());
                std::size_t body = mutant.find_last_not_of(" \n");
                proper_prefix = keep <= body;
                mutant.resize(keep);
                break;
              }
              case 1:
                for (std::size_t flips = 1 + below(3); flips; --flips)
                    mutant[below(mutant.size())] ^=
                        static_cast<char>(1u << below(8));
                break;
              default: {
                const std::string &donor = docs[below(docs.size())];
                std::size_t from = below(donor.size());
                std::size_t len = below(donor.size() - from) + 1;
                std::size_t at = below(mutant.size());
                mutant.replace(at, below(mutant.size() - at),
                               donor.substr(from, len));
              }
            }

            std::string error;
            std::optional<json::Value> v = json::parse(mutant, &error);
            if (v) {
                ++parsed;
            } else {
                ++rejected;
                EXPECT_EQ(error.rfind("offset ", 0), 0u) << error;
            }
            // A top-level object cut before its closing brace is
            // never valid.
            if (proper_prefix) {
                EXPECT_FALSE(v) << mutant;
            }

            if (d == 0) {
                try {
                    harness::loadConfigJson(mutant);
                } catch (const FatalError &) {
                }
            } else if (d == 1) {
                harness::sweep::readResultJson(mutant, spec);
            }
        }
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, 0u);
}
