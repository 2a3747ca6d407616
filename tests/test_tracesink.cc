/**
 * @file
 * Tests for the Chrome trace-event sink: JSON well-formedness, span
 * fields, and an end-to-end traced benchmark run covering all the
 * major span categories.
 */

#include <gtest/gtest.h>

#include <set>
#include <optional>
#include <sstream>
#include <string>

#include "harness/system.hh"
#include "sim/json.hh"
#include "sim/trace/tracesink.hh"

using namespace tlsim;

namespace
{

/** Install a sink for the test's scope and uninstall on exit. */
struct ActiveSinkGuard
{
    explicit ActiveSinkGuard(trace::TraceSink &sink)
    {
        trace::TraceSink::setActive(&sink);
    }

    ~ActiveSinkGuard() { trace::TraceSink::setActive(nullptr); }
};

/** Parse @p text, failing the test (not crashing) when it is invalid. */
json::Value
parseJson(const std::string &text)
{
    std::string error;
    std::optional<json::Value> doc = json::parse(text, &error);
    EXPECT_TRUE(doc.has_value()) << error;
    return doc.value_or(json::Value{});
}

} // namespace

TEST(TraceSink, EmptyTraceIsValidJson)
{
    std::ostringstream out;
    {
        trace::TraceSink sink(out);
        sink.close();
    }
    json::Value doc = parseJson(out.str());
    ASSERT_TRUE(doc.isObject());
    EXPECT_TRUE(doc.members.at("traceEvents").isArray());
    EXPECT_EQ(doc.members.at("traceEvents").items.size(), 0u);
}

TEST(TraceSink, SpanFieldsRoundTrip)
{
    std::ostringstream out;
    trace::TraceSink sink(out);
    sink.span(trace::cat::l2, "load 42", 100, 130, trace::tid::l2, 7);
    sink.span(trace::cat::noc, "hop", 105, 110, trace::tid::nocBase + 3);
    sink.close();

    json::Value doc = parseJson(out.str());
    const auto &events = doc.members.at("traceEvents");
    ASSERT_EQ(events.items.size(), 2u);
    EXPECT_EQ(sink.eventCount(), 2u);

    const auto &l2 = events.items.at(0);
    EXPECT_EQ(l2.members.at("ph").text, "X");
    EXPECT_EQ(l2.members.at("cat").text, "l2");
    EXPECT_EQ(l2.members.at("name").text, "load 42");
    EXPECT_EQ(l2.members.at("ts").asDouble(), 100.0);
    EXPECT_EQ(l2.members.at("dur").asDouble(), 30.0);
    EXPECT_EQ(l2.members.at("tid").asDouble(),
              static_cast<double>(trace::tid::l2));
    EXPECT_EQ(l2.members.at("args").members.at("req").asDouble(), 7.0);

    // No request id -> no args.req.
    const auto &hop = events.items.at(1);
    EXPECT_EQ(hop.members.at("cat").text, "noc");
    EXPECT_FALSE(hop.find("args"));
}

TEST(TraceSink, CounterEventsEmitted)
{
    std::ostringstream out;
    trace::TraceSink sink(out);
    sink.counter(trace::cat::dram, "outstanding", 50, 3.0);
    sink.close();

    json::Value doc = parseJson(out.str());
    const auto &ev = doc.members.at("traceEvents").items.at(0);
    EXPECT_EQ(ev.members.at("ph").text, "C");
    EXPECT_EQ(ev.members.at("args").members.at("value").asDouble(), 3.0);
}

TEST(TraceSink, NamesAreJsonEscaped)
{
    std::ostringstream out;
    trace::TraceSink sink(out);
    sink.span(trace::cat::l2, "weird \"name\"\nwith\tescapes", 0, 1,
              trace::tid::l2);
    sink.close();

    json::Value doc = parseJson(out.str());
    EXPECT_EQ(doc.members.at("traceEvents").items.at(0).members.at("name").text,
              "weird \"name\"\nwith\tescapes");
}

TEST(TraceSink, CloseIsIdempotentAndDropsLateEvents)
{
    std::ostringstream out;
    trace::TraceSink sink(out);
    sink.span(trace::cat::l2, "a", 0, 1, trace::tid::l2);
    sink.close();
    sink.span(trace::cat::l2, "late", 2, 3, trace::tid::l2);
    sink.close();

    json::Value doc = parseJson(out.str());
    EXPECT_EQ(doc.members.at("traceEvents").items.size(), 1u);
}

TEST(TraceSink, ActiveSinkInstallUninstall)
{
    EXPECT_EQ(trace::TraceSink::active(), nullptr);
    std::ostringstream out;
    trace::TraceSink sink(out);
    {
        ActiveSinkGuard guard(sink);
        EXPECT_EQ(trace::TraceSink::active(), &sink);
    }
    EXPECT_EQ(trace::TraceSink::active(), nullptr);
}

/**
 * End-to-end: run a short benchmark with tracing on and check that
 * the trace parses and covers the major span categories (the
 * acceptance bar from the PR issue: eventq, l2, noc, dram).
 */
TEST(TraceSink, TracedBenchmarkRunCoversCategories)
{
    std::ostringstream out;
    trace::TraceSink sink(out);
    {
        ActiveSinkGuard guard(sink);
        const auto &profile = workload::profileByName("mcf");
        harness::runBenchmark({.design = "TLC",
                               .functionalWarm = 100'000,
                               .warmup = 20'000,
                               .measure = 100'000},
                              profile);
    }
    sink.close();

    json::Value doc = parseJson(out.str());
    const auto &events = doc.members.at("traceEvents");
    ASSERT_GT(events.items.size(), 100u);

    std::set<std::string> categories;
    bool linked_req = false;
    for (std::size_t i = 0; i < events.items.size(); ++i) {
        const auto &ev = events.items.at(i);
        categories.insert(ev.members.at("cat").text);
        if (ev.members.at("ph").text == "X") {
            EXPECT_GE(ev.members.at("dur").asDouble(), 0.0);
        }
        if (ev.find("args") && ev.members.at("args").find("req"))
            linked_req = true;
    }
    EXPECT_TRUE(categories.count("eventq"));
    EXPECT_TRUE(categories.count("l2"));
    EXPECT_TRUE(categories.count("noc"));
    EXPECT_TRUE(categories.count("dram"));
    EXPECT_TRUE(categories.count("l1"));
    EXPECT_TRUE(categories.count("bank"));
    EXPECT_GE(categories.size(), 4u);
    EXPECT_TRUE(linked_req);
}
