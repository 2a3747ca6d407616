/**
 * @file
 * Tests for the JSON stats export: StatGroup::dumpStatsJson round-trip
 * and the periodic StatSampler time series.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <string>

#include "sim/eventq.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/trace/sampler.hh"

using namespace tlsim;

namespace
{

/** A small stats tree exercising every stat kind. */
struct TreeFixture
{
    stats::StatGroup root{"system"};
    stats::StatGroup child{"l2", &root};
    stats::Scalar requests{&child, "requests", "requests received"};
    stats::Average latency{&child, "latency", "request latency"};
    stats::Distribution queue{&child, "queue", "queue depth", 0.0,
                              10.0, 5};
    stats::Histogram gaps{&child, "gaps", "inter-arrival gaps"};
    stats::Formula missRate{&child, "miss_rate", "relative misses",
                            [this]() {
                                return requests.value() > 0.0
                                           ? 1.0 / requests.value()
                                           : 0.0;
                            }};
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

TEST(StatsJson, RoundTripAllKinds)
{
    TreeFixture t;
    t.requests += 5.0;
    t.latency.sample(10.0);
    t.latency.sample(20.0);
    t.queue.sample(-1.0); // underflow
    t.queue.sample(2.5);
    t.queue.sample(99.0); // overflow
    t.gaps.sample(7);

    std::ostringstream out;
    t.root.dumpStatsJson(out);
    json::Value doc = parseJson(out.str());

    const auto &l2 = doc.members.at("l2");
    EXPECT_EQ(l2.members.at("requests").members.at("kind").text, "scalar");
    EXPECT_EQ(l2.members.at("requests").members.at("value").asDouble(), 5.0);
    EXPECT_NE(l2.members.at("requests").members.at("desc").text, "");

    const auto &lat = l2.members.at("latency");
    EXPECT_EQ(lat.members.at("kind").text, "average");
    EXPECT_EQ(lat.members.at("count").asDouble(), 2.0);
    EXPECT_EQ(lat.members.at("mean").asDouble(), 15.0);
    EXPECT_EQ(lat.members.at("min").asDouble(), 10.0);
    EXPECT_EQ(lat.members.at("max").asDouble(), 20.0);

    const auto &queue = l2.members.at("queue");
    EXPECT_EQ(queue.members.at("kind").text, "distribution");
    EXPECT_EQ(queue.members.at("count").asDouble(), 3.0);
    EXPECT_EQ(queue.members.at("underflow").asDouble(), 1.0);
    EXPECT_EQ(queue.members.at("overflow").asDouble(), 1.0);
    ASSERT_EQ(queue.members.at("buckets").items.size(), 5u);
    EXPECT_EQ(queue.members.at("buckets").items.at(1).asDouble(), 1.0);

    const auto &gaps = l2.members.at("gaps");
    EXPECT_EQ(gaps.members.at("kind").text, "histogram");
    EXPECT_EQ(gaps.members.at("count").asDouble(), 1.0);
    // 7 falls in the log2 bucket with index 3 (values 4..7).
    EXPECT_TRUE(gaps.members.at("buckets").find("3"));

    const auto &rate = l2.members.at("miss_rate");
    EXPECT_EQ(rate.members.at("kind").text, "formula");
    EXPECT_DOUBLE_EQ(rate.members.at("value").asDouble().value(), 0.2);
}

TEST(StatsJson, DoublesSurviveExactly)
{
    stats::StatGroup root{"root"};
    stats::Scalar value{&root, "value", "a precise value"};
    value += 0.1 + 0.2; // classic non-representable sum

    std::ostringstream out;
    root.dumpStatsJson(out);
    json::Value doc = parseJson(out.str());
    EXPECT_EQ(doc.members.at("value").members.at("value").asDouble(),
              0.1 + 0.2);
}

TEST(StatsJson, NonFiniteValuesBecomeZero)
{
    stats::StatGroup root{"root"};
    stats::Formula bad{&root, "bad", "divides by zero",
                       []() { return std::nan(""); }};
    stats::Formula worse{&root, "worse", "infinite", []() {
                             return std::numeric_limits<
                                 double>::infinity();
                         }};

    std::ostringstream out;
    root.dumpStatsJson(out);
    // Must still parse: NaN/Inf are not valid JSON.
    json::Value doc = parseJson(out.str());
    EXPECT_EQ(doc.members.at("bad").members.at("value").asDouble(), 0.0);
    EXPECT_EQ(doc.members.at("worse").members.at("value").asDouble(), 0.0);
}

TEST(StatsJson, EmptyGroupIsValid)
{
    stats::StatGroup root{"root"};
    std::ostringstream out;
    root.dumpStatsJson(out);
    json::Value doc = parseJson(out.str());
    EXPECT_TRUE(doc.isObject());
}

TEST(StatSampler, PeriodicSamplesFormJsonLines)
{
    EventQueue eq;
    TreeFixture t;
    std::ostringstream out;
    trace::StatSampler sampler(eq, t.root, 100, out);
    sampler.start();

    // Give the queue work up to tick 500; the sampler should fire at
    // 100, 200, 300, 400, 500 alongside it.
    for (Tick tick = 50; tick <= 550; tick += 100) {
        eq.scheduleFunc(tick, [&t]() { t.requests += 1.0; });
    }
    eq.advanceTo(520);
    sampler.stop();
    eq.run();

    EXPECT_EQ(sampler.samplesTaken(), 5u);

    std::istringstream lines(out.str());
    std::string line;
    std::size_t parsed = 0;
    double last_tick = 0.0;
    while (std::getline(lines, line)) {
        json::Value doc = parseJson(line);
        EXPECT_GT(doc.members.at("tick").asDouble(), last_tick);
        last_tick = doc.members.at("tick").asDouble().value();
        EXPECT_TRUE(doc.members.at("stats").members.at("l2").isObject());
        ++parsed;
    }
    EXPECT_EQ(parsed, 5u);

    // The time series captures the growth of the counter.
    std::istringstream again(out.str());
    std::getline(again, line);
    json::Value first = parseJson(line);
    EXPECT_EQ(first.members.at("stats")
                  .members.at("l2")
                  .members.at("requests")
                  .members.at("value")
                  .asDouble(),
              1.0);
}

TEST(StatSampler, StopPreventsFurtherSamples)
{
    EventQueue eq;
    TreeFixture t;
    std::ostringstream out;
    trace::StatSampler sampler(eq, t.root, 10, out);
    sampler.start();
    eq.scheduleFunc(35, []() {});
    eq.advanceTo(35);
    EXPECT_EQ(sampler.samplesTaken(), 3u);
    sampler.stop();
    eq.scheduleFunc(100, []() {});
    eq.run();
    EXPECT_EQ(sampler.samplesTaken(), 3u);
}
