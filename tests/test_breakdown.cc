/**
 * @file
 * Tests that the per-request latency breakdown (queue wait / wire /
 * bank / dram) recorded by every L2 design is exact: the components
 * of a request sum to its measured end-to-end latency.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "nuca/dnuca.hh"
#include "nuca/snuca.hh"
#include "phys/technology.hh"
#include "sim/fault/faultconfig.hh"
#include "sim/fault/injector.hh"
#include "tlc/tlccache.hh"

using namespace tlsim;
using tlsim::mem::AccessType;

namespace
{

template <typename Cache, typename... Args>
struct Fixture
{
    explicit Fixture(Args... args)
        : root("root"), dram(eq, &root),
          cache(eq, &root, dram, phys::tech45(), args...)
    {}

    EventQueue eq;
    stats::StatGroup root;
    mem::Dram dram;
    Cache cache;
};

using TlcFixture = Fixture<tlc::TlcCache, const tlc::TlcConfig &>;
using SnucaFixture = Fixture<nuca::SnucaCache>;
using DnucaFixture = Fixture<nuca::DnucaCache>;
using FaultTlcFixture =
    Fixture<tlc::TlcCache, const tlc::TlcConfig &, fault::Injector *>;

/** Every sample in a Distribution lands in exactly one log2 bucket. */
std::uint64_t
logBucketTotal(const stats::Distribution &dist)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < 65; ++i)
        total += dist.logBucket(i);
    return total;
}

} // namespace

TEST(Breakdown, TlcHitComponentsSumToLatency)
{
    for (const auto &cfg :
         {tlc::baseTlc(), tlc::tlcOpt1000(), tlc::tlcOpt500(),
          tlc::tlcOpt350()}) {
        TlcFixture f(cfg);
        Addr addr = 0x1234;
        f.cache.accessFunctional(addr, AccessType::Load);
        Tick issue = 1000, done = 0;
        f.cache.access(mem::MemRequest{addr, AccessType::Load, issue},
                       [&](Tick t) { done = t; });
        f.eq.run();
        ASSERT_EQ(f.cache.hits.value(), 1.0) << cfg.name;

        const trace::LatencyBreakdown &bd = f.cache.lastBreakdown();
        EXPECT_DOUBLE_EQ(bd.total(), static_cast<double>(done - issue))
            << cfg.name;
        EXPECT_DOUBLE_EQ(bd.dram, 0.0) << cfg.name;
        // Uncontended: no queueing anywhere on the critical path.
        EXPECT_DOUBLE_EQ(bd.queueWait, 0.0) << cfg.name;
        EXPECT_DOUBLE_EQ(bd.bank,
                         static_cast<double>(
                             f.cache.bankAccessCycles()))
            << cfg.name;
        EXPECT_GT(bd.wire, 0.0) << cfg.name;
    }
}

TEST(Breakdown, TlcMissComponentsSumToEndToEnd)
{
    TlcFixture f(tlc::baseTlc());
    Addr addr = 0x4321;
    Tick issue = 500, done = 0;
    f.cache.access(mem::MemRequest{addr, AccessType::Load, issue},
                   [&](Tick t) { done = t; });
    f.eq.run();
    ASSERT_EQ(f.cache.misses.value(), 1.0);

    const trace::LatencyBreakdown &bd = f.cache.lastBreakdown();
    EXPECT_DOUBLE_EQ(bd.total(), static_cast<double>(done - issue));
    EXPECT_GT(bd.dram, 0.0);
    EXPECT_EQ(f.cache.dramLatency.count(), 1u);
}

TEST(Breakdown, TlcContendedRequestShowsQueueWait)
{
    // Two loads to the same group issued in the same cycle: the
    // second serializes behind the first on the shared links/banks
    // and its breakdown must attribute the wait to queueing while
    // still summing exactly.
    TlcFixture f(tlc::baseTlc());
    Addr a = 0x1000, b = a + 0x10000; // same group, different sets
    ASSERT_EQ(f.cache.config().groups(),
              32); // stride keeps the group equal
    f.cache.accessFunctional(a, AccessType::Load);
    f.cache.accessFunctional(b, AccessType::Load);

    Tick done_a = 0, done_b = 0;
    Tick issue = 100;
    f.cache.access(mem::MemRequest{a, AccessType::Load, issue},
                   [&](Tick t) { done_a = t; });
    trace::LatencyBreakdown bd_a = f.cache.lastBreakdown();
    f.cache.access(mem::MemRequest{b, AccessType::Load, issue},
                   [&](Tick t) { done_b = t; });
    trace::LatencyBreakdown bd_b = f.cache.lastBreakdown();
    f.eq.run();
    ASSERT_EQ(f.cache.hits.value(), 2.0);

    EXPECT_DOUBLE_EQ(bd_a.total(), static_cast<double>(done_a - issue));
    EXPECT_DOUBLE_EQ(bd_b.total(), static_cast<double>(done_b - issue));
    EXPECT_GT(done_b, done_a);
    EXPECT_DOUBLE_EQ(bd_a.queueWait, 0.0);
    EXPECT_GT(bd_b.queueWait, 0.0);
    // The contended request loses no cycles to unexplained latency:
    // its wire and bank components match the uncontended request's.
    EXPECT_DOUBLE_EQ(bd_b.wire, bd_a.wire);
    EXPECT_DOUBLE_EQ(bd_b.bank, bd_a.bank);
}

TEST(Breakdown, TlcDistributionsCountEveryDemandRequest)
{
    TlcFixture f(tlc::tlcOpt500());
    for (int i = 0; i < 8; ++i) {
        f.cache.access(mem::MemRequest{static_cast<Addr>(0x40 + i * 7),
                                       AccessType::Load,
                                       static_cast<Tick>(i * 500)},
                       [](Tick) {});
        f.eq.run();
    }
    EXPECT_EQ(f.cache.queueWaitLatency.count(), 8u);
    EXPECT_EQ(f.cache.wireLatency.count(), 8u);
    EXPECT_EQ(f.cache.bankLatency.count(), 8u);
    EXPECT_EQ(f.cache.dramLatency.count(), 8u);
}

TEST(Breakdown, SnucaHitComponentsSumToLatency)
{
    SnucaFixture f;
    Addr addr = 0x777;
    f.cache.accessFunctional(addr, AccessType::Load);
    Tick issue = 2000, done = 0;
    f.cache.access(mem::MemRequest{addr, AccessType::Load, issue},
                   [&](Tick t) { done = t; });
    f.eq.run();
    ASSERT_EQ(f.cache.hits.value(), 1.0);

    const trace::LatencyBreakdown &bd = f.cache.lastBreakdown();
    EXPECT_DOUBLE_EQ(bd.total(), static_cast<double>(done - issue));
    EXPECT_DOUBLE_EQ(bd.queueWait, 0.0); // uncontended
    EXPECT_DOUBLE_EQ(bd.dram, 0.0);
    EXPECT_GT(bd.wire, 0.0);
}

TEST(Breakdown, SnucaMissComponentsSumToEndToEnd)
{
    SnucaFixture f;
    Tick issue = 300, done = 0;
    f.cache.access(mem::MemRequest{0x888, AccessType::Load, issue},
                   [&](Tick t) { done = t; });
    f.eq.run();
    ASSERT_EQ(f.cache.misses.value(), 1.0);

    const trace::LatencyBreakdown &bd = f.cache.lastBreakdown();
    EXPECT_DOUBLE_EQ(bd.total(), static_cast<double>(done - issue));
    EXPECT_GT(bd.dram, 0.0);
}

TEST(Breakdown, DnucaHitComponentsSumToLatency)
{
    DnucaFixture f;
    Addr addr = 0x55;
    f.cache.accessFunctional(addr, AccessType::Load);
    Tick issue = 1500, done = 0;
    f.cache.access(mem::MemRequest{addr, AccessType::Load, issue},
                   [&](Tick t) { done = t; });
    f.eq.run();
    ASSERT_EQ(f.cache.hits.value(), 1.0);

    const trace::LatencyBreakdown &bd = f.cache.lastBreakdown();
    EXPECT_DOUBLE_EQ(bd.total(), static_cast<double>(done - issue));
    EXPECT_GE(bd.queueWait, 0.0);
    EXPECT_GT(bd.wire, 0.0);
    EXPECT_GT(bd.bank, 0.0);
}

TEST(Breakdown, DnucaMissComponentsSumToEndToEnd)
{
    DnucaFixture f;
    Tick issue = 400, done = 0;
    f.cache.access(mem::MemRequest{0xabc, AccessType::Load, issue},
                   [&](Tick t) { done = t; });
    f.eq.run();
    ASSERT_EQ(f.cache.misses.value(), 1.0);

    const trace::LatencyBreakdown &bd = f.cache.lastBreakdown();
    EXPECT_DOUBLE_EQ(bd.total(), static_cast<double>(done - issue));
    EXPECT_GT(bd.dram, 0.0);
}

TEST(Breakdown, TlcFaultRunComponentsStillSumExactly)
{
    // Under bit-error injection the links retry, stretching requests
    // — the breakdown must attribute every retried cycle, and the
    // Distribution backing (exact sum + log2 buckets) must stay
    // consistent with the per-request breakdowns we observed.
    fault::FaultConfig fcfg;
    fcfg.enabled = true;
    fcfg.bitErrorRate = 0.05;
    fault::Injector injector(fcfg, 7);
    FaultTlcFixture f(tlc::baseTlc(), &injector);

    const int requests = 64;
    double queue_sum = 0.0, wire_sum = 0.0, bank_sum = 0.0,
           dram_sum = 0.0;
    for (int i = 0; i < requests; ++i) {
        Addr addr = static_cast<Addr>(0x40 + i * 0x430);
        f.cache.accessFunctional(addr, AccessType::Load);
        Tick issue = static_cast<Tick>(1000 + i * 400);
        Tick done = 0;
        f.cache.access(mem::MemRequest{addr, AccessType::Load, issue},
                       [&](Tick t) { done = t; });
        f.eq.run();
        const trace::LatencyBreakdown &bd = f.cache.lastBreakdown();
        EXPECT_DOUBLE_EQ(bd.total(),
                         static_cast<double>(done - issue))
            << "request " << i;
        queue_sum += bd.queueWait;
        wire_sum += bd.wire;
        bank_sum += bd.bank;
        dram_sum += bd.dram;
    }
    // The error stream actually fired (otherwise this tests nothing).
    EXPECT_GT(injector.errorsInjected(), 0u);

    // Exact-sum invariant: the Distribution's running sum equals the
    // accumulated breakdowns bit for bit — log bucketing never
    // perturbs it.
    EXPECT_DOUBLE_EQ(f.cache.queueWaitLatency.sum(), queue_sum);
    EXPECT_DOUBLE_EQ(f.cache.wireLatency.sum(), wire_sum);
    EXPECT_DOUBLE_EQ(f.cache.bankLatency.sum(), bank_sum);
    EXPECT_DOUBLE_EQ(f.cache.dramLatency.sum(), dram_sum);

    // Every sample landed in exactly one log2 bucket, and the
    // percentile view built on them is ordered.
    for (const stats::Distribution *dist :
         {&f.cache.queueWaitLatency, &f.cache.wireLatency,
          &f.cache.bankLatency, &f.cache.dramLatency}) {
        EXPECT_EQ(dist->count(), static_cast<std::uint64_t>(requests));
        EXPECT_EQ(logBucketTotal(*dist), dist->count());
        EXPECT_LE(dist->p50(), dist->p95());
        EXPECT_LE(dist->p95(), dist->p99());
        EXPECT_GE(dist->p50(), 0.0);
    }
}

TEST(Breakdown, DistributionPercentilesCoverOutOfRangeSamples)
{
    stats::StatGroup root("root");
    stats::Distribution dist(&root, "d", "test", 0.0, 10.0, 10);
    // 90 in-range samples and 10 far past hi: quantile() saturates at
    // hi, while percentile() keeps resolving the tail.
    for (int i = 0; i < 90; ++i)
        dist.sample(5.0);
    for (int i = 0; i < 10; ++i)
        dist.sample(5000.0);

    EXPECT_EQ(dist.overflow(), 10u);
    EXPECT_DOUBLE_EQ(dist.sum(), 90 * 5.0 + 10 * 5000.0);
    EXPECT_EQ(logBucketTotal(dist), 100u);
    EXPECT_LT(dist.p50(), 10.0);
    EXPECT_GT(dist.p95(), 1000.0); // sees past the linear range
    EXPECT_GE(dist.p99(), dist.p95());
}

TEST(Breakdown, AccumulatesAcrossComponents)
{
    trace::LatencyBreakdown a{1.0, 2.0, 3.0, 4.0};
    trace::LatencyBreakdown b{10.0, 20.0, 30.0, 40.0};
    a += b;
    EXPECT_DOUBLE_EQ(a.queueWait, 11.0);
    EXPECT_DOUBLE_EQ(a.wire, 22.0);
    EXPECT_DOUBLE_EQ(a.bank, 33.0);
    EXPECT_DOUBLE_EQ(a.dram, 44.0);
    EXPECT_DOUBLE_EQ(a.total(), 110.0);
}
