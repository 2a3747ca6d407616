/**
 * @file
 * Tests for TLC's end-to-end ECC retry path (error injection).
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "phys/technology.hh"
#include "tlc/tlccache.hh"

using namespace tlsim;
using namespace tlsim::tlc;
using tlsim::mem::AccessType;

namespace
{

struct Fixture
{
    explicit Fixture(double error_rate)
        : root("root"), dram(eq, &root), cfg(makeConfig(error_rate)),
          cache(eq, &root, dram, phys::tech45(), cfg)
    {}

    static TlcConfig
    makeConfig(double error_rate)
    {
        TlcConfig cfg = baseTlc();
        cfg.lineErrorRate = error_rate;
        return cfg;
    }

    EventQueue eq;
    stats::StatGroup root;
    mem::Dram dram;
    TlcConfig cfg;
    TlcCache cache;
};

} // namespace

TEST(Ecc, CleanLinesNeverRetry)
{
    Fixture f(0.0);
    for (Addr a = 0; a < 50; ++a) {
        f.cache.accessFunctional(a, AccessType::Load);
        f.cache.access(mem::MemRequest{a, AccessType::Load, f.eq.now() + 100},
                       [](Tick) {});
        f.eq.run();
    }
    EXPECT_EQ(f.cache.eccRetries.value(), 0.0);
}

TEST(Ecc, CertainErrorsAlwaysRetry)
{
    Fixture f(1.0);
    f.cache.accessFunctional(0x10, AccessType::Load);
    Tick issue = 100, done = 0;
    f.cache.access(mem::MemRequest{0x10, AccessType::Load, issue},
                   [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_EQ(f.cache.eccRetries.value(), 1.0);
    // The retry is a full second round trip.
    EXPECT_GT(done - issue,
              f.cache.uncontendedLoadLatency(0x10) + 5);
    EXPECT_EQ(f.cache.predictableLookups.value(), 0.0);
}

TEST(Ecc, RetryRateTracksErrorRate)
{
    Fixture f(0.25);
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        Addr a = static_cast<Addr>(i % 64);
        f.cache.accessFunctional(a, AccessType::Load);
        f.cache.access(mem::MemRequest{a, AccessType::Load, f.eq.now() + 50},
                       [](Tick) {});
        f.eq.run();
    }
    double rate = f.cache.eccRetries.value() / n;
    EXPECT_NEAR(rate, 0.25, 0.04);
}

TEST(Ecc, RetriedLookupsStillReturnData)
{
    Fixture f(1.0);
    f.cache.accessFunctional(0x20, AccessType::Load);
    bool delivered = false;
    f.cache.access(mem::MemRequest{0x20, AccessType::Load, 100},
                   [&](Tick) { delivered = true; });
    f.eq.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(f.cache.hits.value(), 1.0);
}

TEST(Ecc, DeterministicInjection)
{
    auto run_once = []() {
        Fixture f(0.3);
        for (int i = 0; i < 500; ++i) {
            Addr a = static_cast<Addr>(i % 32);
            f.cache.accessFunctional(a, AccessType::Load);
            f.cache.access(mem::MemRequest{a, AccessType::Load,
                                           f.eq.now() + 50},
                           [](Tick) {});
            f.eq.run();
        }
        return f.cache.eccRetries.value();
    };
    EXPECT_EQ(run_once(), run_once());
}
