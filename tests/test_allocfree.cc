/**
 * @file
 * Allocation guard for the timed memory path. A counting global
 * operator new shows that once a timed warm-up has grown every pool
 * (event-queue one-shots, per-request L2 slots, MSHR target lists,
 * controller queues), a steady-state measure window makes no heap
 * allocation at all: not in the core, the L1s, any L2 design, the
 * mesh, either memory backend, nor the fault protocol.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "harness/system.hh"
#include "workload/profile.hh"

namespace
{

// The simulator runs single-threaded here; plain globals suffice.
bool counting = false;
std::uint64_t allocations = 0;

void *
countedAlloc(std::size_t bytes)
{
    if (counting)
        ++allocations;
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t bytes, std::align_val_t align)
{
    if (counting)
        ++allocations;
    auto a = static_cast<std::size_t>(align);
    std::size_t rounded =
        (std::max<std::size_t>(bytes, 1) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace tlsim;

namespace
{

struct GuardCase
{
    const char *design;
    const char *backend;
    bool faults;
};

void
PrintTo(const GuardCase &c, std::ostream *os)
{
    *os << c.design << "/" << c.backend << (c.faults ? "/faults" : "");
}

class AllocFree : public ::testing::TestWithParam<GuardCase>
{};

/**
 * Run a memory-heavy benchmark and count heap allocations over the
 * measure window only: functional warm, the timed warm-up (which
 * grows the pools to their working size) and the result extraction
 * fall outside it.
 */
TEST_P(AllocFree, SteadyStateMeasureWindowAllocatesNothing)
{
    const GuardCase &c = GetParam();
    harness::SystemConfig config;
    config.design = c.design;
    config.mem.backend = c.backend;
    config.functionalWarm = 300'000;
    config.warmup = 300'000;
    config.measure = 120'000;
    if (c.faults) {
        // faults_ddr_cmp's fault model: margin-weighted transient
        // link errors (CRC retries, NACKs) and a link dead from t=0.
        config.fault.enabled = true;
        config.fault.bitErrorRate = 2e-3;
        config.fault.deriveFromMargin = true;
        config.fault.deadLinks = "0@0";
    }

    double requests = 0.0;
    harness::RunObserver observer;
    observer.onMeasureBegin = [](harness::System &) {
        allocations = 0;
        counting = true;
    };
    observer.onMeasureEnd = [&requests](harness::System &system) {
        counting = false;
        requests = system.l2().requests.value();
    };
    harness::runBenchmark(config, workload::profileByName("mcf"), 0,
                          &observer);

    ASSERT_GT(requests, 1000.0) << "the window must exercise the L2";
    EXPECT_EQ(allocations, 0u)
        << allocations << " allocations over " << requests
        << " L2 requests (" << static_cast<double>(allocations) / requests
        << " per request)";
}

INSTANTIATE_TEST_SUITE_P(
    TimedPath, AllocFree,
    ::testing::Values(GuardCase{"SNUCA2", "fixed", false},
                      GuardCase{"DNUCA", "fixed", false},
                      GuardCase{"TLC", "fixed", false},
                      GuardCase{"SNUCA2", "ddr", true},
                      GuardCase{"TLC", "ddr", true}),
    [](const ::testing::TestParamInfo<GuardCase> &info) {
        std::string name = std::string(info.param.design) + "_" +
                           info.param.backend;
        return info.param.faults ? name + "_faults" : name;
    });

} // namespace
