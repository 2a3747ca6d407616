/**
 * @file
 * Synthetic address-trace generator driven by a BenchmarkProfile.
 */

#ifndef TLSIM_WORKLOAD_GENERATOR_HH
#define TLSIM_WORKLOAD_GENERATOR_HH

#include "cpu/trace.hh"
#include "sim/rng.hh"
#include "workload/profile.hh"

namespace tlsim
{
namespace workload
{

/**
 * Generates an infinite instruction/data reference stream with the
 * locality structure described by a BenchmarkProfile.
 *
 * Data references fall into three classes:
 *  - hot: uniform over a small set that largely lives in the L1;
 *  - warm: Zipf-skewed over an L2-scale working set;
 *  - stream: sequential over a large region with no short-term reuse.
 *
 * Instruction fetch proceeds sequentially through a code footprint
 * with occasional jumps, emitting an ifetch record at each 64 B block
 * transition.
 *
 * The generator is deterministic given (profile.seed, run_seed).
 */
class TraceGenerator final : public cpu::TraceSource
{
  public:
    /** Region bases in block-address space. */
    static constexpr Addr hotBase = Addr(1) << 24;
    static constexpr Addr warmBase = Addr(1) << 26;
    static constexpr Addr streamBase = Addr(1) << 28;
    static constexpr Addr instrBase = Addr(1) << 30;
    static constexpr Addr churnBase = Addr(1) << 32;

    TraceGenerator(const BenchmarkProfile &profile,
                   std::uint64_t run_seed = 0);

    cpu::TraceRecord next() override;

    const BenchmarkProfile &profile() const { return prof; }

    /**
     * Bijective scramble of [0, n): multiplicative permutation over
     * the next power of two with cycle-walking (decouples Zipf rank
     * from block position).
     */
    static std::uint64_t scramble(std::uint64_t r, std::uint64_t n);

    /**
     * Injective randomization of a block address's tag bits (16..23),
     * preserving set indices and region membership; see generator.cc.
     */
    static Addr tagScramble(Addr block);

  private:
    /** Draw the next data record (without the leading gap). */
    void drawDataOp();

    /** Advance the instruction stream to its next block. */
    Addr nextInstrBlock(bool jumped);

    BenchmarkProfile prof;
    Rng rng;

    /** The profile's draws, with their constants precomputed. */
    GeometricDist ifetchGap; ///< instructions between ifetches, less 1
    GeometricDist dataGap;   ///< instructions before a data op
    ZipfDist warmRank;
    ZipfDist instrRank;
    BernoulliDist store;
    BernoulliDist depends;
    /** Two thresholds on one draw: hot below, warm below hotOrWarm. */
    BernoulliDist hot;
    BernoulliDist hotOrWarm;
    BernoulliDist warmReuse;
    BernoulliDist churn;
    BernoulliDist jump;
    BernoulliDist mispredict;

    bool havePendingData = false;
    cpu::TraceRecord pendingData;
    std::uint64_t remainingGap = 0;
    std::uint64_t instrToNextIFetch;

    Addr curIBlock;
    std::uint64_t streamPtr = 0;
    std::uint64_t churnPtr = 0;

    /** Recent warm blocks, for temporally clustered re-references. */
    std::vector<Addr> recentWarm;
    std::size_t recentWarmNext = 0;

};

} // namespace workload
} // namespace tlsim

#endif // TLSIM_WORKLOAD_GENERATOR_HH
