#include "workload/generator.hh"

#include <algorithm>

namespace tlsim
{
namespace workload
{

namespace
{

/** Convert mispredicts/1K-instr into a per-jump probability. */
double
mispredictPerJump(const BenchmarkProfile &prof)
{
    double jumps_per_1k =
        1000.0 / std::max(1.0, prof.instrPerIBlock) * prof.jumpProb;
    if (jumps_per_1k > 0.0)
        return std::min(1.0, prof.mispredictsPer1k / jumps_per_1k);
    return 0.0;
}

} // namespace

TraceGenerator::TraceGenerator(const BenchmarkProfile &profile,
                               std::uint64_t run_seed)
    : prof(profile),
      rng(profile.seed * 0x9e3779b97f4a7c15ULL + run_seed),
      ifetchGap(std::max(1.0, prof.instrPerIBlock) - 1.0),
      dataGap(std::max(1.0, prof.instrPerMem) - 1.0),
      warmRank(prof.warmBlocks, prof.zipfS),
      instrRank(prof.iBlocks, prof.iZipfS),
      store(prof.storeFrac),
      depends(prof.depFrac),
      hot(prof.hotFrac),
      hotOrWarm(prof.hotFrac + prof.warmFrac),
      warmReuse(prof.warmReuseFrac),
      churn(prof.churnFrac),
      jump(prof.jumpProb),
      mispredict(mispredictPerJump(prof)),
      curIBlock(instrBase)
{
    TLSIM_ASSERT(prof.hotFrac + prof.warmFrac <= 1.0,
                 "profile '{}' fractions exceed 1", prof.name);
    instrToNextIFetch = 1 + ifetchGap(rng);
}

std::uint64_t
TraceGenerator::scramble(std::uint64_t r, std::uint64_t n)
{
    if (n <= 2)
        return r;
    std::uint64_t m = 1;
    while (m < n)
        m <<= 1;
    do {
        r = (r * 0x9E3779B97F4A7C15ULL) & (m - 1);
    } while (r >= n);
    return r;
}

Addr
TraceGenerator::tagScramble(Addr block)
{
    // XOR bits 16..23 with a hash of the untouched bits: injective,
    // keeps the block in its (>= 2^24-spaced) region, preserves
    // every design's set-index bits (< 16), and gives the tag bits
    // the random low-order structure real address streams have —
    // without it the power-of-two-aligned regions would collide
    // systematically in the 6-bit partial tags.
    constexpr Addr mask = Addr(0xFF) << 16;
    Addr keep = block & ~mask;
    std::uint64_t h = keep * 0x9E3779B97F4A7C15ULL;
    return block ^ ((h >> 32) & mask);
}

void
TraceGenerator::drawDataOp()
{
    pendingData = cpu::TraceRecord{};
    pendingData.isIFetch = false;
    pendingData.type = store(rng) ? mem::AccessType::Store
                                  : mem::AccessType::Load;
    pendingData.dependsOnPrev = depends(rng);

    std::uint64_t u = rng.bits53();
    if (hot.hit(u)) {
        pendingData.blockAddr = hotBase + rng.below(prof.hotBlocks);
    } else if (hotOrWarm.hit(u)) {
        Addr block;
        if (!recentWarm.empty() && warmReuse(rng)) {
            // Temporally clustered re-reference of a recent block.
            block = recentWarm[rng.below(recentWarm.size())];
        } else {
            block = warmBase +
                    scramble(warmRank(rng), prof.warmBlocks);
            if (recentWarm.size() < prof.reuseWindow) {
                recentWarm.push_back(block);
            } else {
                recentWarm[recentWarmNext] = block;
                recentWarmNext =
                    (recentWarmNext + 1) % recentWarm.size();
            }
        }
        pendingData.blockAddr = block;
    } else {
        pendingData.blockAddr =
            streamBase + (streamPtr % prof.streamBlocks);
        ++streamPtr;
    }

    // Slow working-set churn: touch a brand-new block.
    if (prof.churnFrac > 0.0 && churn(rng))
        pendingData.blockAddr = churnBase + churnPtr++;

    pendingData.blockAddr = tagScramble(pendingData.blockAddr);

    remainingGap = dataGap(rng);
    havePendingData = true;
}

Addr
TraceGenerator::nextInstrBlock(bool jumped)
{
    if (jumped) {
        curIBlock = instrBase + instrRank(rng);
    } else {
        Addr offset = curIBlock - instrBase;
        curIBlock = instrBase + ((offset + 1) % prof.iBlocks);
    }
    return curIBlock;
}

cpu::TraceRecord
TraceGenerator::next()
{
    if (!havePendingData)
        drawDataOp();

    if (instrToNextIFetch <= remainingGap) {
        cpu::TraceRecord rec;
        rec.isIFetch = true;
        rec.gap = static_cast<std::uint32_t>(instrToNextIFetch);
        bool jumped = jump(rng);
        rec.blockAddr = tagScramble(nextInstrBlock(jumped));
        rec.mispredict = jumped && mispredict(rng);
        remainingGap -= instrToNextIFetch;
        instrToNextIFetch = 1 + ifetchGap(rng);
        return rec;
    }

    cpu::TraceRecord rec = pendingData;
    rec.gap = static_cast<std::uint32_t>(remainingGap);
    instrToNextIFetch -= remainingGap + 1; // the op itself counts
    havePendingData = false;
    return rec;
}

} // namespace workload
} // namespace tlsim
