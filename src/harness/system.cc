#include "harness/system.hh"

#include <algorithm>
#include <optional>
#include <cstring>
#include <new>
#include <sstream>

#include <sys/mman.h>

#include "mem/l2registry.hh"
#include "mem/memregistry.hh"
#include "mem/warmstate.hh"
#include "nuca/dnuca.hh"
#include "sim/prof/prof.hh"
#include "tlc/tlccache.hh"

namespace tlsim
{
namespace harness
{

const std::vector<DesignKind> &
allDesigns()
{
    static const std::vector<DesignKind> designs = {
        DesignKind::Snuca2,     DesignKind::Dnuca,
        DesignKind::TlcBase,    DesignKind::TlcOpt1000,
        DesignKind::TlcOpt500,  DesignKind::TlcOpt350,
    };
    return designs;
}

const std::vector<DesignKind> &
tlcFamily()
{
    static const std::vector<DesignKind> designs = {
        DesignKind::TlcBase, DesignKind::TlcOpt1000,
        DesignKind::TlcOpt500, DesignKind::TlcOpt350,
    };
    return designs;
}

std::string
designName(DesignKind kind)
{
    // The compat shim's whole job: map the legacy enum onto registry
    // names. The designs themselves (and their factories) own the
    // names; this table is validated against the registry below.
    static const char *const names[] = {
        "SNUCA2", "DNUCA", "TLC", "TLCopt1000", "TLCopt500",
        "TLCopt350",
    };
    auto idx = static_cast<std::size_t>(kind);
    TLSIM_ASSERT(idx < std::size(names), "unknown design kind");
    TLSIM_ASSERT(l2::Registry::known(names[idx]),
                 "paper design '{}' missing from the registry",
                 names[idx]);
    return names[idx];
}

namespace
{

SystemConfig
configFor(DesignKind kind, const cpu::CoreConfig &core_config)
{
    SystemConfig config;
    config.design = designName(kind);
    config.core = core_config;
    return config;
}

} // namespace

void
WarmOpStream::Unmap::operator()(std::uint8_t *chunk) const
{
    ::munmap(chunk, chunkBytes);
}

void
WarmOpStream::addChunk()
{
    void *chunk = ::mmap(nullptr, chunkBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (chunk == MAP_FAILED)
        throw std::bad_alloc();
    chunks.emplace_back(static_cast<std::uint8_t *>(chunk));
    used = 0;
}

bool
WarmOpStream::operator==(const WarmOpStream &other) const
{
    if (count != other.count || byteSize() != other.byteSize())
        return false;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        std::size_t n = c + 1 < chunks.size() ? chunkBytes : used;
        if (std::memcmp(chunks[c].get(), other.chunks[c].get(), n) != 0)
            return false;
    }
    return true;
}

System::System(const SystemConfig &config,
               std::uint64_t fault_stream_seed)
    : cfg(config), tech(technologyForNode(config.technologyNm)),
      rootGroup("system")
{
    TLSIM_ASSERT(cfg.cores >= 1, "machine needs at least one core");
    // The injector precedes the memory backend: banked backends take
    // a raw Injector pointer for DRAM stuck-bank faults.
    if (cfg.fault.enabled) {
        faultInjector = std::make_unique<fault::Injector>(
            cfg.fault, fault_stream_seed);
        faultWatchdog = std::make_unique<fault::Watchdog>(
            cfg.fault.watchdogMaxAge);
    }
    dramModel = mem::MemRegistry::build(
        cfg.mem.backend,
        mem::MemBuildContext{eq, &rootGroup, cfg.mem.options,
                             faultInjector.get()});
    l2Cache = l2::Registry::build(
        cfg.design,
        l2::BuildContext{eq, &rootGroup, *dramModel, tech,
                         cfg.l2Options, faultInjector.get()});
    if (faultWatchdog) {
        faultWatchdog->setDiagnostic(
            [this] { l2Cache->dumpFaultDiagnostic(); });
    }

    cores.reserve(static_cast<std::size_t>(cfg.cores));
    for (int i = 0; i < cfg.cores; ++i) {
        CoreSlot slot;
        stats::StatGroup *parent = &rootGroup;
        if (cfg.cores > 1) {
            // Multi-core machines group each core's stats under
            // "coreN"; single-core keeps the legacy flat layout so
            // existing stats JSON consumers see identical shapes.
            slot.group = std::make_unique<stats::StatGroup>(
                csprintf("core{}", i), &rootGroup);
            parent = slot.group.get();
        }
        slot.icache = std::make_unique<mem::L1Cache>(
            "l1i", eq, parent, *l2Cache, cfg.l1i.bytes, cfg.l1i.ways,
            cfg.l1i.hitLatency, cfg.l1i.mshrs, i, &requestIds);
        slot.dcache = std::make_unique<mem::L1Cache>(
            "l1d", eq, parent, *l2Cache, cfg.l1d.bytes, cfg.l1d.ways,
            cfg.l1d.hitLatency, cfg.l1d.mshrs, i, &requestIds);
        slot.core = std::make_unique<cpu::OoOCore>(
            eq, parent, *slot.icache, *slot.dcache, cfg.core, i);
        if (faultWatchdog) {
            slot.icache->setWatchdog(
                faultWatchdog.get(),
                faultWatchdog->addClient(csprintf("core{}.l1i", i)));
            slot.dcache->setWatchdog(
                faultWatchdog.get(),
                faultWatchdog->addClient(csprintf("core{}.l1d", i)));
            slot.core->setWatchdog(faultWatchdog.get());
        }
        cores.push_back(std::move(slot));
    }
}

System::System(DesignKind kind, const cpu::CoreConfig &core_config)
    : System(configFor(kind, core_config))
{}

System::~System() = default;

void
System::armRunTimeout(double seconds)
{
    if (seconds <= 0.0)
        return;
    if (!faultWatchdog) {
        // No fault-injection watchdog: install one whose tick bound
        // is unreachable, so the wall deadline is its only trigger.
        faultWatchdog = std::make_unique<fault::Watchdog>(MaxTick);
        faultWatchdog->setDiagnostic(
            [this] { l2Cache->dumpFaultDiagnostic(); });
        for (std::size_t i = 0; i < cores.size(); ++i) {
            CoreSlot &slot = cores[i];
            slot.icache->setWatchdog(
                faultWatchdog.get(),
                faultWatchdog->addClient(csprintf("core{}.l1i", i)));
            slot.dcache->setWatchdog(
                faultWatchdog.get(),
                faultWatchdog->addClient(csprintf("core{}.l1d", i)));
            slot.core->setWatchdog(faultWatchdog.get());
        }
    }
    faultWatchdog->setWallDeadline(seconds);
}

void
System::beginMeasurement()
{
    rootGroup.resetStats();
    l2Cache->beginMeasurement();
}

namespace
{

/**
 * Forwards functional ops to the L2 and appends each to a warm
 * image's op stream, in the order the L1s sent them.
 */
struct WarmRecorder
{
    mem::L2Cache &l2;
    WarmOpStream &ops;

    void
    accessFunctional(Addr block_addr, mem::AccessType type)
    {
        ops.push(block_addr, type);
        l2.accessFunctional(block_addr, type);
    }
};

} // namespace

template <typename Sink>
std::uint64_t
System::warmRecord(CoreSlot &slot, const cpu::TraceRecord &record,
                   Sink &sink)
{
    if (record.isIFetch) {
        slot.icache->accessFunctional(record.blockAddr,
                                      mem::AccessType::InstFetch, sink);
        return record.gap;
    }
    slot.dcache->accessFunctional(record.blockAddr, record.type, sink);
    return record.gap + 1;
}

template <typename Sink>
void
System::warmLoop(cpu::TraceSource &source, std::uint64_t instructions,
                 int core_idx, Sink &sink)
{
    CoreSlot &slot = cores[static_cast<std::size_t>(
        checkIndex(core_idx))];
    // On the (final) synthetic generator next() is a direct, inlinable
    // call; any other source keeps the virtual one.
    auto run = [&](auto &src) {
        std::uint64_t executed = 0;
        while (executed < instructions)
            executed += warmRecord(slot, src.next(), sink);
    };
    if (auto *gen = dynamic_cast<workload::TraceGenerator *>(&source))
        run(*gen);
    else
        run(source);
}

void
System::functionalWarm(cpu::TraceSource &source,
                       std::uint64_t instructions, int core_idx)
{
    warmLoop(source, instructions, core_idx, *l2Cache);
}

void
System::functionalWarm(cpu::TraceSource &source,
                       std::uint64_t instructions, int core_idx,
                       WarmOpStream &record)
{
    WarmRecorder recorder{*l2Cache, record};
    warmLoop(source, instructions, core_idx, recorder);
}

std::uint64_t
System::functionalWarmRecord(const cpu::TraceRecord &record,
                             int core_idx)
{
    return warmRecord(cores[static_cast<std::size_t>(
                          checkIndex(core_idx))],
                      record, *l2Cache);
}

void
System::replayWarmImage(const WarmImage &image)
{
    std::istringstream l1_state(image.l1State);
    if (!loadL1WarmState(l1_state))
        panic("warm image does not fit this machine's L1s");
    image.ops.forEach([this](Addr block_addr, mem::AccessType type) {
        l2Cache->accessFunctional(block_addr, type);
    });
}

void
System::saveL1WarmState(std::ostream &os) const
{
    mem::warm::putU32(os, static_cast<std::uint32_t>(cores.size()));
    for (const CoreSlot &slot : cores) {
        slot.icache->saveWarmState(os);
        slot.dcache->saveWarmState(os);
    }
}

bool
System::loadL1WarmState(std::istream &is)
{
    std::uint32_t n = 0;
    if (!mem::warm::getU32(is, n) || n != cores.size())
        return false;
    for (CoreSlot &slot : cores) {
        if (!slot.icache->loadWarmState(is) ||
            !slot.dcache->loadWarmState(is))
            return false;
    }
    return true;
}

bool
System::saveWarmState(std::ostream &os)
{
    saveL1WarmState(os);
    return l2Cache->saveWarmState(os);
}

bool
System::loadWarmState(std::istream &is)
{
    return loadL1WarmState(is) && l2Cache->loadWarmState(is);
}

namespace
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
maxCurrentCycle(System &system)
{
    std::uint64_t cycle = 0;
    for (int i = 0; i < system.numCores(); ++i)
        cycle = std::max(cycle, system.core(i).currentCycle());
    return cycle;
}

/**
 * Execute @p instructions on every core (each from its own trace)
 * and return the elapsed wall-clock cycles. Single-core runs take
 * the direct path — bit-identical to the pre-CMP runner. Multi-core
 * runs time-multiplex the cores in round-robin quanta on the shared
 * event queue (the classic Simics-style CMP interleaving).
 */
std::uint64_t
runCores(System &system,
         std::vector<workload::TraceGenerator> &gens,
         std::uint64_t instructions, std::uint64_t quantum)
{
    if (instructions == 0)
        return 0;
    int n = system.numCores();
    if (n == 1)
        return system.core().run(gens[0], instructions);

    quantum = std::max<std::uint64_t>(quantum, 1);
    std::uint64_t start = maxCurrentCycle(system);
    std::vector<std::uint64_t> remaining(
        static_cast<std::size_t>(n), instructions);
    bool active = true;
    while (active) {
        active = false;
        for (int i = 0; i < n; ++i) {
            auto &left = remaining[static_cast<std::size_t>(i)];
            if (left == 0)
                continue;
            std::uint64_t chunk = std::min(left, quantum);
            // A core resuming after the others advanced global time
            // must not issue accesses in the past.
            system.core(i).catchUp();
            system.core(i).run(gens[i], chunk);
            left -= chunk;
            if (left > 0)
                active = true;
        }
    }
    return maxCurrentCycle(system) - start;
}

/**
 * runBenchmark with an optional warm image: null warms as always;
 * otherwise @p replay says whether to restore the image or to record
 * into it.
 */
RunResult
runWithImage(const SystemConfig &config,
             const workload::BenchmarkProfile &profile,
             std::uint64_t run_seed, const RunObserver *observer,
             WarmImage *image, bool replay)
{
    prof::Scope prof_run("run");

    SystemConfig run_config = config;
    run_config.core.fetchQuanta = profile.ilpQuanta;
    // The fault stream reuses the run seed: the fault schedule is a
    // pure function of the spec, identical serial vs parallel.
    std::optional<System> system_storage;
    {
        prof::Scope prof_build("build");
        system_storage.emplace(run_config, run_seed);
    }
    System &system = *system_storage;
    if (observer && observer->onSystemBuilt)
        observer->onSystemBuilt(system);
    int n = system.numCores();
    if (run_config.functionalWarm == 0)
        image = nullptr;

    // Long functional warmup (paper methodology: caches warmed over
    // hundreds of millions of instructions), then a short timed
    // warmup to populate contention state.
    std::vector<workload::TraceGenerator> gens;
    if (image && replay) {
        prof::Scope prof_replay("funcwarm.replay");
        TLSIM_ASSERT(image->generators.size() ==
                         static_cast<std::size_t>(n),
                     "warm image has {} generators for {} cores",
                     image->generators.size(), n);
        system.replayWarmImage(*image);
        gens = image->generators;
    } else {
        // Core 0 uses run_seed exactly so single-core runs reproduce
        // the pre-CMP runner bit-for-bit; the other cores derive
        // distinct, deterministic streams from it.
        gens.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            std::uint64_t seed =
                i == 0 ? run_seed
                       : splitmix64(run_seed +
                                    static_cast<std::uint64_t>(i));
            gens.emplace_back(profile, seed);
        }
        if (run_config.functionalWarm > 0) {
            prof::Scope prof_funcwarm("funcwarm");
            if (image)
                image->clear();
            for (int i = 0; i < n; ++i) {
                auto &gen = gens[static_cast<std::size_t>(i)];
                if (image) {
                    system.functionalWarm(gen, run_config.functionalWarm,
                                          i, image->ops);
                } else {
                    system.functionalWarm(gen, run_config.functionalWarm,
                                          i);
                }
            }
            if (image) {
                std::ostringstream l1_state;
                system.saveL1WarmState(l1_state);
                image->l1State = l1_state.str();
                image->generators = gens;
            }
        }
    }
    {
        prof::Scope prof_warmup("warmup");
        runCores(system, gens, run_config.warmup,
                 run_config.coreQuantum);
    }

    system.beginMeasurement();
    if (observer && observer->onMeasureBegin)
        observer->onMeasureBegin(system);
    std::uint64_t cycles;
    {
        prof::Scope prof_measure("measure");
        cycles = runCores(system, gens, run_config.measure,
                          run_config.coreQuantum);
    }
    system.l2().syncStats();
    if (observer && observer->onMeasureEnd)
        observer->onMeasureEnd(system);

    std::uint64_t measured_instructions =
        run_config.measure * static_cast<std::uint64_t>(n);
    return extractRunResult(system, cycles, measured_instructions,
                            profile.name);
}

} // namespace

RunResult
runBenchmark(const SystemConfig &config,
             const workload::BenchmarkProfile &profile,
             std::uint64_t run_seed, const RunObserver *observer)
{
    return runWithImage(config, profile, run_seed, observer, nullptr,
                        false);
}

RunResult
runBenchmark(const SystemConfig &config,
             const workload::BenchmarkProfile &profile,
             std::uint64_t run_seed, const RunObserver *observer,
             WarmImage &image, WarmImageUse use)
{
    return runWithImage(config, profile, run_seed, observer, &image,
                        use == WarmImageUse::Replay);
}

RunResult
extractRunResult(System &system, std::uint64_t cycles,
                 std::uint64_t measured_instructions,
                 const std::string &benchmark)
{
    mem::L2Cache &l2 = system.l2();
    RunResult result;
    result.design = l2.designName();
    result.benchmark = benchmark;
    result.cycles = cycles;
    result.instructions = measured_instructions;
    result.ipc = cycles > 0
                     ? static_cast<double>(measured_instructions) /
                           static_cast<double>(cycles)
                     : 0.0;

    double instr_k =
        static_cast<double>(measured_instructions) / 1000.0;
    result.l2RequestsPer1k = l2.demandRequests.value() / instr_k;
    result.l2MissesPer1k = l2.misses.value() / instr_k;
    result.meanLookupLatency = l2.lookupLatency.mean();
    double lookups = l2.lookupLatency.count()
                         ? static_cast<double>(l2.lookupLatency.count())
                         : 1.0;
    result.predictablePct =
        100.0 * l2.predictableLookups.value() / lookups;
    result.banksPerRequest = l2.banksAccessed.mean();

    const phys::Technology &tech = system.technology();
    double seconds = static_cast<double>(cycles) * tech.cycleTime();
    result.networkPowerMw =
        seconds > 0.0 ? 1000.0 * l2.networkEnergy.value() / seconds
                      : 0.0;
    result.linkUtilizationPct = 100.0 * l2.linkUtilization(cycles);

    if (auto *dnuca = dynamic_cast<nuca::DnucaCache *>(&l2)) {
        // Close-hit rate is reported against all lookups (Table 6).
        result.closeHitPct = 100.0 * dnuca->closeHits.value() / lookups;
        double ins = l2.inserts.value() > 0 ? l2.inserts.value() : 1.0;
        result.promotesPerInsert = dnuca->promotions.value() / ins;
        double dm = l2.misses.value() > 0 ? l2.misses.value() : 1.0;
        result.fastMissPct = 100.0 * dnuca->fastMisses.value() / dm;
    }
    if (auto *tlc_cache = dynamic_cast<tlc::TlcCache *>(&l2)) {
        result.multiMatchPct =
            100.0 * tlc_cache->multiMatches.value() / lookups;
    }

    result.queueWaitMean = l2.queueWaitLatency.mean();
    result.wireMean = l2.wireLatency.mean();
    result.bankMean = l2.bankLatency.mean();
    result.dramMean = l2.dramLatency.mean();
    result.queueWaitSamples = l2.queueWaitLatency.count();
    result.wireSamples = l2.wireLatency.count();
    result.bankSamples = l2.bankLatency.count();
    result.dramSamples = l2.dramLatency.count();

    result.linkRetries = l2.linkRetries.value();
    result.linkTimeouts = l2.linkTimeouts.value();
    result.degradedRequests = l2.degradedRequests.value();
    result.faultMean = l2.faultLatency.mean();
    result.faultSamples = l2.faultLatency.count();
    return result;
}

RunResult
runBenchmark(DesignKind kind, const workload::BenchmarkProfile &profile,
             std::uint64_t warm_instructions,
             std::uint64_t measure_instructions, std::uint64_t run_seed,
             std::uint64_t functional_warm, const RunObserver *observer)
{
    SystemConfig config;
    config.design = designName(kind);
    config.warmup = warm_instructions;
    config.measure = measure_instructions;
    config.functionalWarm = functional_warm;
    return runBenchmark(config, profile, run_seed, observer);
}

} // namespace harness
} // namespace tlsim
