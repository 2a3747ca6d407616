/**
 * @file
 * Declarative machine + experiment configuration.
 *
 * A SystemConfig describes everything harness::System builds and
 * everything a reproduction run needs to be repeatable: core count and
 * microarchitecture, L1 geometries, the technology node, the L2 design
 * under test (by registry name, with design-specific option
 * overrides), and the warmup/measurement instruction budgets. It
 * round-trips through JSON (tlsim_repro --config / --dump-config) and
 * has a stable content hash that folds into the sweep RunSpec key, so
 * the on-disk ResultCache invalidates exactly when the configuration
 * changes.
 */

#ifndef TLSIM_HARNESS_CONFIG_HH
#define TLSIM_HARNESS_CONFIG_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "cpu/ooocore.hh"
#include "mem/l2registry.hh"
#include "phys/technology.hh"
#include "sim/fault/faultconfig.hh"

namespace tlsim
{
namespace harness
{

/** Default functional (timing-free) cache warmup [instructions]. */
constexpr std::uint64_t defaultFunctionalWarmup = 200'000'000;

/** Default timed warmup [instructions]. */
constexpr std::uint64_t defaultWarmup = 3'000'000;

/** Default measurement interval [instructions]. */
constexpr std::uint64_t defaultMeasure = 10'000'000;

/**
 * Main-memory backend selection plus backend-specific options
 * (mem::MemRegistry names; see mem/membackend.hh). The default —
 * backend "fixed" with no options — leaves canonicalKey() and every
 * hash bit-identical to configs predating the backend registry, so
 * existing cache entries and paper artifacts stay valid. Any other
 * backend or option changes the machine hash and therefore mints new
 * ResultCache keys.
 */
struct MemConfig
{
    /** Backend registry name ("fixed", "ddr"). */
    std::string backend = "fixed";

    /** Backend-specific overrides (e.g. "tCAS": 42, "fcfs": 1). */
    conf::OptionMap options;

    bool operator==(const MemConfig &) const = default;
};

/** One private L1 cache's geometry (paper Table 3 defaults). */
struct L1Config
{
    std::uint64_t bytes = 64 * 1024;
    int ways = 2;
    Cycles hitLatency = 3;
    int mshrs = 8;

    bool operator==(const L1Config &) const = default;
};

/**
 * The whole machine plus run budgets, declaratively.
 *
 * Defaults reproduce the paper's single-core 45 nm machine exactly;
 * runBenchmark() with a default-constructed config is bit-identical
 * to the pre-config hard-wired builder.
 */
struct SystemConfig
{
    /** Number of cores sharing the L2 (private split L1s each). */
    int cores = 1;

    /** L2 design registry name ("TLC", "SNUCA2", "TLCopt500", ...). */
    std::string design = "TLC";

    /** Technology node [nm]; 45 is the paper's node. */
    int technologyNm = 45;

    /** Per-core microarchitecture (identical across cores). */
    cpu::CoreConfig core;

    /** Instruction L1 (4 MSHRs: the in-order frontend needs few). */
    L1Config l1i{64 * 1024, 2, 3, 4};

    /** Data L1. */
    L1Config l1d{64 * 1024, 2, 3, 8};

    /** Design-specific L2 overrides (e.g. "lineErrorRate": 1e-12). */
    l2::DesignOptions l2Options;

    /** Main-memory backend and its options (machine identity). */
    MemConfig mem;

    /** Functional warmup budget [instructions]. */
    std::uint64_t functionalWarm = defaultFunctionalWarmup;

    /** Timed warmup budget [instructions, per core]. */
    std::uint64_t warmup = defaultWarmup;

    /** Measurement budget [instructions, per core]. */
    std::uint64_t measure = defaultMeasure;

    /**
     * Round-robin scheduling quantum for multi-core interleaving
     * [instructions]; irrelevant for single-core runs.
     */
    std::uint64_t coreQuantum = 20'000;

    /**
     * Fault injection and resilience protocol. Disabled by default;
     * a default-constructed FaultConfig leaves canonicalKey() and
     * every hash bit-identical to configs predating the fault
     * subsystem, so existing cache entries stay valid.
     */
    fault::FaultConfig fault;

    bool operator==(const SystemConfig &) const = default;

    /**
     * Canonical textual form covering every field (l2Options in
     * sorted order); equal configs produce equal keys.
     */
    std::string canonicalKey() const;

    /** FNV-1a hash of canonicalKey(): the config's identity. */
    std::uint64_t contentHash() const;

    /**
     * Hash of the machine fields only (design and budgets excluded —
     * the sweep spec key already spells those out). Default-machine
     * configs hash identically regardless of design/budgets.
     */
    std::uint64_t machineHash() const;

    /**
     * True when every machine field matches the defaults, i.e. the
     * sweep key needs no config suffix and pre-config cache entries
     * stay valid.
     */
    bool isDefaultMachine() const;
};

/** Serialize to JSON (stable field order, round-trip exact). */
void saveConfigJson(const SystemConfig &config, std::ostream &os);

/** Serialize to a JSON string. */
std::string configToJson(const SystemConfig &config);

/** Parse a config written by saveConfigJson; fatal on malformed. */
SystemConfig loadConfigJson(const std::string &text);

/** Load a config from a JSON file; fatal if unreadable/malformed. */
SystemConfig loadConfigFile(const std::string &path);

/**
 * Scale the paper's 45 nm technology description to another node
 * (feature size, lambda, and SRAM cell area scale; voltage, clock,
 * and material constants stay).
 */
phys::Technology technologyForNode(int nm);

/** FNV-1a over a string (shared by config and sweep hashing). */
std::uint64_t fnv1aHash(const std::string &text);

} // namespace harness
} // namespace tlsim

#endif // TLSIM_HARNESS_CONFIG_HH
