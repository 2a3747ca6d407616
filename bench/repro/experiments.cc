#include "repro/experiments.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "harness/papermodels.hh"
#include "harness/system.hh"
#include "mem/dram.hh"
#include "nuca/dnuca.hh"
#include "nuca/snuca.hh"
#include "paperdata.hh"
#include "phys/crosstalk.hh"
#include "phys/drivers.hh"
#include "phys/fieldsolver.hh"
#include "phys/geometry.hh"
#include "phys/pulse.hh"
#include "phys/rcwire.hh"
#include "phys/technology.hh"
#include "phys/transline.hh"
#include "sim/table.hh"
#include "tlc/tlccache.hh"
#include "workload/profile.hh"

namespace tlsim
{
namespace repro
{

using harness::RunResult;
using harness::sweep::RunSpec;

harness::SystemConfig
defaultRunConfig()
{
    harness::SystemConfig config;
    const char *fast = std::getenv("TLSIM_FAST");
    if (fast && fast[0] == '1') {
        config.warmup = 2'000'000;
        config.measure = 1'000'000;
        config.functionalWarm = 20'000'000;
    }
    return config;
}

namespace
{

/** design x benchmark cross product over all 12 paper benchmarks. */
std::vector<RunSpec>
crossSpecs(const std::vector<std::string> &designs,
           const harness::SystemConfig &base)
{
    std::vector<RunSpec> specs;
    for (const auto &bench : paperdata::benchmarks)
        for (const auto &design : designs)
            specs.push_back(
                harness::sweep::makeRunSpec(design, bench, base));
    return specs;
}

// --- Table 6: benchmark characteristics --------------------------

std::vector<RunSpec>
table6Specs(const harness::SystemConfig &base)
{
    return crossSpecs({"TLC", "DNUCA"}, base);
}

void
table6Render(std::ostream &os, const ResultLookup &lookup)
{
    TextTable table("Table 6: Benchmark Characteristics "
                    "(paper -> measured)");
    table.setHeader({"Bench", "L2req/1K", "TLC miss/1K (paper)",
                     "DNUCA miss/1K (paper)", "close-hit% (paper)",
                     "promotes/insert (paper)", "TLC pred% (paper)",
                     "DNUCA pred% (paper)"});

    for (const auto &row : paperdata::table6) {
        const auto &tlc = lookup("TLC", row.bench);
        const auto &dnuca = lookup("DNUCA", row.bench);
        table.addRow({
            row.bench,
            TextTable::num(tlc.l2RequestsPer1k, 1) + " (" +
                TextTable::num(paperdata::table6RequestsPer1k(row), 1) +
                ")",
            TextTable::num(tlc.l2MissesPer1k, 3) + " (" +
                TextTable::num(row.tlcMissPer1k, 3) + ")",
            TextTable::num(dnuca.l2MissesPer1k, 3) + " (" +
                TextTable::num(row.dnucaMissPer1k, 3) + ")",
            TextTable::num(dnuca.closeHitPct, 1) + " (" +
                TextTable::num(row.dnucaCloseHitPct, 1) + ")",
            TextTable::num(dnuca.promotesPerInsert, 2) + " (" +
                TextTable::num(row.dnucaPromotesPerInsert, 2) + ")",
            TextTable::num(tlc.predictablePct, 0) + " (" +
                TextTable::num(row.tlcPredictablePct, 0) + ")",
            TextTable::num(dnuca.predictablePct, 0) + " (" +
                TextTable::num(row.dnucaPredictablePct, 0) + ")",
        });
    }
    table.print(os);
}

// --- Table 9: dynamic components ---------------------------------

std::vector<RunSpec>
table9Specs(const harness::SystemConfig &base)
{
    return crossSpecs({"TLC", "DNUCA"}, base);
}

void
table9Render(std::ostream &os, const ResultLookup &lookup)
{
    TextTable table("Table 9: Dynamic Components (measured (paper))");
    table.setHeader({"Bench", "DNUCA banks/req", "TLC banks/req",
                     "DNUCA net power [mW]", "TLC net power [mW]"});

    double dnuca_sum = 0.0, tlc_sum = 0.0;
    for (const auto &row : paperdata::table9) {
        const auto &tlc = lookup("TLC", row.bench);
        const auto &dnuca = lookup("DNUCA", row.bench);
        table.addRow({
            row.bench,
            TextTable::num(dnuca.banksPerRequest, 1) + " (" +
                TextTable::num(row.dnucaBanksPerRequest, 1) + ")",
            TextTable::num(tlc.banksPerRequest, 1) + " (" +
                TextTable::num(row.tlcBanksPerRequest, 1) + ")",
            TextTable::num(dnuca.networkPowerMw, 0) + " (" +
                TextTable::num(row.dnucaNetworkPowerMw, 0) + ")",
            TextTable::num(tlc.networkPowerMw, 0) + " (" +
                TextTable::num(row.tlcNetworkPowerMw, 0) + ")",
        });
        dnuca_sum += dnuca.networkPowerMw;
        tlc_sum += tlc.networkPowerMw;
    }
    table.print(os);

    double reduction = 100.0 * (1.0 - tlc_sum / dnuca_sum);
    os << "\nAverage TLC network dynamic power reduction: "
       << TextTable::num(reduction, 0) << "% (paper: 61%)\n";
}

// --- Figure 5: normalized execution time -------------------------

std::vector<RunSpec>
fig5Specs(const harness::SystemConfig &base)
{
    return crossSpecs({"SNUCA2", "DNUCA", "TLC"}, base);
}

void
fig5Render(std::ostream &os, const ResultLookup &lookup)
{
    TextTable table("Figure 5: Normalized Execution Time vs SNUCA2 "
                    "(measured (paper, read off plot))");
    table.setHeader({"Bench", "DNUCA", "TLC"});

    for (const auto &row : paperdata::fig5) {
        const auto &snuca = lookup("SNUCA2", row.bench);
        const auto &dnuca = lookup("DNUCA", row.bench);
        const auto &tlc = lookup("TLC", row.bench);
        double base = static_cast<double>(snuca.cycles);
        table.addRow({
            row.bench,
            TextTable::num(dnuca.cycles / base, 3) + " (" +
                TextTable::num(row.dnuca, 2) + ")",
            TextTable::num(tlc.cycles / base, 3) + " (" +
                TextTable::num(row.tlc, 2) + ")",
        });
    }
    table.print(os);
    os << "\nValues < 1.0 improve on SNUCA2. Expected shape: "
          "both designs win on SPECint/commercial; neither "
          "moves the streaming SPECfp codes; TLC loses "
          "slightly on equake (LRU vs frequency placement).\n";
}

// --- Figure 6: mean lookup latency -------------------------------

std::vector<RunSpec>
fig6Specs(const harness::SystemConfig &base)
{
    return crossSpecs({"DNUCA", "TLC"}, base);
}

void
fig6Render(std::ostream &os, const ResultLookup &lookup)
{
    TextTable table("Figure 6: Mean Cache Lookup Latency [cycles] "
                    "(measured (paper, read off plot))");
    table.setHeader({"Bench", "DNUCA", "TLC"});

    double tlc_lo = 1e9, tlc_hi = 0.0, dnuca_lo = 1e9, dnuca_hi = 0.0;
    for (const auto &row : paperdata::fig6) {
        const auto &dnuca = lookup("DNUCA", row.bench);
        const auto &tlc = lookup("TLC", row.bench);
        table.addRow({
            row.bench,
            TextTable::num(dnuca.meanLookupLatency, 1) + " (" +
                TextTable::num(row.dnuca, 0) + ")",
            TextTable::num(tlc.meanLookupLatency, 1) + " (" +
                TextTable::num(row.tlc, 0) + ")",
        });
        tlc_lo = std::min(tlc_lo, tlc.meanLookupLatency);
        tlc_hi = std::max(tlc_hi, tlc.meanLookupLatency);
        dnuca_lo = std::min(dnuca_lo, dnuca.meanLookupLatency);
        dnuca_hi = std::max(dnuca_hi, dnuca.meanLookupLatency);
    }
    table.print(os);

    os << "\nTLC spread: " << TextTable::num(tlc_lo, 1) << "-"
       << TextTable::num(tlc_hi, 1)
       << " cycles (paper: ~13 flat); DNUCA spread: "
       << TextTable::num(dnuca_lo, 1) << "-"
       << TextTable::num(dnuca_hi, 1) << " cycles (paper: ~10-35).\n";
}

// --- Figure 7: TLC family link utilization -----------------------

std::vector<RunSpec>
fig7Specs(const harness::SystemConfig &base)
{
    return crossSpecs(harness::tlcFamily(), base);
}

void
fig7Render(std::ostream &os, const ResultLookup &lookup)
{
    TextTable table("Figure 7: TLC Average Link Utilization [%]");
    table.setHeader({"Bench", "TLC", "TLCopt1000", "TLCopt500",
                     "TLCopt350"});

    double base_max = 0.0, opt350_max = 0.0;
    for (const auto &bench : paperdata::benchmarks) {
        std::vector<std::string> row{bench};
        for (const auto &design : harness::tlcFamily()) {
            const auto &result = lookup(design, bench);
            row.push_back(
                TextTable::num(result.linkUtilizationPct, 2));
            if (design == "TLC") {
                base_max = std::max(base_max,
                                    result.linkUtilizationPct);
            }
            if (design == "TLCopt350") {
                opt350_max = std::max(opt350_max,
                                      result.linkUtilizationPct);
            }
        }
        table.addRow(row);
    }
    table.print(os);

    os << "\nBase TLC max utilization: " << TextTable::num(base_max, 2)
       << "% (paper: never exceeds 2%); TLCopt350 max: "
       << TextTable::num(opt350_max, 2)
       << "% (paper: never surpasses 13%).\n";
}

// --- Figure 8: TLC family execution time -------------------------

std::vector<RunSpec>
fig8Specs(const harness::SystemConfig &base)
{
    return crossSpecs(harness::tlcFamily(), base);
}

void
fig8Render(std::ostream &os, const ResultLookup &lookup)
{
    TextTable table("Figure 8: TLC Family Execution Time "
                    "(normalized to base TLC)");
    table.setHeader({"Bench", "TLC", "TLCopt1000", "TLCopt500",
                     "TLCopt350", "multi-match% (opt350)"});

    double worst = 0.0;
    for (const auto &bench : paperdata::benchmarks) {
        const auto &base = lookup("TLC", bench);
        double base_cycles = static_cast<double>(base.cycles);
        std::vector<std::string> row{bench, "1.000"};
        for (const char *design :
             {"TLCopt1000", "TLCopt500", "TLCopt350"}) {
            const auto &result = lookup(design, bench);
            double norm = result.cycles / base_cycles;
            worst = std::max(worst, norm);
            row.push_back(TextTable::num(norm, 3));
        }
        const auto &opt350 = lookup("TLCopt350", bench);
        row.push_back(TextTable::num(opt350.multiMatchPct, 2));
        table.addRow(row);
    }
    table.print(os);

    os << "\nWorst TLCopt slowdown vs base TLC: "
       << TextTable::num(100.0 * (worst - 1.0), 1)
       << "% (paper: comparable performance; multiple partial "
          "matches in ~1% of lookups).\n";
}

// --- Table 1 / Figure 3: transmission-line design points ---------

void
table1Render(std::ostream &os, const ResultLookup &)
{
    const phys::Technology &tech = phys::tech45();
    phys::FieldSolver solver(tech);
    phys::PulseSimulator pulses(tech);

    TextTable table("Table 1: Transmission line design points "
                    "(dimensions from the paper; electricals derived)");
    table.setHeader({"Length [cm]", "W [um]", "S [um]", "H [um]",
                     "T [um]", "Z0 [Ohm]", "v [mm/ps]", "flight [ps]",
                     "peak [%Vdd]", "width [%cycle]", "passes"});

    for (const auto &spec : phys::paperTable1Lines()) {
        phys::LineParams params = solver.extract(spec.geometry);
        phys::PulseResult pulse =
            pulses.simulate(spec.geometry, spec.length);
        table.addRow({
            TextTable::num(spec.length * 100.0, 1),
            TextTable::num(spec.geometry.width * 1e6, 1),
            TextTable::num(spec.geometry.spacing * 1e6, 1),
            TextTable::num(spec.geometry.height * 1e6, 2),
            TextTable::num(spec.geometry.thickness * 1e6, 1),
            TextTable::num(params.z0(), 1),
            TextTable::num(params.velocity() * 1e-12 * 1e3, 4),
            TextTable::num(pulse.delay / 1e-12, 1),
            TextTable::num(100.0 * pulse.peakAmplitude, 1),
            TextTable::num(100.0 * pulse.pulseWidth /
                               tech.cycleTime(),
                           1),
            pulse.passes() ? "yes" : "NO",
        });
    }
    table.print(os);

    os << "\nPaper requirements: amplitude >= 75% Vdd, pulse "
          "width >= 40% of the cycle.\n";
}

// --- Wire latency: the paper's premise (Sections 1 and 3) --------

void
wireRender(std::ostream &os, const ResultLookup &)
{
    const phys::Technology &tech = phys::tech45();
    phys::RcWireModel repeated(tech, phys::conventionalGlobalWire());
    phys::FieldSolver solver(tech);

    TextTable table("Wire latency: transmission line vs conventional "
                    "RC (45 nm, 10 GHz)");
    table.setHeader({"Length [mm]", "TL flight [ps]",
                     "repeated RC [ps]", "unrepeated RC [ps]",
                     "TL speedup (rep)", "TL speedup (unrep)"});

    for (double mm : {0.5, 1.0, 2.0, 5.0, 10.0, 13.0, 20.0}) {
        double length = mm * 1e-3;
        const auto &spec = phys::specForLength(length);
        phys::LineParams params = solver.extract(spec.geometry);
        double tl_ps = length / params.velocity() / 1e-12;
        double rep_ps = repeated.delay(length) / 1e-12;
        double unrep_ps = repeated.unrepeatedDelay(length) / 1e-12;
        table.addRow({TextTable::num(mm, 1), TextTable::num(tl_ps, 1),
                      TextTable::num(rep_ps, 1),
                      TextTable::num(unrep_ps, 1),
                      TextTable::num(rep_ps / tl_ps, 1) + "x",
                      TextTable::num(unrep_ps / tl_ps, 1) + "x"});
    }
    table.print(os);

    double die = 2e-2;
    double cycles = repeated.delay(die) / tech.cycleTime();
    os << "\nCrossing a 2 cm die on repeated RC wire: "
       << TextTable::num(cycles, 1) << " cycles (paper premise: 25+)\n";
}

// --- Table 2: design parameters ----------------------------------

void
table2Render(std::ostream &os, const ResultLookup &)
{
    EventQueue eq;
    stats::StatGroup root("root");
    mem::Dram dram(eq, &root);
    const auto &tech = phys::tech45();

    TextTable table("Table 2: Design Parameters (measured (paper))");
    table.setHeader({"Design", "Banks", "Banks/Block", "Bank Size",
                     "Lines/Pair", "Total Lines",
                     "Uncontended Latency", "Bank Access"});

    auto row = [&](const std::string &name, int banks, int bpb,
                   const char *size, int lpp, int total,
                   std::pair<Cycles, Cycles> range, int access) {
        const paperdata::Table2Row *paper = nullptr;
        for (const auto &r : paperdata::table2) {
            if (name == r.design)
                paper = &r;
        }
        std::string lat =
            std::to_string(range.first) + "-" +
            std::to_string(range.second);
        if (paper) {
            lat += " (" + std::to_string(paper->latencyLo) + "-" +
                   std::to_string(paper->latencyHi) + ")";
        }
        std::string acc = std::to_string(access);
        if (paper)
            acc += " (" + std::to_string(paper->bankAccess) + ")";
        table.addRow({name, std::to_string(banks),
                      std::to_string(bpb), size,
                      lpp ? std::to_string(lpp) : "n/a",
                      total ? std::to_string(total) : "n/a", lat, acc});
    };

    for (const auto &cfg : {tlc::baseTlc(), tlc::tlcOpt1000(),
                            tlc::tlcOpt500(), tlc::tlcOpt350()}) {
        tlc::TlcCache cache(eq, &root, dram, tech, cfg);
        row(cfg.name, cfg.banks, cfg.banksPerBlock,
            cfg.bankBytes == 512 * 1024 ? "512 KB" : "1 MB",
            cfg.linesPerPair, cfg.totalLines(), cache.latencyRange(),
            cache.bankAccessCycles());
    }
    {
        nuca::SnucaCache cache(eq, &root, dram, tech);
        row("SNUCA2", 32, 1, "512 KB", 0, 0, cache.latencyRange(),
            cache.bankAccessCycles());
    }
    {
        nuca::DnucaCache cache(eq, &root, dram, tech);
        row("DNUCA", 256, 1, "64 KB", 0, 0, cache.latencyRange(),
            cache.bankAccessCycles());
    }

    table.print(os);
}

// --- Table 7: substrate area -------------------------------------

void
table7Render(std::ostream &os, const ResultLookup &)
{
    using harness::AreaBreakdown;
    const auto &tech = phys::tech45();
    AreaBreakdown dnuca = harness::dnucaArea(tech);
    AreaBreakdown tlc = harness::tlcArea(tech);

    TextTable table("Table 7: Consumed Substrate Area [mm^2] "
                    "(measured (paper))");
    table.setHeader({"Design", "Storage", "Channel", "Controller",
                     "Total"});

    auto row = [&](const char *name, const AreaBreakdown &area) {
        const paperdata::Table7Row *paper = nullptr;
        for (const auto &r : paperdata::table7) {
            if (std::string(name) == r.design)
                paper = &r;
        }
        auto cell = [&](double model_m2, double paper_mm2) {
            return TextTable::num(model_m2 / 1e-6, 1) + " (" +
                   TextTable::num(paper_mm2, 1) + ")";
        };
        table.addRow({name, cell(area.storage, paper->storage),
                      cell(area.channel, paper->channel),
                      cell(area.controller, paper->controller),
                      cell(area.total(), paper->total)});
    };
    row("DNUCA", dnuca);
    row("TLC", tlc);
    table.print(os);

    double saving = 100.0 * (1.0 - tlc.total() / dnuca.total());
    os << "\nTLC substrate saving vs DNUCA: "
       << TextTable::num(saving, 1) << "% (paper: 18%)\n";
}

// --- Table 8: network transistors and gate width -----------------

std::string
sci(double v)
{
    std::ostringstream os;
    os.precision(2);
    os << std::scientific << v;
    return os.str();
}

void
table8Render(std::ostream &os, const ResultLookup &)
{
    const auto &tech = phys::tech45();
    auto dnuca = harness::dnucaNetworkCircuit(tech);
    auto tlc = harness::tlcNetworkCircuit(tech);

    TextTable table("Table 8: Cache Communication Network "
                    "Characteristics (measured (paper))");
    table.setHeader({"Design", "Total Transistors",
                     "Total Gate Width [lambda]"});
    table.addRow({"DNUCA",
                  sci(static_cast<double>(dnuca.transistors)) + " (" +
                      sci(paperdata::table8[0].transistors) + ")",
                  sci(dnuca.gateWidthLambda) + " (" +
                      sci(paperdata::table8[0].gateWidthLambda) + ")"});
    table.addRow({"TLC",
                  sci(static_cast<double>(tlc.transistors)) + " (" +
                      sci(paperdata::table8[1].transistors) + ")",
                  sci(tlc.gateWidthLambda) + " (" +
                      sci(paperdata::table8[1].gateWidthLambda) + ")"});
    table.print(os);

    os << "\nTransistor reduction: "
       << TextTable::num(static_cast<double>(dnuca.transistors) /
                             static_cast<double>(tlc.transistors),
                         0)
       << "x (paper: >50x); gate width reduction: "
       << TextTable::num(dnuca.gateWidthLambda / tlc.gateWidthLambda, 0)
       << "x (paper: >20x)\n";
}

// --- Ablation: line width vs signal integrity --------------------

void
geometryRender(std::ostream &os, const ResultLookup &)
{
    const phys::Technology &tech = phys::tech45();
    phys::FieldSolver solver(tech);
    phys::PulseSimulator pulses(tech);

    TextTable table("Ablation: line width vs signal integrity "
                    "(1.3 cm stripline, H=1.75 um, T=3 um)");
    table.setHeader({"W=S [um]", "Z0 [Ohm]", "R*l/2Z0 [Np]",
                     "peak [%Vdd]", "width [%cycle]", "E/bit [pJ]",
                     "passes"});

    const double length = 1.3e-2;
    for (double um : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0}) {
        phys::WireGeometry geom{um * 1e-6, um * 1e-6, 1.75e-6, 3.0e-6};
        phys::LineParams params = solver.extract(geom);
        phys::PulseResult pulse = pulses.simulate(geom, length);
        double attenuation =
            params.resistance * length / (2.0 * params.z0());
        double energy = tech.cycleTime() * tech.vdd * tech.vdd /
                        (2.0 * params.z0());
        table.addRow({TextTable::num(um, 1),
                      TextTable::num(params.z0(), 1),
                      TextTable::num(attenuation, 2),
                      TextTable::num(100.0 * pulse.peakAmplitude, 1),
                      TextTable::num(100.0 * pulse.pulseWidth /
                                         tech.cycleTime(),
                                     1),
                      TextTable::num(energy / 1e-12, 2),
                      pulse.passes() ? "yes" : "NO"});
    }
    table.print(os);
    os << "\nExpected: narrow lines fail the 75%-amplitude "
          "requirement over 1.3 cm; the paper's 3 um choice "
          "passes with margin.\n";
}

// --- Ablation: signalling schemes --------------------------------

void
driversRender(std::ostream &os, const ResultLookup &)
{
    const phys::Technology &tech = phys::tech45();
    phys::TransmissionLine line(tech, 1.1e-2);
    tlc::TlcConfig cfg = tlc::baseTlc();

    TextTable table("Ablation: signalling schemes for the base TLC "
                    "(2048 signals, 1.1 cm lines)");
    table.setHeader({"Scheme", "wires", "E/bit [pJ]",
                     "static/line [mW]", "network static [W]",
                     "network @1% util [W]", "noise margin",
                     "transistors"});

    const double util = 0.01;
    const double bit_rate = tech.clockFreq;
    for (phys::DriverKind kind : phys::allDriverKinds()) {
        phys::DriverProfile profile =
            phys::evaluateDriver(tech, line, kind);
        int signals = cfg.totalLines();
        double net_static = signals * profile.staticPower;
        double net_total =
            net_static + signals * util * bit_rate *
                             tech.activityFactor *
                             profile.dynamicEnergyPerBit;
        table.addRow({profile.name,
                      std::to_string(profile.wiresPerSignal *
                                     signals),
                      TextTable::num(profile.dynamicEnergyPerBit /
                                         1e-12,
                                     2),
                      TextTable::num(profile.staticPower * 1e3, 2),
                      TextTable::num(net_static, 2),
                      TextTable::num(net_total, 2),
                      TextTable::num(profile.noiseMargin, 1) + "x",
                      std::to_string(profile.transistors * signals)});
    }
    table.print(os);
    os << "\nExpected: voltage mode wins at low utilization — "
          "the paper's Section 6.1 argument for rejecting "
          "contemporary low-voltage drivers.\n";
}

// --- Ablation: clock scaling -------------------------------------

void
technologyRender(std::ostream &os, const ResultLookup &)
{
    TextTable table("Ablation: clock scaling at 45 nm (1.3 cm global "
                    "signal)");
    table.setHeader({"Clock [GHz]", "cycle [ps]", "TL [cycles]",
                     "repeated RC [cycles]", "2cm die crossing [cyc]",
                     "TL advantage"});

    for (double ghz : {2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0}) {
        phys::Technology tech = phys::tech45();
        tech.clockFreq = ghz * 1e9;

        phys::FieldSolver solver(tech);
        const auto &spec = phys::specForLength(1.3e-2);
        phys::LineParams params = solver.extract(spec.geometry);
        double tl_cycles =
            std::ceil(1.3e-2 / params.velocity() / tech.cycleTime());

        phys::RcWireModel wire(tech, phys::conventionalGlobalWire());
        double rc_cycles =
            std::ceil(wire.delay(1.3e-2) / tech.cycleTime());
        double die_cycles = wire.delay(2e-2) / tech.cycleTime();

        table.addRow({TextTable::num(ghz, 0),
                      TextTable::num(1e12 / (ghz * 1e9), 0),
                      TextTable::num(tl_cycles, 0),
                      TextTable::num(rc_cycles, 0),
                      TextTable::num(die_cycles, 1),
                      TextTable::num(rc_cycles / tl_cycles, 1) + "x"});
    }
    table.print(os);
    os << "\nExpected: at the paper's 10 GHz design point a "
          "1.3 cm line is 1 cycle by transmission line vs "
          "~12 by repeated RC; the gap widens with clock.\n";
}

// --- Ablation: shielding and crosstalk ---------------------------

void
shieldingRender(std::ostream &os, const ResultLookup &)
{
    const phys::Technology &tech = phys::tech45();
    phys::CrosstalkModel xtalk(tech);
    phys::PulseSimulator pulses(tech);

    TextTable table("Ablation: shielding vs crosstalk "
                    "(Table 1 lines, 10 ps edges)");
    table.setHeader({"Length [cm]", "Shielded", "Cm/C", "Lm/L",
                     "near-end [%Vdd]", "far-end [%Vdd]",
                     "within 15% budget"});

    for (const auto &spec : phys::paperTable1Lines()) {
        for (bool shielded : {false, true}) {
            auto result =
                xtalk.analyze(spec.geometry, spec.length, shielded);
            table.addRow(
                {TextTable::num(spec.length * 100.0, 1),
                 shielded ? "yes" : "no",
                 TextTable::num(result.capacitiveRatio, 3),
                 TextTable::num(result.inductiveRatio, 3),
                 TextTable::num(100.0 * result.nearEnd, 1),
                 TextTable::num(100.0 * result.farEnd, 1),
                 result.withinBudget() ? "yes" : "NO"});
        }
    }
    table.print(os);

    TextTable eyes("\nEye diagrams under a 48-bit random train "
                   "(inter-symbol interference)");
    eyes.setHeader({"Length [cm]", "eye height [%Vdd]",
                    "eye width [%bit]", "passes"});
    for (const auto &spec : phys::paperTable1Lines()) {
        phys::EyeResult eye =
            pulses.eyeDiagram(spec.geometry, spec.length, 48);
        eyes.addRow({TextTable::num(spec.length * 100.0, 1),
                     TextTable::num(100.0 * eye.eyeHeight, 1),
                     TextTable::num(100.0 * eye.eyeWidth, 1),
                     eye.passes() ? "yes" : "NO"});
    }
    eyes.print(os);

    os << "\nExpected: every unshielded configuration exceeds "
          "the noise budget; the paper's shielded bundles pass "
          "with wide-open eyes.\n";
}

// --- Simulation ablations ----------------------------------------
//
// Each one runs a design through the standard runner with the trace
// seed 0, at its own fixed budgets (TLSIM_FAST and the CLI budget
// flags do not apply).

harness::RunResult
runAblation(const char *design, const l2::DesignOptions &options,
            const char *bench, std::uint64_t functional_warm,
            std::uint64_t warmup, std::uint64_t measure,
            const harness::RunObserver *observer = nullptr)
{
    harness::SystemConfig config;
    config.design = design;
    config.l2Options = options;
    config.functionalWarm = functional_warm;
    config.warmup = warmup;
    config.measure = measure;
    return harness::runBenchmark(config, workload::profileByName(bench),
                                 /*run_seed=*/0, observer);
}

void
promotionRender(std::ostream &os, const ResultLookup &)
{
    TextTable table("Ablation: DNUCA placement policies "
                    "(Kim et al. design space)");
    table.setHeader({"Bench", "Policy", "close-hit%",
                     "mean lookup [cyc]", "IPC"});

    struct Policy
    {
        const char *name;
        double promote;
        double distance;
        double insertion;
    };
    const Policy policies[] = {
        {"promote-1, insert-tail (paper)", 1, 1, 15},
        {"no promotion", 0, 1, 15},
        {"promote-2, insert-tail", 1, 2, 15},
        {"promote-1, insert-middle", 1, 1, 8},
        {"promote-1, insert-head", 1, 1, 0},
    };

    for (const char *bench : {"gcc", "mcf", "oltp"}) {
        for (const Policy &policy : policies) {
            auto r = runAblation(
                "DNUCA",
                {{"promoteOnHit", policy.promote},
                 {"promotionDistance", policy.distance},
                 {"insertionBank", policy.insertion}},
                bench, 40'000'000, 1'000'000, 3'000'000);
            table.addRow({bench, policy.name,
                          TextTable::num(r.closeHitPct, 1),
                          TextTable::num(r.meanLookupLatency, 1),
                          TextTable::num(r.ipc, 3)});
        }
    }
    table.print(os);
    os << "\nExpected: disabling promotion collapses close "
          "hits; head insertion pollutes the fast banks with "
          "streaming data; the paper's tail-insert + 1-step "
          "promotion is the robust point.\n";
}

void
ptagRender(std::ostream &os, const ResultLookup &)
{
    TextTable table("Ablation: partial tag width (gcc)");
    table.setHeader({"Design", "ptag bits", "banks/request",
                     "mean lookup [cyc]", "predictable %"});

    for (const char *design : {"DNUCA", "TLCopt500"}) {
        for (int bits : {2, 4, 6, 8, 10}) {
            auto r = runAblation(
                design, {{"partialTagBits", static_cast<double>(bits)}},
                "gcc", 30'000'000, 0, 2'000'000);
            table.addRow({design, std::to_string(bits),
                          TextTable::num(r.banksPerRequest, 3),
                          TextTable::num(r.meanLookupLatency, 2),
                          TextTable::num(r.predictablePct, 1)});
        }
    }

    table.print(os);
    os << "\nExpected: banks/request falls as the partial tag "
          "widens (fewer false candidates); 6 bits is already "
          "near the knee — the paper's choice.\n";
}

void
eccRender(std::ostream &os, const ResultLookup &)
{
    TextTable table("Ablation: end-to-end ECC retry rate (gcc, base "
                    "TLC)");
    table.setHeader({"detected error rate", "retries/1K lookups",
                     "mean lookup [cyc]", "IPC", "IPC loss [%]"});

    double base_ipc = 0.0;
    for (double rate : {0.0, 1e-4, 1e-3, 1e-2, 5e-2}) {
        double retries_per_1k = 0.0;
        harness::RunObserver observer;
        observer.onMeasureEnd = [&](harness::System &system) {
            auto &cache = dynamic_cast<tlc::TlcCache &>(system.l2());
            double lookups = std::max(
                1.0, static_cast<double>(cache.lookupLatency.count()));
            retries_per_1k = 1000.0 * cache.eccRetries.value() / lookups;
        };
        auto r = runAblation("TLC", {{"lineErrorRate", rate}}, "gcc",
                             30'000'000, 0, 2'000'000, &observer);
        if (base_ipc == 0.0)
            base_ipc = r.ipc;
        std::ostringstream rate_text;
        rate_text.precision(0);
        rate_text << std::scientific << rate;
        table.addRow({rate == 0.0 ? "0" : rate_text.str(),
                      TextTable::num(retries_per_1k, 2),
                      TextTable::num(r.meanLookupLatency, 2),
                      TextTable::num(r.ipc, 3),
                      TextTable::num(
                          100.0 * (1.0 - r.ipc / base_ipc), 2)});
    }
    table.print(os);
    os << "\nExpected: even a 1e-2 detected-error rate costs "
          "well under 1% IPC — ECC repair is effectively free, "
          "as the paper argues.\n";
}

} // namespace

const std::vector<Experiment> &
experiments()
{
    static const std::vector<Experiment> all = {
        {"table1", "transmission-line design points (Table 1)",
         nullptr, table1Render},
        {"wire", "transmission line vs RC wire latency", nullptr,
         wireRender},
        {"table2", "design parameters and latency ranges", nullptr,
         table2Render},
        {"table6", "benchmark characteristics (TLC + DNUCA)",
         table6Specs, table6Render},
        {"table7", "substrate area (DNUCA vs TLC)", nullptr,
         table7Render},
        {"table8", "network transistors and gate width", nullptr,
         table8Render},
        {"table9", "banks/request and network dynamic power",
         table9Specs, table9Render},
        {"fig5", "execution time normalized to SNUCA2",
         fig5Specs, fig5Render},
        {"fig6", "mean L2 lookup latency consistency",
         fig6Specs, fig6Render},
        {"fig7", "TLC family link utilization",
         fig7Specs, fig7Render},
        {"fig8", "TLC family execution time vs base TLC",
         fig8Specs, fig8Render},
        {"ablation-geometry", "line width vs signal integrity",
         nullptr, geometryRender},
        {"ablation-drivers", "signalling schemes", nullptr,
         driversRender},
        {"ablation-technology", "clock scaling", nullptr,
         technologyRender},
        {"ablation-shielding", "shielding, crosstalk and eyes",
         nullptr, shieldingRender},
        {"ablation-promotion", "DNUCA placement policies (simulates)",
         nullptr, promotionRender},
        {"ablation-ptag", "partial tag width (simulates)", nullptr,
         ptagRender},
        {"ablation-ecc", "ECC retry rate (simulates)", nullptr,
         eccRender},
    };
    return all;
}

const Experiment *
findExperiment(const std::string &name)
{
    for (const auto &experiment : experiments()) {
        if (name == experiment.name)
            return &experiment;
    }
    return nullptr;
}

} // namespace repro
} // namespace tlsim
