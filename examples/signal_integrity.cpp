/**
 * @file
 * Signal-integrity exploration: launch a 10 GHz pulse down an on-chip
 * transmission line and inspect the received waveform — the physics
 * behind TLC's one-cycle cross-chip flight (paper Section 3).
 *
 *   $ ./examples/signal_integrity [length_cm]
 */

#include <iostream>
#include <optional>

#include "phys/fieldsolver.hh"
#include "phys/geometry.hh"
#include "phys/pulse.hh"
#include "phys/technology.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/table.hh"

using namespace tlsim;
using namespace tlsim::phys;

namespace
{

int
run(int argc, char **argv)
{
    double length_cm = 1.1;
    if (argc > 1) {
        std::optional<json::Value> token = json::parse(argv[1]);
        std::optional<double> x = token ? token->asDouble() : std::nullopt;
        if (!x || *x <= 0.0)
            fatal("length_cm expects a positive number, got '{}'", argv[1]);
        length_cm = *x;
    }
    double length = length_cm * 1e-2;

    const Technology &tech = tech45();
    const auto &spec = specForLength(length);
    FieldSolver solver(tech);
    LineParams params = solver.extract(spec.geometry);

    std::cout << "Line: " << length_cm << " cm, W=S="
              << spec.geometry.width * 1e6 << " um stripline\n";
    std::cout << "  Z0 = " << TextTable::num(params.z0(), 1)
              << " Ohm, velocity = "
              << TextTable::num(params.velocity() / 1e8, 2)
              << "e8 m/s, DC R = "
              << TextTable::num(params.resistance * length, 1)
              << " Ohm end-to-end\n";
    std::cout << "  skin depth @ 10 GHz = "
              << TextTable::num(solver.skinDepth(10e9) * 1e6, 2)
              << " um\n\n";

    PulseSimulator pulses(tech);
    PulseResult result = pulses.simulate(spec.geometry, length);
    std::cout << "Received pulse: delay = "
              << TextTable::num(result.delay / 1e-12, 1)
              << " ps, peak = "
              << TextTable::num(100.0 * result.peakAmplitude, 1)
              << "% Vdd, width = "
              << TextTable::num(result.pulseWidth / 1e-12, 1)
              << " ps -> "
              << (result.passes() ? "PASSES" : "FAILS")
              << " the paper's signalling requirements\n\n";

    // ASCII waveform, decimated.
    auto wave = pulses.waveform(spec.geometry, length);
    const double dt_ps = pulses.sampleTime() / 1e-12;
    const int columns = 64;
    std::size_t span = wave.size() / 2; // first 4 cycles
    std::cout << "Receiver waveform (x: time, #: volts):\n";
    for (int row = 10; row >= 0; --row) {
        double level = row / 10.0;
        std::cout << (row % 5 == 0 ? TextTable::num(level, 1)
                                   : std::string("   "))
                  << " |";
        for (int col = 0; col < columns; ++col) {
            std::size_t idx = col * span / columns;
            std::cout << (wave[idx] >= level - 0.05 ? '#' : ' ');
        }
        std::cout << '\n';
    }
    std::cout << "    +" << std::string(columns, '-') << "\n     0"
              << std::string(columns - 8, ' ')
              << TextTable::num(span * dt_ps, 0) << " ps\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return exitOnFatal([&] { return run(argc, argv); });
}
