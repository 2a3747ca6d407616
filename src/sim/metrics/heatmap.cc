#include "sim/metrics/heatmap.hh"

#include "sim/json.hh"
#include "sim/logging.hh"

namespace tlsim
{
namespace metrics
{

Heatmap::Heatmap(stats::StatGroup *parent, std::string name,
                 std::string desc, std::size_t cells, Tick window_arg)
    : stats::StatBase(parent, std::move(name), std::move(desc)),
      _cells(cells)
{
    TLSIM_ASSERT(cells > 0, "heatmap needs at least one cell");
    configuredWindow = window_arg != 0          ? window_arg
                       : spatialWindowTicks != 0 ? spatialWindowTicks
                                                 : defaultWindowTicks;
    window = configuredWindow;
}

void
Heatmap::add(std::size_t cell, Tick tick, std::uint64_t value)
{
    TLSIM_ASSERT(cell < _cells, "heatmap cell out of range");
    if (!baseLatched) {
        base = tick;
        baseLatched = true;
    }
    // Samples are not guaranteed monotone across cells; clamp ticks
    // before the latched base into row 0.
    Tick rel = tick > base ? tick - base : 0;
    std::size_t row = static_cast<std::size_t>(rel / window);
    while (row >= maxWindows) {
        coarsen();
        row = static_cast<std::size_t>(rel / window);
    }
    if ((row + 1) * _cells > data.size())
        data.resize((row + 1) * _cells, 0);
    data[row * _cells + cell] += value;
}

void
Heatmap::coarsen()
{
    // Double the window and refold rows pairwise: old rows 2k and
    // 2k+1 land in new row k. Deterministic, order-independent.
    window *= 2;
    std::size_t old_rows = data.size() / _cells;
    std::size_t new_rows = (old_rows + 1) / 2;
    std::vector<std::uint64_t> folded(new_rows * _cells, 0);
    for (std::size_t r = 0; r < old_rows; ++r)
        for (std::size_t c = 0; c < _cells; ++c)
            folded[(r / 2) * _cells + c] += data[r * _cells + c];
    data = std::move(folded);
}

std::uint64_t
Heatmap::at(std::size_t row, std::size_t cell) const
{
    if (cell >= _cells || row >= rowCount())
        return 0;
    return data[row * _cells + cell];
}

void
Heatmap::reset()
{
    data.clear();
    base = 0;
    baseLatched = false;
    window = configuredWindow;
}

void
Heatmap::dump(std::ostream &os, const std::string &prefix) const
{
    std::uint64_t total = 0;
    for (std::uint64_t v : data)
        total += v;
    os << prefix << name() << "  rows=" << rowCount()
       << " cells=" << _cells << " window=" << window
       << " total=" << total << "  # " << desc() << '\n';
}

void
Heatmap::dumpJson(std::ostream &os) const
{
    os << "{\"kind\": \"heatmap\", \"desc\": \""
       << json::escape(desc()) << "\", \"cells\": " << _cells
       << ", \"window\": " << window << ", \"base_tick\": " << base
       << ", \"rows\": " << rowCount() << ", \"data\": [";
    std::size_t rows = rowCount();
    for (std::size_t r = 0; r < rows; ++r) {
        os << (r ? ", [" : "[");
        for (std::size_t c = 0; c < _cells; ++c)
            os << (c ? ", " : "") << data[r * _cells + c];
        os << "]";
    }
    os << "]}";
}

} // namespace metrics
} // namespace tlsim
