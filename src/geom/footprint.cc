#include "geom/footprint.hh"

#include <cmath>

#include "sim/logging.hh"

namespace ehpsim
{
namespace geom
{

std::vector<Point>
InterfaceBank::pads() const
{
    PowerTsvGrid grid(region, pitch_mm);
    return grid.sites();
}

void
ChipletFootprint::addBank(const InterfaceBank &bank)
{
    if (!outline().contains(bank.region))
        fatal("interface bank '", bank.name, "' outside die '", name_,
              "'");
    banks_.push_back(bank);
}

std::vector<Point>
ChipletFootprint::allPads() const
{
    std::vector<Point> out;
    for (const auto &b : banks_) {
        auto pads = b.pads();
        out.insert(out.end(), pads.begin(), pads.end());
    }
    return out;
}

} // namespace geom
} // namespace ehpsim
