#include "geom/floorplan.hh"

#include "sim/logging.hh"

namespace ehpsim
{
namespace geom
{

void
Floorplan::add(const std::string &name, const Rect &r, RegionKind kind)
{
    if (!bounds_.contains(r))
        fatal("floorplan region '", name, "' outside bounds");
    regions_.push_back(Region{name, r, kind});
}

const Region *
Floorplan::find(const std::string &name) const
{
    for (const auto &r : regions_) {
        if (r.name == name)
            return &r;
    }
    return nullptr;
}

bool
Floorplan::overlapFree() const
{
    return overlaps().empty();
}

std::vector<std::string>
Floorplan::overlaps() const
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < regions_.size(); ++i) {
        for (std::size_t j = i + 1; j < regions_.size(); ++j) {
            if (regions_[i].rect.intersects(regions_[j].rect)) {
                out.push_back(regions_[i].name + "/" +
                              regions_[j].name);
            }
        }
    }
    return out;
}

double
Floorplan::usedArea() const
{
    double a = 0;
    for (const auto &r : regions_) {
        if (r.kind != RegionKind::unused)
            a += r.rect.area();
    }
    return a;
}

double
Floorplan::utilization() const
{
    const double b = bounds_.area();
    return b > 0 ? usedArea() / b : 0.0;
}

} // namespace geom
} // namespace ehpsim
