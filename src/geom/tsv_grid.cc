#include "geom/tsv_grid.hh"

#include <cmath>

#include "sim/logging.hh"

namespace ehpsim
{
namespace geom
{

bool
TsvSiteSet::containsSite(const Point &p) const
{
    for (const auto &s : sites_) {
        if (s == p)
            return true;
    }
    return false;
}

std::size_t
TsvSiteSet::countAligned(const std::vector<Point> &pts) const
{
    std::size_t n = 0;
    for (const auto &p : pts) {
        if (containsSite(p))
            ++n;
    }
    return n;
}

TsvSiteSet
TsvSiteSet::transformed(const Transform &t) const
{
    return TsvSiteSet(t.apply(sites_));
}

TsvSiteSet
TsvSiteSet::withMirrorRedundancy(double die_w, double die_h) const
{
    Transform mirror(die_w, die_h, Orient::mirrored);
    TsvSiteSet out = *this;
    for (const auto &p : sites_) {
        const Point q = mirror.apply(p);
        if (!out.containsSite(q))
            out.add(q);
    }
    return out;
}

bool
TsvSiteSet::symmetricUnder(Orient o, double die_w, double die_h) const
{
    Transform t(die_w, die_h, o);
    for (const auto &p : sites_) {
        if (!containsSite(t.apply(p)))
            return false;
    }
    return true;
}

PowerTsvGrid::PowerTsvGrid(const Rect &region, double pitch_mm)
    : region_(region), pitch_(pitch_mm)
{
    if (pitch_mm <= 0)
        fatal("power TSV grid pitch must be positive");
    nx_ = static_cast<std::size_t>(std::floor(region.w / pitch_mm)) + 1;
    ny_ = static_cast<std::size_t>(std::floor(region.h / pitch_mm)) + 1;
    // Centre the grid inside the region so the site set is symmetric
    // under mirror and r180 about the region centre.
    const double span_x = static_cast<double>(nx_ - 1) * pitch_mm;
    const double span_y = static_cast<double>(ny_ - 1) * pitch_mm;
    x0_ = region.x + (region.w - span_x) / 2;
    y0_ = region.y + (region.h - span_y) / 2;
}

std::vector<Point>
PowerTsvGrid::sites() const
{
    std::vector<Point> out;
    out.reserve(nx_ * ny_);
    for (std::size_t i = 0; i < nx_; ++i) {
        for (std::size_t j = 0; j < ny_; ++j) {
            out.push_back({x0_ + static_cast<double>(i) * pitch_,
                           y0_ + static_cast<double>(j) * pitch_});
        }
    }
    return out;
}

double
PowerTsvGrid::density() const
{
    const double a = region_.area();
    return a > 0 ? static_cast<double>(numSites()) / a : 0.0;
}

double
PowerTsvGrid::currentCapacity(double amps_per_mm2) const
{
    return amps_per_mm2 * region_.area();
}

double
PowerTsvGrid::channelWidth(double tsv_keepout_mm) const
{
    const double free = pitch_ - tsv_keepout_mm;
    return free > 0 ? free : 0.0;
}

} // namespace geom
} // namespace ehpsim
