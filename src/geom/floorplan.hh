/**
 * @file
 * Named-region floorplans used by the package model and the thermal
 * solver. A Floorplan maps component names (e.g., "iod0.xcd1",
 * "hbm3", "iod2.usr_phy_e") to rectangles in package coordinates and
 * supports overlap/fit validation plus utilization accounting
 * (the paper criticizes EHPv4 for leaving package area unused).
 */

#ifndef EHPSIM_GEOM_FLOORPLAN_HH
#define EHPSIM_GEOM_FLOORPLAN_HH

#include <string>
#include <vector>

#include "geom/rect.hh"

namespace ehpsim
{
namespace geom
{

/** Coarse component classes used for power/thermal attribution. */
enum class RegionKind
{
    compute,    ///< XCD/CCD compute silicon
    cache,      ///< Infinity Cache / SRAM regions
    memory,     ///< HBM stacks
    phy,        ///< HBM PHYs, USR PHYs, SerDes
    io,         ///< x16 I/O interfaces
    fabric,     ///< data-fabric / NoC silicon
    substrate,  ///< interposer/substrate or structural silicon
    unused,     ///< explicitly wasted area (EHPv4 critique)
};

struct Region
{
    std::string name;
    Rect rect;
    RegionKind kind = RegionKind::substrate;
};

class Floorplan
{
  public:
    /** @param bounds The package (or die) outline. */
    explicit Floorplan(Rect bounds) : bounds_(bounds) {}

    const Rect &bounds() const { return bounds_; }

    /** Add a region; fatal() if it exceeds the bounds. */
    void add(const std::string &name, const Rect &r, RegionKind kind);

    const std::vector<Region> &regions() const { return regions_; }

    const Region *find(const std::string &name) const;

    /** True when no two regions overlap. */
    bool overlapFree() const;

    /** Names of overlapping region pairs (for diagnostics). */
    std::vector<std::string> overlaps() const;

    /** Sum of region areas (mm^2), excluding 'unused' regions. */
    double usedArea() const;

    /** Fraction of the bounds covered by non-unused regions. */
    double utilization() const;

  private:
    Rect bounds_;
    std::vector<Region> regions_;
};

} // namespace geom
} // namespace ehpsim

#endif // EHPSIM_GEOM_FLOORPLAN_HH
