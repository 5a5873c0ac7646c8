/**
 * @file
 * TSV site sets: uniform power/ground grids and signal-TSV banks.
 *
 * The paper (Sec. V.C/V.D, Figs. 9-10) describes two alignment
 * problems solved in MI300A:
 *  1. Signal TSV banks must line up with unmirrored chiplets for every
 *     mirrored/rotated IOD instance; the fix is replicating the banks
 *     at their mirrored positions ("redundant TSVs", Fig. 9).
 *  2. Power/ground TSVs form a uniform grid that is symmetric under
 *     mirroring and 180-deg rotation by construction (Fig. 10).
 */

#ifndef EHPSIM_GEOM_TSV_GRID_HH
#define EHPSIM_GEOM_TSV_GRID_HH

#include <string>
#include <vector>

#include "geom/rect.hh"
#include "geom/transform.hh"

namespace ehpsim
{
namespace geom
{

/** An unordered set of TSV landing sites with point-membership. */
class TsvSiteSet
{
  public:
    TsvSiteSet() = default;

    explicit TsvSiteSet(std::vector<Point> sites)
        : sites_(std::move(sites))
    {}

    void add(const Point &p) { sites_.push_back(p); }

    std::size_t size() const { return sites_.size(); }

    const std::vector<Point> &sites() const { return sites_; }

    /** True if a site exists at @p p (within tolerance). */
    bool containsSite(const Point &p) const;

    /** Number of points in @p pts that land on some site. */
    std::size_t countAligned(const std::vector<Point> &pts) const;

    /** This set transformed die-locally by @p t. */
    TsvSiteSet transformed(const Transform &t) const;

    /** Union of this set and the same set mirrored within a die. */
    TsvSiteSet withMirrorRedundancy(double die_w, double die_h) const;

    /**
     * True when this set is invariant under die-local transform @p o
     * of a die_w x die_h die.
     */
    bool symmetricUnder(Orient o, double die_w, double die_h) const;

  private:
    std::vector<Point> sites_;
};

/**
 * A uniform power/ground TSV grid covering a region at a fixed pitch.
 * The grid is centred in the region so that it is symmetric under
 * both mirroring and 180-deg rotation of the die.
 */
class PowerTsvGrid
{
  public:
    /**
     * @param region Die-local region to fill.
     * @param pitch_mm Site pitch (e.g., 0.025 for a 25 um grid).
     */
    PowerTsvGrid(const Rect &region, double pitch_mm);

    const Rect &region() const { return region_; }

    double pitch() const { return pitch_; }

    std::size_t numSites() const { return nx_ * ny_; }

    /** All sites, materialized. */
    std::vector<Point> sites() const;

    /** TSV site density in sites per mm^2. */
    double density() const;

    /**
     * Deliverable current in amps given a per-area rating
     * (paper: >1.5 A/mm^2 through the stacked-die TSV grid).
     */
    double currentCapacity(double amps_per_mm2) const;

    /**
     * Rectangular channels between TSV stripes available for SRAM
     * macros (Fig. 10): the free width between adjacent columns.
     */
    double channelWidth(double tsv_keepout_mm) const;

  private:
    Rect region_;
    double pitch_;
    std::size_t nx_;
    std::size_t ny_;
    double x0_;
    double y0_;
};

} // namespace geom
} // namespace ehpsim

#endif // EHPSIM_GEOM_TSV_GRID_HH
