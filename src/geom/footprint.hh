/**
 * @file
 * Chiplet footprints and die-to-die interface banks.
 *
 * A ChipletFootprint is a die outline plus named banks of bond-pad
 * (BPM) sites in die-local coordinates. An InterfaceBank models one
 * signal interface (e.g., one CCD's GMI-style 3D interface, or one
 * XCD TSV field) as a rectangular array of pads.
 */

#ifndef EHPSIM_GEOM_FOOTPRINT_HH
#define EHPSIM_GEOM_FOOTPRINT_HH

#include <string>
#include <vector>

#include "geom/rect.hh"
#include "geom/tsv_grid.hh"

namespace ehpsim
{
namespace geom
{

/** A rectangular array of bond pads forming one signal interface. */
struct InterfaceBank
{
    std::string name;
    Rect region;        ///< die-local bounding box
    double pitch_mm;    ///< pad pitch (9 um hybrid bond, 35 um ubump)

    /** Materialize the pad sites (centred grid, like PowerTsvGrid). */
    std::vector<Point> pads() const;
};

/** A die outline plus its signal interface banks. */
class ChipletFootprint
{
  public:
    ChipletFootprint(std::string name, double w_mm, double h_mm)
        : name_(std::move(name)), width_(w_mm), height_(h_mm)
    {}

    const std::string &name() const { return name_; }

    double width() const { return width_; }

    double height() const { return height_; }

    double area() const { return width_ * height_; }

    Rect outline() const { return {0, 0, width_, height_}; }

    /** Add a signal interface bank; must lie within the outline. */
    void addBank(const InterfaceBank &bank);

    const std::vector<InterfaceBank> &banks() const { return banks_; }

    /** All pads from all banks, in die-local coordinates. */
    std::vector<Point> allPads() const;

  private:
    std::string name_;
    double width_;
    double height_;
    std::vector<InterfaceBank> banks_;
};

} // namespace geom
} // namespace ehpsim

#endif // EHPSIM_GEOM_FOOTPRINT_HH
