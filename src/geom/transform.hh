/**
 * @file
 * Chiplet placement transforms: rotation by 180 degrees and mirroring.
 *
 * MI300's IODs are instantiated in four flavours: normal, rotated
 * 180deg, mirrored, and mirrored+rotated (paper Fig. 9). A Transform
 * maps points in a die's local coordinate frame (origin at the
 * lower-left of a w x h die) to the transformed local frame, plus an
 * optional placement offset into package coordinates.
 */

#ifndef EHPSIM_GEOM_TRANSFORM_HH
#define EHPSIM_GEOM_TRANSFORM_HH

#include <array>
#include <string>
#include <vector>

#include "geom/rect.hh"

namespace ehpsim
{
namespace geom
{

/** The four orientations arising from mirror and 180-deg rotation. */
enum class Orient
{
    r0,             ///< as drawn
    r180,           ///< rotated 180 degrees
    mirrored,       ///< mirrored about the vertical axis
    mirroredR180,   ///< mirrored then rotated 180 degrees
};

/** All four orientations, for exhaustive sweeps. */
constexpr std::array<Orient, 4> allOrients = {
    Orient::r0, Orient::r180, Orient::mirrored, Orient::mirroredR180,
};

/** Human-readable orientation name. */
const char *orientName(Orient o);

/** True when the orientation includes a mirror. */
inline bool
isMirrored(Orient o)
{
    return o == Orient::mirrored || o == Orient::mirroredR180;
}

/**
 * Placement of a w x h die: orientation about the die's own bounding
 * box, then translation by (dx, dy).
 */
class Transform
{
  public:
    Transform(double die_w, double die_h, Orient orient,
              double dx = 0, double dy = 0)
        : w_(die_w), h_(die_h), orient_(orient), dx_(dx), dy_(dy)
    {}

    Orient orient() const { return orient_; }

    /** Map a local point into the placed frame. */
    Point apply(const Point &p) const;

    /** Map a whole set of points. */
    std::vector<Point> apply(const std::vector<Point> &pts) const;

  private:
    double w_;
    double h_;
    Orient orient_;
    double dx_;
    double dy_;
};

} // namespace geom
} // namespace ehpsim

#endif // EHPSIM_GEOM_TRANSFORM_HH
