#include "geom/transform.hh"

#include "sim/logging.hh"

namespace ehpsim
{
namespace geom
{

const char *
orientName(Orient o)
{
    switch (o) {
      case Orient::r0:
        return "r0";
      case Orient::r180:
        return "r180";
      case Orient::mirrored:
        return "mirrored";
      case Orient::mirroredR180:
        return "mirroredR180";
    }
    panic("bad orientation");
}

Point
Transform::apply(const Point &p) const
{
    Point q = p;
    switch (orient_) {
      case Orient::r0:
        break;
      case Orient::r180:
        q = {w_ - p.x, h_ - p.y};
        break;
      case Orient::mirrored:
        q = {w_ - p.x, p.y};
        break;
      case Orient::mirroredR180:
        // mirror about vertical axis, then rotate 180:
        // (x,y) -> (w-x, y) -> (w-(w-x), h-y) = (x, h-y)
        q = {p.x, h_ - p.y};
        break;
    }
    return {q.x + dx_, q.y + dy_};
}

std::vector<Point>
Transform::apply(const std::vector<Point> &pts) const
{
    std::vector<Point> out;
    out.reserve(pts.size());
    for (const auto &p : pts)
        out.push_back(apply(p));
    return out;
}

} // namespace geom
} // namespace ehpsim
