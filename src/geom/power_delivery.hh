/**
 * @file
 * Package power-delivery model (paper Sec. V.D).
 *
 * MI300A delivers >1.5 A/mm^2 through the IOD's P/G TSV grid to the
 * stacked compute chiplets, plus 0.5 A/mm^2 through the IOD's bottom
 * microbump interface for the IOD itself. This model checks current
 * demand against those ratings and estimates resistive (I^2 R) loss.
 */

#ifndef EHPSIM_GEOM_POWER_DELIVERY_HH
#define EHPSIM_GEOM_POWER_DELIVERY_HH

#include <string>
#include <vector>

#include "geom/rect.hh"

namespace ehpsim
{
namespace geom
{

/** One vertical power-delivery path (TSV grid or microbump field). */
struct DeliveryPath
{
    std::string name;
    double area_mm2 = 0;            ///< area of the delivery region
    double rating_a_per_mm2 = 0;    ///< current rating
    double resistance_mohm = 0;     ///< effective path resistance

    double maxCurrent() const { return area_mm2 * rating_a_per_mm2; }
};

/** Demand/capacity result for one path. */
struct DeliveryCheck
{
    std::string name;
    double demand_a = 0;
    double capacity_a = 0;
    double margin = 0;          ///< capacity/demand (>= 1 is ok)
    double i2r_loss_w = 0;      ///< resistive loss at this demand
    bool ok = false;
};

/** Power-delivery network: a set of paths plus supply voltage. */
class PowerDeliveryModel
{
  public:
    explicit PowerDeliveryModel(double supply_v) : supply_v_(supply_v) {}

    void addPath(const DeliveryPath &p) { paths_.push_back(p); }

    const std::vector<DeliveryPath> &paths() const { return paths_; }

    double supplyVoltage() const { return supply_v_; }

    /** Current (A) required to deliver @p watts at the supply rail. */
    double currentForPower(double watts) const;

    /** Check one named path against a power demand in watts. */
    DeliveryCheck check(const std::string &path_name,
                        double watts) const;

  private:
    double supply_v_;
    std::vector<DeliveryPath> paths_;
};

} // namespace geom
} // namespace ehpsim

#endif // EHPSIM_GEOM_POWER_DELIVERY_HH
