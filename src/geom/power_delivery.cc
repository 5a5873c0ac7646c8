#include "geom/power_delivery.hh"

#include "sim/logging.hh"

namespace ehpsim
{
namespace geom
{

double
PowerDeliveryModel::currentForPower(double watts) const
{
    if (supply_v_ <= 0)
        fatal("supply voltage must be positive");
    return watts / supply_v_;
}

DeliveryCheck
PowerDeliveryModel::check(const std::string &path_name,
                          double watts) const
{
    for (const auto &p : paths_) {
        if (p.name == path_name) {
            DeliveryCheck c;
            c.name = p.name;
            c.demand_a = currentForPower(watts);
            c.capacity_a = p.maxCurrent();
            c.margin = c.demand_a > 0 ? c.capacity_a / c.demand_a : 1e9;
            c.i2r_loss_w =
                c.demand_a * c.demand_a * p.resistance_mohm * 1e-3;
            c.ok = c.capacity_a >= c.demand_a;
            return c;
        }
    }
    fatal("unknown power delivery path '", path_name, "'");
}

} // namespace geom
} // namespace ehpsim
