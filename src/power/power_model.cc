#include "power/power_model.hh"

#include "sim/logging.hh"

namespace ehpsim
{
namespace power
{

const char *
domainName(Domain d)
{
    switch (d) {
      case Domain::xcd:
        return "xcd";
      case Domain::ccd:
        return "ccd";
      case Domain::infinityCache:
        return "infinity_cache";
      case Domain::fabric:
        return "fabric";
      case Domain::usr:
        return "usr";
      case Domain::hbm:
        return "hbm";
      case Domain::io:
        return "io";
      case Domain::other:
        return "other";
    }
    panic("bad power domain");
}

double
PowerDistribution::total() const
{
    double t = 0;
    for (double s : share)
        t += s;
    return t;
}

void
PowerDistribution::normalize()
{
    const double t = total();
    if (t <= 0)
        return;
    for (double &s : share)
        s /= t;
}

PowerDistribution
computeIntensiveDistribution()
{
    // Fig. 12(a), compute-intensive (GPU) scenario: the majority of
    // socket power goes to the compute chiplets.
    PowerDistribution d;
    d.share[static_cast<unsigned>(Domain::xcd)] = 0.58;
    d.share[static_cast<unsigned>(Domain::ccd)] = 0.08;
    d.share[static_cast<unsigned>(Domain::infinityCache)] = 0.05;
    d.share[static_cast<unsigned>(Domain::fabric)] = 0.07;
    d.share[static_cast<unsigned>(Domain::usr)] = 0.04;
    d.share[static_cast<unsigned>(Domain::hbm)] = 0.12;
    d.share[static_cast<unsigned>(Domain::io)] = 0.02;
    d.share[static_cast<unsigned>(Domain::other)] = 0.04;
    d.normalize();
    return d;
}

PowerDistribution
memoryIntensiveDistribution()
{
    // Fig. 12(a), memory-intensive scenario: power shifts to the
    // memory system, data fabric, and USR links.
    PowerDistribution d;
    d.share[static_cast<unsigned>(Domain::xcd)] = 0.30;
    d.share[static_cast<unsigned>(Domain::ccd)] = 0.06;
    d.share[static_cast<unsigned>(Domain::infinityCache)] = 0.10;
    d.share[static_cast<unsigned>(Domain::fabric)] = 0.13;
    d.share[static_cast<unsigned>(Domain::usr)] = 0.11;
    d.share[static_cast<unsigned>(Domain::hbm)] = 0.24;
    d.share[static_cast<unsigned>(Domain::io)] = 0.02;
    d.share[static_cast<unsigned>(Domain::other)] = 0.04;
    d.normalize();
    return d;
}

PowerModel::PowerModel(SimObject *parent, const std::string &name,
                       double tdp_w)
    : SimObject(parent, name), tdp_w_(tdp_w)
{
    if (tdp_w <= 0)
        fatal("TDP must be positive");
}

double
PowerModel::idlePower() const
{
    double p = 0;
    for (const auto &c : components_)
        p += c.idle_w;
    return p;
}

double
PowerModel::maxPower() const
{
    double p = 0;
    for (const auto &c : components_)
        p += c.peak_w;
    return p;
}

PowerModel *
PowerModel::makeMi300a(SimObject *parent)
{
    // 550 W TDP (paper Sec. IX). Peak numbers sum well above TDP:
    // the whole point of the governor is that not everything can be
    // at peak simultaneously.
    auto *pm = new PowerModel(parent, "power", 550.0);
    for (unsigned i = 0; i < 6; ++i) {
        pm->addComponent({"xcd" + std::to_string(i), Domain::xcd,
                          8.0, 75.0});
    }
    for (unsigned i = 0; i < 3; ++i) {
        pm->addComponent({"ccd" + std::to_string(i), Domain::ccd,
                          5.0, 40.0});
    }
    pm->addComponent({"infinity_cache", Domain::infinityCache,
                      8.0, 45.0});
    pm->addComponent({"fabric", Domain::fabric, 12.0, 60.0});
    pm->addComponent({"usr", Domain::usr, 6.0, 50.0});
    pm->addComponent({"hbm", Domain::hbm, 20.0, 110.0});
    pm->addComponent({"io", Domain::io, 4.0, 18.0});
    pm->addComponent({"soc_other", Domain::other, 10.0, 25.0});
    return pm;
}

} // namespace power
} // namespace ehpsim
