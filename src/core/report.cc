#include "core/report.hh"

namespace ehpsim
{
namespace core
{

double
RunReport::gpuSeconds() const
{
    double t = 0;
    for (const auto &p : phases)
        t += p.gpu_s;
    return t;
}

double
RunReport::cpuSeconds() const
{
    double t = 0;
    for (const auto &p : phases)
        t += p.cpu_s;
    return t;
}

double
RunReport::transferSeconds() const
{
    double t = 0;
    for (const auto &p : phases)
        t += p.transfer_s;
    return t;
}

} // namespace core
} // namespace ehpsim
