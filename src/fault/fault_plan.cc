#include "fault/fault_plan.hh"

#include <charconv>
#include <sstream>

#include "sim/logging.hh"

namespace ehpsim
{
namespace fault
{

void
FaultPlan::validate() const
{
    // Negated so a NaN, which fails every compare, is rejected too.
    if (!(chunk_error_rate >= 0.0 && chunk_error_rate <= 1.0))
        fatal("fault plan: chunk_error_rate ", chunk_error_rate,
              " out of [0, 1]");
    for (const auto &lf : link_faults) {
        if (lf.node_a.empty() || lf.node_b.empty())
            fatal("fault plan: link fault with an empty node name");
        if (lf.node_a == lf.node_b)
            fatal("fault plan: link fault '", lf.node_a,
                  "' to itself");
        if (!(lf.derate >= 0.0 && lf.derate < 1.0))
            fatal("fault plan: derate ", lf.derate, " for ",
                  lf.node_a, " <-> ", lf.node_b,
                  " out of [0, 1) (0 kills the link)");
    }
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    os << "seed=" << seed << " chunk_error_rate=" << chunk_error_rate;
    if (active_cus > 0)
        os << " active_cus=" << active_cus;
    os << " link_faults=" << link_faults.size()
       << " channel_faults=" << channel_faults.size();
    return os.str();
}

LinkFault
parseLinkFault(const std::string &spec)
{
    const auto colon = spec.find(':');
    const auto at = spec.find('@');
    if (colon == std::string::npos || at == std::string::npos ||
        colon == 0 || at < colon + 2 || at + 1 >= spec.size())
        fatal("bad link fault '", spec, "' (want a:b@tick[*factor])");

    LinkFault f;
    f.node_a = spec.substr(0, colon);
    f.node_b = spec.substr(colon + 1, at - colon - 1);
    // from_chars skips no space and takes no '+' (nor a '-' for the
    // unsigned tick); with the end check below, each number must
    // span its field exactly.
    const char *end = spec.data() + spec.size();
    auto res = std::from_chars(spec.data() + at + 1, end, f.at);
    if (res.ec == std::errc() && res.ptr != end && *res.ptr == '*')
        res = std::from_chars(res.ptr + 1, end, f.derate);
    if (res.ec != std::errc() || res.ptr != end)
        fatal("bad link fault '", spec, "' (want a:b@tick[*factor])");
    return f;
}

void
applyCuHarvest(gpu::XcdParams &params, unsigned active_cus)
{
    if (active_cus == 0)
        fatal("CU harvest: an XCD needs at least one active CU");
    if (active_cus > params.physical_cus)
        fatal("CU harvest: cannot enable ", active_cus, " of ",
              params.physical_cus, " physical CUs");
    params.active_cus = active_cus;
}

} // namespace fault
} // namespace ehpsim
