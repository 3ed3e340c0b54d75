#include "core/thermal/rc_node.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace memtherm
{

RcNode::RcNode(Seconds tau, Celsius t0) : rc(tau), temp(t0)
{
    panicIfNot(tau > 0.0, "RcNode: tau must be positive");
}

Celsius
RcNode::advance(Celsius stable, Seconds dt)
{
    panicIfNot(dt >= 0.0, "RcNode: negative time step");
    if (dt != cachedDt) {
        cachedDt = dt;
        cachedDecay = 1.0 - std::exp(-dt / rc);
    }
    temp += (stable - temp) * cachedDecay;
    return temp;
}

Seconds
RcNode::timeToReach(Celsius target, Celsius stable) const
{
    if (target == temp)
        return 0.0;
    double num = stable - temp;
    double den = stable - target;
    // Reachable only if target lies between temp (exclusive) and stable:
    // both offsets on the same side of stable and |num| >= |den| > 0.
    bool reachable = den != 0.0 && (num > 0.0) == (den > 0.0) &&
                     std::abs(num) >= std::abs(den);
    if (!reachable)
        return std::numeric_limits<double>::infinity();
    return rc * std::log(num / den);
}

} // namespace memtherm
