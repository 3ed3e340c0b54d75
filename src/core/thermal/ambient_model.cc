#include "core/thermal/ambient_model.hh"

#include <cmath>

#include "common/logging.hh"

namespace memtherm
{

AmbientModel::AmbientModel(const AmbientParams &p)
    : params(p), temp(p.tInlet)
{
    panicIfNot(p.tauCpuDram > 0.0, "AmbientModel: tau must be positive");
}

Celsius
AmbientModel::advance(double sum_v_ipc, Watts cpu_power, Seconds dt)
{
    panicIfNot(dt >= 0.0, "AmbientModel: negative time step");
    if (!integrated()) {
        // Isolated model: constant ambient, no dynamics.
        return temp;
    }
    if (dt != cachedDt) {
        cachedDt = dt;
        cachedDecay = 1.0 - std::exp(-dt / params.tauCpuDram);
    }
    temp += (stable(sum_v_ipc, cpu_power) - temp) * cachedDecay;
    return temp;
}

} // namespace memtherm
