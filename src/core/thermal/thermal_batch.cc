#include "core/thermal/thermal_batch.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace memtherm
{

BankHullBlocks::BankHullBlocks(int dimms, std::vector<int> hull_start)
    : hullStart(std::move(hull_start))
{
    if (hullStart.empty())
        return;
    const std::size_t n = static_cast<std::size_t>(dimms);
    panicIfNot(hullStart.size() == n + 1 && hullStart[0] == 0,
               "ThermalState: one hull block per DIMM");
    for (std::size_t d = 0; d < n; ++d)
        panicIfNot(hullStart[d + 1] > hullStart[d],
                   "ThermalState: empty hull block");
    hull.reset(new BankHullVertex[hullCapacity()]);
    hullSize.assign(n, 0);
}

BankHullBlocks::BankHullBlocks(const BankHullBlocks &o)
    : hullSize(o.hullSize), hullStart(o.hullStart),
      hull(o.hull ? new BankHullVertex[o.hullCapacity()] : nullptr)
{
    for (std::size_t d = 0; d < hullSize.size(); ++d) {
        const int i = static_cast<int>(d);
        std::copy_n(o.bankHull(i), hullSize[d], bankHull(i));
    }
}

BankHullBlocks &
BankHullBlocks::operator=(const BankHullBlocks &o)
{
    if (this != &o)
        *this = BankHullBlocks(o);
    return *this;
}

ThermalState::ThermalState(int dimms, std::vector<int> hull_start)
    : BankHullBlocks(dimms, std::move(hull_start))
{
    panicIfNot(dimms >= 1, "ThermalState: need >= 1 DIMM");
    const std::size_t n = static_cast<std::size_t>(dimms);
    amb.assign(n, 0.0);
    dram.assign(n, 0.0);
    stableAmb.assign(n, 0.0);
    stableDram.assign(n, 0.0);
    peakAmb.assign(n, 0.0);
    peakDram.assign(n, 0.0);
    energy.assign(n, 0.0);
    if (!hullSize.empty()) {
        spread.assign(n, 0.0);
        stableSpread.assign(n, 0.0);
    }
}

void
ThermalState::reset(Seconds tau_amb, Seconds tau_dram, Celsius t0)
{
    panicIfNot(tau_amb > 0.0 && tau_dram > 0.0,
               "ThermalState: time constants must be > 0");
    tauAmb = tau_amb;
    tauDram = tau_dram;
    cachedDt = -1.0; // recompute the decay on the next step
    for (std::size_t i = 0; i < amb.size(); ++i) {
        amb[i] = t0;
        dram[i] = t0;
        peakAmb[i] = t0;
        peakDram[i] = t0;
        energy[i] = 0.0;
    }
    for (double &v : spread)
        v = 0.0;
    restartBankHulls();
    energyTime = 0.0;
}

void
ThermalState::restartBankHulls()
{
    for (std::size_t i = 0; i < hullSize.size(); ++i) {
        *bankHull(static_cast<int>(i)) = {spread[i], dram[i], 0};
        hullSize[i] = 1;
    }
}

void
ThermalState::ensureDecay(Seconds dt)
{
    panicIfNot(dt >= 0.0, "ThermalState: negative time step");
    if (dt == cachedDt)
        return;
    cachedDt = dt;
    decayAmb = 1.0 - std::exp(-dt / tauAmb);
    decayDram = 1.0 - std::exp(-dt / tauDram);
}

void
ThermalState::advance()
{
    const double da = decayAmb;
    const double dd = decayDram;
    const std::size_t n = amb.size();
    for (std::size_t i = 0; i < n; ++i)
        amb[i] += (stableAmb[i] - amb[i]) * da;
    for (std::size_t i = 0; i < n; ++i)
        dram[i] += (stableDram[i] - dram[i]) * dd;
    // Bank cells share the DRAM node's time constant (same silicon, same
    // Eq. 3.5 step), and so does the spread that places them around it.
    for (std::size_t i = 0; i < spread.size(); ++i)
        spread[i] += (stableSpread[i] - spread[i]) * dd;
}

} // namespace memtherm
