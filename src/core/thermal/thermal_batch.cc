#include "core/thermal/thermal_batch.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace memtherm
{

ThermalBatchState::ThermalBatchState(int lanes, int dimms, int bank_cells)
    : nLanes(lanes), nDimms(dimms), nBankCells(bank_cells)
{
    panicIfNot(lanes >= 1, "ThermalBatchState: need >= 1 lane");
    panicIfNot(dimms >= 1, "ThermalBatchState: need >= 1 DIMM per lane");
    panicIfNot(bank_cells >= 0, "ThermalBatchState: negative bank cells");
    const std::size_t n =
        static_cast<std::size_t>(lanes) * static_cast<std::size_t>(dimms);
    ambV.assign(n, 0.0);
    dramV.assign(n, 0.0);
    stableAmbV.assign(n, 0.0);
    stableDramV.assign(n, 0.0);
    peakAmbV.assign(n, 0.0);
    peakDramV.assign(n, 0.0);
    energyV.assign(n, 0.0);
    if (bank_cells > 0) {
        spreadV.assign(n, 0.0);
        stableSpreadV.assign(n, 0.0);
        hullV.resize(n * static_cast<std::size_t>(bank_cells));
        hullSizeV.assign(n, 0);
    }
    energyTimeV.assign(static_cast<std::size_t>(lanes), 0.0);
    tauAmbV.assign(static_cast<std::size_t>(lanes), 1.0);
    tauDramV.assign(static_cast<std::size_t>(lanes), 1.0);
    decayAmbV.assign(static_cast<std::size_t>(lanes), 0.0);
    decayDramV.assign(static_cast<std::size_t>(lanes), 0.0);
}

int
ThermalBatchState::checked(int lane) const
{
    panicIfNot(lane >= 0 && lane < nLanes,
               "ThermalBatchState: lane out of range");
    return lane;
}

void
ThermalBatchState::initLane(int lane, Seconds tau_amb, Seconds tau_dram,
                            Celsius t0)
{
    panicIfNot(tau_amb > 0.0 && tau_dram > 0.0,
               "ThermalBatchState: time constants must be > 0");
    const int l = checked(lane);
    tauAmbV[l] = tau_amb;
    tauDramV[l] = tau_dram;
    cachedDt = -1.0; // memo covers the whole batch; recompute on next step
    double *amb = ambTemp(l);
    double *dram = dramTemp(l);
    double *pa = peakAmb(l);
    double *pd = peakDram(l);
    double *e = energy(l);
    for (int i = 0; i < nDimms; ++i) {
        amb[i] = t0;
        dram[i] = t0;
        pa[i] = t0;
        pd[i] = t0;
        e[i] = 0.0;
    }
    if (nBankCells > 0) {
        double *v = bankSpread(l);
        for (int i = 0; i < nDimms; ++i)
            v[i] = 0.0;
        restartBankHulls(l);
    }
    energyTimeV[l] = 0.0;
}

void
ThermalBatchState::restartBankHulls(int lane)
{
    const double *v = bankSpread(lane);
    const double *dram = dramTemp(lane);
    int *size = bankHullSize(lane);
    for (int i = 0; i < nDimms; ++i) {
        *bankHull(lane, i) = {v[i], dram[i], 0};
        size[i] = 1;
    }
}

void
ThermalBatchState::ensureDecay(Seconds dt)
{
    panicIfNot(dt >= 0.0, "ThermalBatchState: negative time step");
    if (dt == cachedDt)
        return;
    cachedDt = dt;
    // The Eq. 3.5 decay, one evaluation per lane per distinct dt
    // instead of one memo per node.
    for (int l = 0; l < nLanes; ++l) {
        decayAmbV[l] = 1.0 - std::exp(-dt / tauAmbV[l]);
        decayDramV[l] = 1.0 - std::exp(-dt / tauDramV[l]);
    }
}

void
ThermalBatchState::advanceLane(int lane)
{
    const int l = checked(lane);
    const double da = decayAmbV[l];
    const double dd = decayDramV[l];
    double *amb = ambTemp(l);
    double *dram = dramTemp(l);
    const double *sa = stableAmb(l);
    const double *sd = stableDram(l);
    for (int i = 0; i < nDimms; ++i)
        amb[i] += (sa[i] - amb[i]) * da;
    for (int i = 0; i < nDimms; ++i)
        dram[i] += (sd[i] - dram[i]) * dd;
    // Bank cells share the DRAM node's time constant (same silicon, same
    // Eq. 3.5 step), and so does the spread that places them around it.
    if (nBankCells > 0) {
        double *v = bankSpread(l);
        const double *b = stableBankSpread(l);
        for (int i = 0; i < nDimms; ++i)
            v[i] += (b[i] - v[i]) * dd;
    }
}

void
ThermalBatchState::copyLane(int dst, int src)
{
    const int d = checked(dst);
    const int s = checked(src);
    if (d == s)
        return;
    for (int i = 0; i < nDimms; ++i) {
        ambTemp(d)[i] = ambTemp(s)[i];
        dramTemp(d)[i] = dramTemp(s)[i];
        stableAmb(d)[i] = stableAmb(s)[i];
        stableDram(d)[i] = stableDram(s)[i];
        peakAmb(d)[i] = peakAmb(s)[i];
        peakDram(d)[i] = peakDram(s)[i];
        energy(d)[i] = energy(s)[i];
    }
    if (nBankCells > 0) {
        for (int i = 0; i < nDimms; ++i) {
            bankSpread(d)[i] = bankSpread(s)[i];
            stableBankSpread(d)[i] = stableBankSpread(s)[i];
            const int n = bankHullSize(d)[i] = bankHullSize(s)[i];
            std::copy(bankHull(s, i), bankHull(s, i) + n, bankHull(d, i));
        }
    }
    energyTimeV[d] = energyTimeV[s];
    tauAmbV[d] = tauAmbV[s];
    tauDramV[d] = tauDramV[s];
    decayAmbV[d] = decayAmbV[s];
    decayDramV[d] = decayDramV[s];
}

} // namespace memtherm
