#include "core/thermal/memory_thermal.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace memtherm
{

namespace
{

void
checkOrgAndShares(const MemoryOrgConfig &org,
                  const std::vector<double> &shares)
{
    panicIfNot(org.nChannels >= 1 && org.nDimmsPerChannel >= 1,
               "MemoryThermalModel: bad organization");
    panicIfNot(shares.empty() ||
                   static_cast<int>(shares.size()) == org.nDimmsPerChannel,
               "MemoryThermalModel: traffic share arity");
}

} // namespace

MemoryThermalModel::MemoryThermalModel(const MemoryOrgConfig &org,
                                       const CoolingConfig &cooling,
                                       const DimmPowerModel &power,
                                       Celsius t0,
                                       std::vector<double> traffic_shares,
                                       std::optional<BankGridConfig>
                                           bank_grid)
    : orgCfg(org), pwr(power), cool(cooling),
      shares(std::move(traffic_shares)), ownedState(nullptr), st(nullptr),
      laneIdx(0)
{
    checkOrgAndShares(orgCfg, shares);
    if (bank_grid)
        grid = BankOverlay::of(*bank_grid, orgCfg.nDimmsPerChannel);
    ownedState = std::make_unique<ThermalBatchState>(
        1, orgCfg.nDimmsPerChannel, bank_grid ? bank_grid->cells() : 0);
    st = ownedState.get();
    st->initLane(0, cool.tauAmb, cool.tauDram, t0);
}

MemoryThermalModel::MemoryThermalModel(const MemoryOrgConfig &org,
                                       const CoolingConfig &cooling,
                                       const DimmPowerModel &power,
                                       Celsius t0,
                                       std::vector<double> traffic_shares,
                                       ThermalBatchState &state, int lane,
                                       std::optional<BankGridConfig>
                                           bank_grid)
    : orgCfg(org), pwr(power), cool(cooling),
      shares(std::move(traffic_shares)), ownedState(nullptr), st(&state),
      laneIdx(lane)
{
    checkOrgAndShares(orgCfg, shares);
    if (bank_grid)
        grid = BankOverlay::of(*bank_grid, orgCfg.nDimmsPerChannel);
    panicIfNot(state.dimms() == orgCfg.nDimmsPerChannel,
               "MemoryThermalModel: batch state chain length mismatch");
    panicIfNot(state.bankCells() == (bank_grid ? bank_grid->cells() : 0),
               "MemoryThermalModel: batch state bank cell mismatch");
    st->initLane(laneIdx, cool.tauAmb, cool.tauDram, t0);
}

MemoryThermalModel::MemoryThermalModel(const MemoryThermalModel &src,
                                       ThermalBatchState &state, int lane)
    : orgCfg(src.orgCfg), pwr(src.pwr), cool(src.cool), shares(src.shares),
      refreshDram(src.refreshDram), grid(src.grid),
      ownedState(nullptr), st(&state), laneIdx(lane)
{
    panicIfNot(src.st == &state,
               "MemoryThermalModel: a fork must stay in its source's "
               "batch state");
    st->copyLane(laneIdx, src.laneIdx);
}

const std::vector<DimmPower> &
MemoryThermalModel::channelPower(GBps total_read, GBps total_write) const
{
    GBps ch_read = total_read / orgCfg.nChannels;
    GBps ch_write = total_write / orgCfg.nChannels;
    decomposeChannelTraffic(ch_read, ch_write, orgCfg.nDimmsPerChannel,
                            shares, trafficScratch);
    powerScratch.resize(trafficScratch.size());
    for (std::size_t i = 0; i < trafficScratch.size(); ++i) {
        bool last = static_cast<int>(i) == orgCfg.nDimmsPerChannel - 1;
        powerScratch[i] = pwr.power(trafficScratch[i], last);
    }
    // Refresh feedback: temperature-dependent refresh power rides on
    // the DRAM devices, so it reaches the stable-temperature targets,
    // the per-DIMM energy accumulators and the subsystem power alike.
    if (!refreshDram.empty())
        for (std::size_t i = 0; i < powerScratch.size(); ++i)
            powerScratch[i].dram += refreshDram[i];
    return powerScratch;
}

void
MemoryThermalModel::setRefreshDramPower(const std::vector<Watts> &w)
{
    panicIfNot(w.empty() ||
                   static_cast<int>(w.size()) == orgCfg.nDimmsPerChannel,
               "MemoryThermalModel: refresh power arity");
    for (Watts p : w)
        panicIfNot(std::isfinite(p) && p >= 0.0,
                   "MemoryThermalModel: refresh power must be finite "
                   "and non-negative");
    refreshDram.assign(w.begin(), w.end());
}

void
MemoryThermalModel::stageAdvance(GBps total_read, GBps total_write,
                                 Celsius ambient, Seconds dt)
{
    st->ensureDecay(dt);
    const auto &powers = channelPower(total_read, total_write);
    double *sa = st->stableAmb(laneIdx);
    double *sd = st->stableDram(laneIdx);
    for (std::size_t i = 0; i < powers.size(); ++i) {
        sa[i] = stableAmbAt(ambient, powers[i]);
        sd[i] = stableDramAt(ambient, powers[i]);
    }
    if (grid) {
        double *sb = st->stableBankSpread(laneIdx);
        for (std::size_t i = 0; i < powers.size(); ++i)
            sb[i] = stableSpreadAt(powers[i]);
    }
}

MemoryThermalSample
MemoryThermalModel::finishAdvance(Seconds dt)
{
    MemoryThermalSample s;
    Watts channel_power = 0.0;
    const double *amb = st->ambTemp(laneIdx);
    const double *dram = st->dramTemp(laneIdx);
    double *pa = st->peakAmb(laneIdx);
    double *pd = st->peakDram(laneIdx);
    double *e = st->energy(laneIdx);
    for (std::size_t i = 0; i < powerScratch.size(); ++i) {
        s.hottestAmb = std::max(s.hottestAmb, amb[i]);
        s.hottestDram = std::max(s.hottestDram, dram[i]);
        pa[i] = std::max(pa[i], amb[i]);
        pd[i] = std::max(pd[i], dram[i]);
        e[i] += powerScratch[i].total() * dt;
        channel_power += powerScratch[i].total();
    }
    if (grid) {
        const double *v = st->bankSpread(laneIdx);
        int *size = st->bankHullSize(laneIdx);
        const int *start = grid->slopeStart.data();
        for (int i = 0; i < orgCfg.nDimmsPerChannel; ++i)
            size[i] = offerBankHullPoint(
                st->bankHull(laneIdx, i), size[i],
                grid->slopes.data() + start[i], start[i + 1] - start[i],
                v[i], dram[i]);
    }
    st->energyTime(laneIdx) += dt;
    s.subsystemPower = channel_power * orgCfg.nChannels;
    return s;
}

MemoryThermalSample
MemoryThermalModel::advance(GBps total_read, GBps total_write,
                            Celsius ambient, Seconds dt)
{
    stageAdvance(total_read, total_write, ambient, dt);
    commitStaged();
    return finishAdvance(dt);
}

Celsius
MemoryThermalModel::stableHottestAmb(GBps total_read, GBps total_write,
                                     Celsius ambient) const
{
    const auto &powers = channelPower(total_read, total_write);
    Celsius hottest = ambient;
    for (const auto &p : powers)
        hottest = std::max(hottest, stableAmbAt(ambient, p));
    return hottest;
}

Celsius
MemoryThermalModel::stableHottestDram(GBps total_read, GBps total_write,
                                      Celsius ambient) const
{
    const auto &powers = channelPower(total_read, total_write);
    Celsius hottest = ambient;
    for (const auto &p : powers)
        hottest = std::max(hottest, stableDramAt(ambient, p));
    return hottest;
}

Watts
MemoryThermalModel::subsystemPower(GBps total_read, GBps total_write) const
{
    const auto &powers = channelPower(total_read, total_write);
    Watts channel_power = 0.0;
    for (const auto &p : powers)
        channel_power += p.total();
    return channel_power * orgCfg.nChannels;
}

MemoryThermalSample
MemoryThermalModel::current() const
{
    MemoryThermalSample s;
    const double *amb = st->ambTemp(laneIdx);
    const double *dram = st->dramTemp(laneIdx);
    for (int i = 0; i < orgCfg.nDimmsPerChannel; ++i) {
        s.hottestAmb = std::max(s.hottestAmb, amb[i]);
        s.hottestDram = std::max(s.hottestDram, dram[i]);
    }
    return s;
}

std::vector<DimmTemps>
MemoryThermalModel::dimmTemps() const
{
    std::vector<DimmTemps> out;
    out.reserve(static_cast<std::size_t>(orgCfg.nDimmsPerChannel));
    const double *amb = st->ambTemp(laneIdx);
    const double *dram = st->dramTemp(laneIdx);
    for (int i = 0; i < orgCfg.nDimmsPerChannel; ++i)
        out.push_back({amb[i], dram[i]});
    return out;
}

void
MemoryThermalModel::currentPerDimm(std::vector<Celsius> &amb,
                                   std::vector<Celsius> &dram) const
{
    const std::size_t n =
        static_cast<std::size_t>(orgCfg.nDimmsPerChannel);
    amb.resize(n);
    dram.resize(n);
    const double *a = st->ambTemp(laneIdx);
    const double *d = st->dramTemp(laneIdx);
    for (std::size_t i = 0; i < n; ++i) {
        amb[i] = a[i];
        dram[i] = d[i];
    }
}

double
MemoryThermalModel::setTrafficShares(std::vector<double> new_shares)
{
    const int n = orgCfg.nDimmsPerChannel;
    panicIfNot(new_shares.empty() ||
                   static_cast<int>(new_shares.size()) == n,
               "MemoryThermalModel: traffic share arity");
    double sum = 0.0;
    for (double s : new_shares) {
        panicIfNot(std::isfinite(s) && s >= 0.0,
                   "MemoryThermalModel: traffic shares must be finite "
                   "and non-negative");
        sum += s;
    }
    panicIfNot(new_shares.empty() || std::abs(sum - 1.0) < 1e-9,
               "MemoryThermalModel: traffic shares must sum to 1");
    const double uniform = 1.0 / n;
    double l1 = 0.0;
    for (int i = 0; i < n; ++i) {
        double oldv = shares.empty() ? uniform : shares[i];
        double newv = new_shares.empty() ? uniform : new_shares[i];
        l1 += std::abs(newv - oldv);
    }
    shares = std::move(new_shares);
    return 0.5 * l1;
}

std::vector<DimmTemps>
MemoryThermalModel::dimmPeaks() const
{
    std::vector<DimmTemps> out;
    out.reserve(static_cast<std::size_t>(orgCfg.nDimmsPerChannel));
    const double *pa = st->peakAmb(laneIdx);
    const double *pd = st->peakDram(laneIdx);
    for (int i = 0; i < orgCfg.nDimmsPerChannel; ++i)
        out.push_back({pa[i], pd[i]});
    return out;
}

std::vector<Celsius>
MemoryThermalModel::bankPeaks() const
{
    if (!grid)
        return {};
    const std::size_t cells =
        static_cast<std::size_t>(grid->config->cells());
    const int *size = st->bankHullSize(laneIdx);
    std::vector<Celsius> out(grid->cellSlope.size());
    for (std::size_t c = 0; c < out.size(); ++c) {
        const int d = static_cast<int>(c / cells);
        out[c] = bankHullPeak(st->bankHull(laneIdx, d), size[d],
                              grid->cellSlope[c]);
    }
    return out;
}

const std::optional<BankGridConfig> &
MemoryThermalModel::bankGrid() const
{
    static const std::optional<BankGridConfig> lumped;
    return grid ? grid->config : lumped;
}

std::vector<Watts>
MemoryThermalModel::dimmAvgPower() const
{
    const std::size_t n =
        static_cast<std::size_t>(orgCfg.nDimmsPerChannel);
    std::vector<Watts> out(n, 0.0);
    const Seconds elapsed = st->energyTime(laneIdx);
    if (elapsed > 0.0) {
        const double *e = st->energy(laneIdx);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = e[i] / elapsed;
    }
    return out;
}

void
MemoryThermalModel::reset(Celsius t)
{
    st->initLane(laneIdx, cool.tauAmb, cool.tauDram, t);
}

void
MemoryThermalModel::resetToStable(GBps total_read, GBps total_write,
                                  Celsius ambient)
{
    const auto &powers = channelPower(total_read, total_write);
    double *amb = st->ambTemp(laneIdx);
    double *dram = st->dramTemp(laneIdx);
    double *pa = st->peakAmb(laneIdx);
    double *pd = st->peakDram(laneIdx);
    double *e = st->energy(laneIdx);
    for (std::size_t i = 0; i < powers.size(); ++i) {
        amb[i] = stableAmbAt(ambient, powers[i]);
        dram[i] = stableDramAt(ambient, powers[i]);
        pa[i] = amb[i];
        pd[i] = dram[i];
        e[i] = 0.0;
    }
    if (grid) {
        double *v = st->bankSpread(laneIdx);
        for (std::size_t i = 0; i < powers.size(); ++i)
            v[i] = stableSpreadAt(powers[i]);
        st->restartBankHulls(laneIdx);
    }
    st->energyTime(laneIdx) = 0.0;
}

} // namespace memtherm
