#include "cpu/perf_model.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace memtherm
{

namespace
{

/** Per-task demand at a given effective latency. */
struct Demand
{
    double ips = 0.0;
    GBps read = 0.0;
    GBps write = 0.0;
};

Demand
taskDemand(const CoreTask &t, GHz f, GHz fmax, double latency_ns,
           const MemSystemPerf &mem)
{
    double stall_cpi =
        t.mpki / 1000.0 * latency_ns * f * (1.0 - t.mlpOverlap);
    double cpi = t.cpiCore + stall_cpi;
    Demand d;
    d.ips = f * 1e9 / cpi;
    double miss_rate = d.ips * t.mpki / 1000.0; // misses per second
    double spec = t.specFrac * (f / fmax);
    d.read = miss_rate * mem.lineBytes * (1.0 + spec) / bytesPerGB;
    d.write = miss_rate * mem.lineBytes * t.writeFrac / bytesPerGB;
    return d;
}

/** Reset an out-param WindowPerf, keeping its vectors' capacity. */
void
clearPerf(WindowPerf &out)
{
    out.ips.clear();
    out.taskTraffic.clear();
    out.totalRead = 0.0;
    out.totalWrite = 0.0;
    out.latencyNs = 0.0;
    out.saturated = false;
}

/**
 * Fill @p out at the solved latency. The bandwidth constraint counts as
 * binding when the in-order sum of the per-task traffic exceeds 85% of
 * @p cap_eff.
 */
void
fill(const std::vector<CoreTask> &tasks, GHz f, GHz fmax, double latency_ns,
     const MemSystemPerf &mem, GBps cap_eff, WindowPerf &out)
{
    out.latencyNs = latency_ns;
    out.ips.reserve(tasks.size());
    out.taskTraffic.reserve(tasks.size());
    GBps total = 0.0;
    for (const auto &t : tasks) {
        Demand d = taskDemand(t, f, fmax, latency_ns, mem);
        out.ips.push_back(d.ips);
        out.taskTraffic.push_back(d.read + d.write);
        out.totalRead += d.read;
        out.totalWrite += d.write;
        total += d.read + d.write;
    }
    out.saturated = total / cap_eff > 0.85;
}

} // namespace

WindowPerf
solvePerfWindow(const std::vector<CoreTask> &tasks, GHz freq, GHz fmax,
                GBps cap, const MemSystemPerf &mem)
{
    WindowPerf out;
    solvePerfWindow(tasks, freq, fmax, cap, mem, out);
    return out;
}

void
solvePerfWindow(const std::vector<CoreTask> &tasks, GHz freq, GHz fmax,
                GBps cap, const MemSystemPerf &mem, WindowPerf &out)
{
    panicIfNot(freq > 0.0 && fmax >= freq, "solvePerfWindow: bad frequency");
    panicIfNot(cap >= 0.0, "solvePerfWindow: negative bandwidth cap");

    clearPerf(out);
    if (tasks.empty())
        return;

    // The physical channel saturates below its raw peak (scheduling and
    // bank-conflict losses); a DTM traffic cap, however, is an exact
    // budget enforced by row-activation counting (Section 5.2.1).
    GBps cap_eff = std::min(cap, mem.peakBandwidth * mem.maxUtilization);

    // Memory fully shut down: tasks with misses make no progress.
    if (cap_eff <= 1e-9) {
        out.latencyNs = std::numeric_limits<double>::infinity();
        out.saturated = true;
        for (const auto &t : tasks) {
            if (t.mpki <= 0.0) {
                out.ips.push_back(freq * 1e9 / t.cpiCore);
            } else {
                out.ips.push_back(0.0);
            }
            out.taskTraffic.push_back(0.0);
        }
        return;
    }

    // Self-consistent queueing fixed point: the effective miss latency is
    //   L = implied(L) = L0 * (1 + k * rho / (1 - rho)),
    //   rho = min(D(L) / cap_eff, rho_max)
    // D(L) is strictly decreasing in L, so
    //   g(L) = L - implied(L)
    // is strictly increasing and has a unique root. Delivered throughput
    // is continuous in demand: far below saturation L ~= L0; when demand
    // exceeds the cap, rho -> 1 and delivery approaches the cap from
    // below, with memory-bound tasks absorbing the queueing latency while
    // compute-bound tasks keep their rate.
    //
    // Task i's demand is c_i / (b_i + a_i * L), with b_i = cpiCore,
    // a_i = mpki/1000 * f * (1 - mlpOverlap) and
    // c_i = f*1e9 * mpki/1000 * lineBytes * (1 + spec_i + writeFrac),
    // so D(L) and D'(L) cost one divide per task. Zero demand gives
    // rho = 0 and L = L0. Otherwise the root lies in (L0, L_clamp], with
    // L_clamp = implied(L0): the implied latency is never below L0, and
    // implied() is non-increasing, so g(L_clamp) >= 0. Where rho is
    // clamped at L0 (the saturated and DTM-capped windows), implied() is
    // flat across the clamped range and steep near the root, so Newton on
    // g would step to the bracket's end and crawl back by midpoints.
    // Instead, the root is where the utilization meets the queue slack
    // sigma = 1 - rho that the latency implies through
    // L = L0 * (1 + k * (1 - sigma) / sigma), i.e. the root of
    //   F(L) = 1/rho(L) - 1/(1 - sigma(L))
    //        = 1/rho(L) - 1 - L0 * k / (L - L0)
    // with rho unclamped, unless that lies at or past L_clamp, where rho
    // stays clamped and L_clamp is the root. 1/rho is the parallel sum of
    // the affine (b_i + a_i * L) / c_i, hence concave, increasing and
    // exactly linear for identical tasks; -L0 * k / (L - L0) is concave
    // and increasing too. Newton starts where F's root would be if 1/rho
    // were its tangent at L0 (one quadratic, no extra demand pass): the
    // tangent lies above 1/rho, so the start is at or left of the root,
    // and on a concave increasing F Newton climbs from there
    // monotonically. An iterate that reaches L_clamp from the left proves
    // the root is there or past it. A step that leaves the bracket
    // otherwise (rounding, or non-finite input) falls back to its
    // midpoint. The iteration stops once the step or the bracket is
    // within 1e-15 of the iterate; the iteration cap only bounds
    // non-finite inputs.
    const double l0 = mem.idleLatencyNs;
    const double qk = mem.queueFactor;
    const double rho_max = 0.9999;
    const double f_milli = freq / 1000.0; // folds mpki's per-kilo scale
    const double f_ratio = freq / fmax;
    // c_i's task-independent factor, over cap_eff: rho = sum * this.
    const double rho_per_demand =
        f_milli * 1e9 * mem.lineBytes / bytesPerGB / cap_eff;
    // Unclamped rho(L), with drho/dL stored in @p drho.
    auto utilization = [&](double latency, double &drho) {
        double sum = 0.0;
        double dsum = 0.0;
        for (const auto &t : tasks) {
            double a = t.mpki * f_milli * (1.0 - t.mlpOverlap);
            double c = t.mpki * (1.0 + t.specFrac * f_ratio + t.writeFrac);
            double q = 1.0 / (t.cpiCore + a * latency);
            double d = c * q;
            sum += d;
            dsum += d * a * q;
        }
        drho = -dsum * rho_per_demand;
        return sum * rho_per_demand;
    };
    // F(L) from rho(L) and drho/dL, with dF/dL stored in @p df.
    auto excess = [&](double latency, double rho, double drho, double &df) {
        double inv_rho = 1.0 / rho;
        double inv_e = 1.0 / (latency - l0);
        df = l0 * qk * inv_e * inv_e - drho * inv_rho * inv_rho;
        return inv_rho - 1.0 - l0 * qk * inv_e;
    };

    double drho = 0.0;
    const double rho0 = utilization(l0, drho);
    double l = l0;
    if (rho0 > 0.0) {
        const double rho_c = std::min(rho0, rho_max);
        const double u = 1.0 / (1.0 - rho_c);
        const double l_clamp = l0 * (1.0 + qk * rho_c * u);
        // Start at the root of F with 1/rho replaced by its tangent at
        // L0, h0 + dh0 * e (e = L - L0): dh0 * e^2 + b * e - L0 * k = 0,
        // solved for e > 0 in the form that does not cancel.
        const double h0 = 1.0 / rho0;
        const double dh0 = -drho * h0 * h0;
        const double b = h0 - 1.0;
        const double disc = std::sqrt(b * b + 4.0 * dh0 * l0 * qk);
        l = l0 + (b >= 0.0 ? 2.0 * l0 * qk / (b + disc)
                           : (disc - b) / (2.0 * dh0));
        double lo = l0;
        double hi = l_clamp;
        for (int i = 0; i < 100 && l < hi; ++i) {
            double df = 0.0;
            double rho = utilization(l, drho);
            double f = excess(l, rho, drho, df);
            if (f < 0.0) {
                lo = l;
            } else {
                hi = l;
            }
            double next = l - f / df;
            if (std::abs(next - l) <= 1e-15 * l) {
                l = next;
                break;
            }
            // Leaving the bracket upward before any iterate overshot the
            // root proves F's root is at or past L_clamp; any other exit
            // bisects.
            if (!(next > lo && next < hi))
                next = next >= hi && hi == l_clamp ? l_clamp
                                                   : 0.5 * (lo + hi);
            l = next;
            if (hi - lo <= 1e-15 * l)
                break;
        }
        if (!(l < l_clamp))
            l = l_clamp; // rho stays clamped at the root
    }
    fill(tasks, freq, fmax, l, mem, cap_eff, out);
}

} // namespace memtherm
