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
    out.demandPasses = 0;
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
    ++out.demandPasses;
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

    const double warm = out.latencyNs;
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
    // so D(L) and D'(L) cost one divide per task: one demand pass. Zero
    // demand gives rho = 0 at every L, and L = L0. Otherwise the root lies
    // in (L0, L_clamp], with L_clamp = implied(L0): the implied latency is
    // never below L0, and implied() is non-increasing, so
    // g(L_clamp) >= 0. Where rho is clamped at L0 (the saturated and
    // DTM-capped windows), implied() is flat across the clamped range and
    // steep near the root, so Newton on g would step to the bracket's end
    // and crawl back by midpoints. Instead, the root is where the
    // utilization meets the queue slack sigma = 1 - rho that the latency
    // implies through L = L0 * (1 + k * (1 - sigma) / sigma), i.e. the
    // root L* of
    //   F(L) = 1/rho(L) - 1/(1 - sigma(L))
    //        = 1/rho(L) - 1 - L0 * k / (L - L0)
    // with rho unclamped, unless that lies at or past L_clamp, where rho
    // stays clamped and L_clamp is the root. 1/rho is the parallel sum of
    // the affine (b_i + a_i * L) / c_i, hence concave, increasing and
    // exactly linear for identical tasks; -L0 * k / (L - L0) is concave
    // and increasing too. So the tangent at any iterate lies above F:
    // from the left of L*, Newton climbs monotonically and never passes
    // L*; from the right, one step lands at or left of L* (possibly past
    // the bracket's lower end). In both cases a step that leaves the
    // bracket upward while no iterate has yet been at or right of L*
    // proves L* is at or past the bracket's upper end.
    //
    // The answer is min(L*, L_max), L_max = L0 * (1 + k * rho_max /
    // (1 - rho_max)), whatever rho(L0) is: if rho(L0) < rho_max, then
    // L* < L_clamp < L_max; otherwise L_clamp = L_max, and L* < L_max
    // means rho(L*) < rho_max, so L* is the root with rho unclamped. Two
    // starts use this:
    //  - warm: the previous window's root (@p out's latencyNs on entry,
    //    which the window loop keeps per run) when it lies in (L0, inf):
    //    Newton from min(warm, L_max) inside (L0, L_max]. It needs no
    //    side test and no pass at L0; zero demand shows as rho = 0 at
    //    the warm point. Consecutive windows mostly solve nearly the
    //    same equation, so the first step is usually already tiny.
    //  - cold: a run's first window, and a previous root that is not
    //    above L0 (an empty window) or not finite (a shut-down one).
    //    One pass at L0 gives rho(L0) and L_clamp; Newton starts where
    //    F's root would be if 1/rho were its tangent at L0 (one
    //    quadratic, no extra pass): the tangent lies above 1/rho, so
    //    the start is at or left of L*. A start at or past L_clamp
    //    proves the root is L_clamp.
    // A step that leaves the bracket otherwise (an overshoot from the
    // right, rounding, or non-finite input) falls back to its midpoint.
    //
    // Stopping rule: |F''/F'| <= 2 / (L - L0) on (L0, inf) (for
    // -L0 * k / (L - L0) exactly; for 1/rho, |h''|/h' <= 2 max a_i /
    // (b_i + a_i * L) <= 2 / L), so after a Newton step s the error is at
    // most about s^2 / (L - L0). The iteration stops after a step that
    // stays inside the bracket and is at most 1e-8 (L - L0) + 1e-15 L:
    // the error is then below ~1e-16 (L - L0), at rounding. (A bound of
    // 1e-8 L alone misses 1e-12 when the root is within ~1e-4 L of L0.)
    // The 1e-15 L term only stops steps at rounding noise when the root
    // is within ~1e-7 L of L0; the bracket test and the iteration cap
    // only bound rounding and non-finite inputs.
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
        ++out.demandPasses;
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
    // The latency rho (clamped) implies.
    auto implied = [&](double rho) {
        return l0 * (1.0 + qk * rho * (1.0 / (1.0 - rho)));
    };
    // Newton on F from @p l, bracketed in (L0, top] (l0 < l <= top):
    // min(L*, top), or L0 for zero demand.
    auto newton = [&](double l, const double top) {
        double lo = l0;
        double hi = top;
        for (int i = 0; i < 100; ++i) {
            double drho = 0.0;
            double df = 0.0;
            const double rho = utilization(l, drho);
            if (rho == 0.0)
                return l0;
            const double f = excess(l, rho, drho, df);
            if (f < 0.0) {
                lo = l;
            } else {
                hi = l;
            }
            double next = l - f / df;
            if (next >= lo && next <= hi) {
                if (std::abs(next - l) <= 1e-8 * (l - l0) + 1e-15 * l)
                    return next;
            } else {
                // Leaving the bracket upward before any iterate was at
                // or right of L* proves L* is at or past top; any other
                // exit bisects.
                if (next >= hi && hi == top)
                    return top;
                next = 0.5 * (lo + hi);
            }
            l = next;
            if (hi - lo <= 1e-15 * l)
                break;
        }
        return l;
    };

    double l = l0;
    double top = implied(rho_max);
    const double warm_start = std::min(warm, top);
    if (warm_start > l0 && warm < std::numeric_limits<double>::infinity()) {
        l = newton(warm_start, top);
    } else {
        double drho = 0.0;
        const double rho0 = utilization(l0, drho);
        if (rho0 > 0.0) {
            top = implied(std::min(rho0, rho_max));
            // Start at the root of F with 1/rho replaced by its tangent
            // at L0, h0 + dh0 * e (e = L - L0):
            // dh0 * e^2 + b * e - L0 * k = 0, solved for e > 0 in the
            // form that does not cancel.
            const double h0 = 1.0 / rho0;
            const double dh0 = -drho * h0 * h0;
            const double b = h0 - 1.0;
            const double disc = std::sqrt(b * b + 4.0 * dh0 * l0 * qk);
            const double start =
                l0 + (b >= 0.0 ? 2.0 * l0 * qk / (b + disc)
                               : (disc - b) / (2.0 * dh0));
            l = start < top ? newton(start, top) : top;
        }
    }
    if (!(l < top))
        l = top; // rho stays clamped at the root
    fill(tasks, freq, fmax, l, mem, cap_eff, out);
}

} // namespace memtherm
