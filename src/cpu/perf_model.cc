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
    // so D(L) and D'(L) cost one divide per task and
    // g'(L) = 1 - L0 * k * rho'(L) / (1 - rho)^2 >= 1 (rho' = 0 where the
    // clamp holds). The root is found by Newton's method inside a bracket:
    // - [L0, implied(L0)] always brackets it. g(L0) <= 0 because the
    //   implied latency is never below L0, and implied() is
    //   non-increasing, so implied(implied(L0)) <= implied(L0), i.e.
    //   g(implied(L0)) >= 0. Zero demand gives g(L0) == 0 and L = L0.
    // - Newton starts at L0. Where the clamp does not hold, implied() is
    //   convex and g concave, so steps from below the root approach it
    //   monotonically and stay inside the bracket.
    // - Where rho is clamped at rho_max, implied() is flat at
    //   implied(L0), so a step taken there lands at implied(L0), on or
    //   past the upper end of the bracket. That step, and any other that
    //   leaves the open bracket, falls back to the bracket midpoint.
    // The iteration stops once the step or the bracket is within 1e-15
    // of L; the iteration cap only bounds non-finite inputs.
    const double l0 = mem.idleLatencyNs;
    const double qk = mem.queueFactor;
    const double rho_max = 0.9999;
    const double f_milli = freq / 1000.0; // folds mpki's per-kilo scale
    const double f_ratio = freq / fmax;
    // c_i's task-independent factor, over cap_eff: rho = sum * this.
    const double rho_per_demand =
        f_milli * 1e9 * mem.lineBytes / bytesPerGB / cap_eff;
    // implied(L), with dimplied/dL stored in @p slope.
    auto implied = [&](double latency, double &slope) {
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
        double rho = sum * rho_per_demand;
        double drho = -dsum * rho_per_demand;
        if (rho > rho_max) {
            rho = rho_max;
            drho = 0.0;
        }
        double u = 1.0 / (1.0 - rho);
        slope = l0 * qk * drho * u * u;
        return l0 * (1.0 + qk * rho * u);
    };

    double slope = 0.0;
    double lo = l0;
    double hi = implied(l0, slope);
    double l = l0;
    double g = l0 - hi;
    for (int i = 0; i < 100 && g != 0.0; ++i) {
        if (g < 0.0) {
            lo = l;
        } else {
            hi = l;
        }
        double next = l - g / (1.0 - slope);
        if (!(next > lo && next < hi))
            next = 0.5 * (lo + hi);
        double step = std::abs(next - l);
        l = next;
        if (step <= 1e-15 * l || hi - lo <= 1e-15 * l)
            break;
        g = l - implied(l, slope);
    }
    fill(tasks, freq, fmax, l, mem, cap_eff, out);
}

} // namespace memtherm
