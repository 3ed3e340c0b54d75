#include "core/thermal/bank_grid.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace memtherm
{

void
smoothBankCells(const BankGridConfig &grid, const double *w, double *out)
{
    const int nx = grid.x;
    const int nz = grid.z;
    for (int iz = 0; iz < nz; ++iz) {
        for (int ix = 0; ix < nx; ++ix) {
            const int c = iz * nx + ix;
            // Flux divided by the max degree (4), not the actual degree,
            // keeps the operator symmetric: the (a -> b) and (b -> a)
            // contributions use the same coefficient, so pairwise fluxes
            // cancel and the cell sum is conserved at grid edges too.
            double flux = 0.0;
            if (ix > 0)
                flux += w[c - 1] - w[c];
            if (ix + 1 < nx)
                flux += w[c + 1] - w[c];
            if (iz > 0)
                flux += w[c - nx] - w[c];
            if (iz + 1 < nz)
                flux += w[c + nx] - w[c];
            out[c] = w[c] + kBankLateralCoupling * flux / 4.0;
        }
    }
}

std::vector<double>
resolveBankCellWeights(const BankGridConfig &grid, int n_dimms)
{
    panicIfNot(grid.x >= 1 && grid.z >= 1, "bank grid must be at least 1x1");
    panicIfNot(n_dimms >= 1, "bank grid needs at least one DIMM");
    const int cells = grid.cells();
    std::vector<double> out(static_cast<std::size_t>(n_dimms) * cells);

    if (grid.weights.empty()) {
        // Uniform: the scaled weight is exactly 1.0 per cell (no 1/N
        // round-trip), so each cell's stable target is bit-identical to
        // the lumped DRAM node's.
        for (double &v : out)
            v = 1.0;
        return out;
    }

    const std::size_t per_dimm = static_cast<std::size_t>(cells);
    const std::size_t n = grid.weights.size();
    panicIfNot(n == per_dimm ||
                   n == per_dimm * static_cast<std::size_t>(n_dimms),
               "bank grid weights must have cells() or nDimms*cells() entries");
    for (double v : grid.weights)
        panicIfNot(std::isfinite(v) && v >= 0.0,
                   "bank grid weights must be finite and non-negative");

    std::vector<double> scaled(per_dimm);
    for (int d = 0; d < n_dimms; ++d) {
        const double *w =
            grid.weights.data() + (n == per_dimm ? 0 : d * per_dimm);
        for (std::size_t c = 0; c < per_dimm; ++c)
            scaled[c] = w[c] * cells;
        smoothBankCells(grid, scaled.data(), out.data() + d * per_dimm);
    }
    return out;
}

BankOverlay::BankOverlay(const BankGridConfig &g, int n_dimms)
    : config(g), cellSlope(resolveBankCellWeights(g, n_dimms)),
      slopeStart{0}
{
    for (double &w : cellSlope)
        w -= 1.0;
    const std::ptrdiff_t cells = g.cells();
    for (auto c = cellSlope.begin(); c != cellSlope.end(); c += cells) {
        const auto at = slopes.insert(slopes.end(), c, c + cells);
        std::sort(at, slopes.end());
        slopes.erase(std::unique(at, slopes.end()), slopes.end());
        slopeStart.push_back(static_cast<int>(slopes.size()));
    }
}

std::shared_ptr<const BankOverlay>
BankOverlay::of(const BankGridConfig &g, int n_dimms)
{
    thread_local std::shared_ptr<const BankOverlay> last;
    if (!last || *last->config != g ||
        last->slopeStart.size() != static_cast<std::size_t>(n_dimms) + 1)
        last = std::make_shared<const BankOverlay>(g, n_dimms);
    return last;
}

int
offerBankHullPoint(BankHullVertex *hull, int size, const double *slopes,
                   int n_slopes, double v, double d)
{
    auto last = [&](int j) {
        return j + 1 < size ? hull[j + 1].first - 1 : n_slopes - 1;
    };
    auto wins = [&](int k, int j) {
        return (d + slopes[k] * v) - (hull[j].d + slopes[k] * hull[j].v) >
               0.0;
    };
    // The slope of vertex j nearest its end @p end that the point wins,
    // given that it wins @p win: the gain is linear within a vertex, so
    // bisect between the two unless the point wins @p end itself.
    auto edge = [&](int end, int win, int j) {
        if (wins(end, j))
            return end;
        for (int lose = end; std::abs(win - lose) > 1;) {
            const int mid = lose + (win - lose) / 2;
            (wins(mid, j) ? win : lose) = mid;
        }
        return win;
    };

    // The winners' V ascend with their slopes, so the point's gain over
    // the envelope, concave in s, rises across the vertices with V <= v
    // and falls after them: its maximum is at the last slope of the
    // last such vertex, or at the first slope of the next.
    const int r = static_cast<int>(
        std::upper_bound(hull, hull + size, v,
                         [](double x, const BankHullVertex &o) {
                             return x < o.v;
                         }) -
        hull);
    int j = r - 1, k = r > 0 ? last(r - 1) : 0;
    if (r == 0 || !wins(k, j)) {
        j = r;
        if (r == size || !wins(k = hull[r].first, r))
            return size;
    }

    // The won run [a, b] spreads from k over whole vertices while the
    // point wins their nearest slope, and ends inside the next.
    int ja = j, jb = j;
    while (ja > 0 && wins(hull[ja].first - 1, ja - 1))
        --ja;
    while (jb + 1 < size && wins(hull[jb + 1].first, jb + 1))
        ++jb;
    const int a = edge(hull[ja].first, ja == j ? k : last(ja), ja);
    const int b = edge(last(jb), jb == j ? k : hull[jb].first, jb);

    // Splice: ja keeps its slopes below a and jb those above b, if any;
    // the vertices in between win nothing now and go.
    const int head = hull[ja].first < a ? ja + 1 : ja;
    const int tail = last(jb) > b ? jb : jb + 1;
    const int n_tail = size - tail;
    if (head + 1 < tail)
        std::copy(hull + tail, hull + size, hull + head + 1);
    else if (head + 1 > tail)
        std::copy_backward(hull + tail, hull + size,
                           hull + head + 1 + n_tail);
    hull[head] = {v, d, a};
    if (n_tail > 0)
        hull[head + 1].first = b + 1;
    return head + 1 + n_tail;
}

double
bankHullPeak(const BankHullVertex *hull, int size, double s)
{
    double peak = hull[0].d + s * hull[0].v;
    for (int j = 1; j < size; ++j)
        peak = std::max(peak, hull[j].d + s * hull[j].v);
    return peak;
}

} // namespace memtherm
