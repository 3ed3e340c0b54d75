/**
 * @file
 * Optional per-bank thermal resolution: an X x Z grid of bank cells per
 * DIMM, layered over the paper's lumped per-DIMM RC pair.
 *
 * The lumped model (Eqs. 3.3-3.5) sees one DRAM node per DIMM, which is
 * blind to intra-DIMM hotspots: row-buffer-heavy workloads concentrate
 * their accesses — and their dynamic power — in a few banks. The bank
 * grid resolves that by splitting each DIMM's DRAM power over an X x Z
 * cell grid by per-cell heat-share weights, with a single
 * lateral-coupling smoothing pass (applied once, to the weights)
 * standing in for in-package heat spreading between neighboring banks.
 *
 * No cell is stepped on its own. Every cell shares the DRAM node's tau
 * and initial temperature, and its Eq. 3.4 target is affine in its
 * scaled weight w: `A + w·B`, with `A = ambient + P_amb·psiAmbToDram`
 * and `B = P_dram·psiDram`. The lumped DRAM node D steps towards
 * `A + B`; one extra scalar per DIMM, the spread V, steps towards B with
 * the same Eq. 3.5 decay. So every cell is exactly `D + (w - 1)·V` at
 * every step (V starts at 0, or at B after a reset to the stable point),
 * and the per-window cost is O(DIMMs), not O(DIMMs x cells).
 *
 * Only each cell's peak is ever read. A cell of slope `s = w - 1` peaks
 * at `max_t D_t + s·V_t`, so the run keeps, per DIMM, the upper hull of
 * its (V_t, D_t) points over the DIMM's distinct cell slopes
 * (offerBankHullPoint) and evaluates every cell against it once, at
 * the end (bankHullPeak).
 *
 * The grid is a *diagnostic overlay*: the lumped nodes keep driving the
 * DTM sensors, the refresh feedback and every pre-existing result field
 * unchanged, and the grid only adds per-bank peak temperatures. Its
 * correctness contract, pinned by tests/thermal/test_bank_grid.cc:
 *
 *  - under uniform per-bank weights every cell's scaled weight is
 *    exactly 1 (smoothing is the identity on constant fields), so its
 *    slope is 0 and the cell *is* the lumped DRAM node, bit for bit;
 *  - the smoothing operator is symmetric and row-stochastic, so it
 *    conserves the weight sum — the grid's mean target tracks the
 *    lumped target for *any* weight vector;
 *  - every cell's peak matches a per-cell Eq. 3.5 iteration to 1e-12
 *    relative (tests/thermal/test_bank_overlay.cc keeps that iteration
 *    as the reference);
 *  - a run with `thermal_model: "lumped"` (no grid) is bit-identical
 *    to one with the knob unset.
 */

#ifndef MEMTHERM_CORE_THERMAL_BANK_GRID_HH
#define MEMTHERM_CORE_THERMAL_BANK_GRID_HH

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace memtherm
{

/**
 * Geometry and heat-share weights of the per-DIMM bank grid (the
 * `thermal_model` scenario knob's "bank_grid" catalog entry, or an
 * inline {grid_x, grid_z[, bank_weights]} object).
 */
struct BankGridConfig
{
    int x = 4; ///< bank columns per DIMM
    int z = 2; ///< bank rows per DIMM

    /**
     * Per-cell heat-share weights, row-major (cell (ix, iz) at index
     * iz * x + ix): the fraction of a DIMM's DRAM power concentrated in
     * each cell, non-negative and summing to 1. Either cells() entries
     * (every DIMM alike — the scenario layer's inline `bank_weights`)
     * or nDimms * cells() entries (per-DIMM blocks — the trace decoder).
     * Empty selects uniform weights, whose scaled form is *exactly* 1
     * per cell, making every cell bit-identical to the lumped DRAM
     * node.
     */
    std::vector<double> weights;

    bool operator==(const BankGridConfig &) const = default;

    int cells() const { return x * z; }
};

/**
 * The constants a run derives from its grid's weights. The cells come
 * in blocks: one block of cells() for per-cell weights (every DIMM
 * alike), one per DIMM for per-DIMM weights.
 */
struct BankSlopes
{
    /// Per-cell slope `w - 1` of the scaled weights
    /// (resolveBankCellWeights), block after block; exactly 0 for every
    /// uniform cell.
    std::vector<double> cell;
    /// Each block's distinct cell slopes, ascending, block after block:
    /// block b's run is [start[b], start[b + 1]).
    std::vector<double> distinct;
    std::vector<int> start;

    /** The block DIMM @p d's cells read. */
    int block(int d) const { return start.size() == 2 ? 0 : d; }
};

/**
 * An immutable, shared bank grid: the resolved `thermal_model` value
 * (empty for the lumped model), SimConfig::bankGrid and what
 * MemoryThermalModel holds. Its payload carries the grid and the cell
 * slopes every run of it reads. A copy costs a reference count:
 * lowering hands every run of a grid point, and every point of one
 * (organization, grid), the same payload, so a lowered grid's memory
 * follows its distinct grids, not its run count. Reads like
 * std::optional<BankGridConfig>; equality is value equality, O(1) for
 * handles of one payload. Nothing mutates through it: a changed grid
 * is a new handle.
 */
class SharedBankGrid
{
  public:
    /** The lumped model: no grid. */
    SharedBankGrid() = default;
    SharedBankGrid(BankGridConfig grid)
        : p(std::make_shared<const Payload>(std::move(grid)))
    {
    }

    bool has_value() const { return p != nullptr; }
    explicit operator bool() const { return has_value(); }
    const BankGridConfig &operator*() const { return p->grid; }
    const BankGridConfig *operator->() const { return &p->grid; }

    /** The payload's address (null for the lumped model): handles with
     *  the same one share their payload. */
    const BankGridConfig *get() const { return p ? &p->grid : nullptr; }

    /** Value equality: the same payload, or equal grids. */
    bool operator==(const SharedBankGrid &o) const
    {
        return p == o.p || (p && o.p && p->grid == o.p->grid);
    }

    /**
     * The grid's cell slopes, built by the first call on any handle of
     * the payload (smoothing and sorting cost more than a short run's
     * windows); every later call, from any thread, reads that build.
     */
    const BankSlopes &slopes() const;

  private:
    struct Payload
    {
        explicit Payload(BankGridConfig g) : grid(std::move(g)) {}

        BankGridConfig grid;
        mutable std::once_flag built;
        mutable BankSlopes slopes;
    };
    std::shared_ptr<const Payload> p;
};

/**
 * Lateral coupling between neighboring bank cells: the fraction of a
 * cell's weight excess (over its 4-neighborhood) one smoothing pass
 * redistributes. A model constant, like SimConfig::remapCostGbPerShare,
 * not a scenario knob.
 */
inline constexpr double kBankLateralCoupling = 0.25;

/**
 * The per-cell *scaled* heat weights a grid's slopes come from:
 * n_dimms * grid.cells() entries, row-major by DIMM, each the cell's
 * weight times cells() (so a cell at scaled weight s sees s times the
 * DIMM's DRAM power in its stable target) after one lateral-coupling
 * smoothing pass per DIMM block.
 *
 * Empty grid.weights take a fast path that writes exactly 1.0 per cell
 * — no division round-trip — so the uniform grid is bit-identical to
 * the lumped DRAM node. Explicit weights are validated (panic on arity
 * or non-finite/negative entries; the scenario layer has already
 * reported user errors as FatalError).
 */
std::vector<double> resolveBankCellWeights(const BankGridConfig &grid,
                                           int n_dimms);

/**
 * One smoothing pass over one DIMM's cell block: out[c] = w[c] +
 * lambda * sum_neighbors(w_n - w[c]) / 4 on the X x Z 4-neighbor grid.
 * Symmetric (pairwise fluxes cancel), so the sum over cells is
 * conserved; constant fields are fixed points. Exposed for the property
 * tests; resolveBankCellWeights() applies it per DIMM block.
 */
void smoothBankCells(const BankGridConfig &grid, const double *w,
                     double *out);

/**
 * One vertex of a DIMM's peak hull: a past (V, D) point and the index,
 * in the DIMM's ascending slope run, of the first slope it wins. It
 * wins every slope up to the next vertex's first (or the run's end).
 * It has no initializers, so a hull's unused vertices stay unwritten.
 */
struct BankHullVertex
{
    double v;
    double d;
    int first;
};

/**
 * Offer the point (@p v, @p d) to one DIMM's peak hull of @p size
 * vertices over its @p n_slopes ascending distinct slopes. The point
 * takes every slope s where `d + s·v` beats the slope's current winner;
 * that set is one contiguous run (the hull's envelope is convex in s
 * and the point is linear), found by a binary search over the vertices
 * — so a losing point costs O(log size) and a winner splices in,
 * dropping the vertices it covers. A vertex always wins >= 1 slope, so
 * the hull never holds more than @p n_slopes vertices.
 *
 * @return the new vertex count
 */
int offerBankHullPoint(BankHullVertex *hull, int size, const double *slopes,
                       int n_slopes, double v, double d);

/** Peak of the cell of slope @p s: max over the hull of `d + s·v`. */
double bankHullPeak(const BankHullVertex *hull, int size, double s);

} // namespace memtherm

#endif // MEMTHERM_CORE_THERMAL_BANK_GRID_HH
