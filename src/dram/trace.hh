/**
 * @file
 * Versioned memory-access trace files and synthetic trace generators.
 *
 * A trace is a recorded address stream — one block access per line —
 * that drives per-DIMM and per-bank activity in place of the SPEC
 * descriptor catalog's analytic traffic shapes: the scenario layer's
 * `trace` knob decodes a trace into the per-DIMM share vector (the
 * `traffic_shape` equivalent) and, when the bank-grid thermal model is
 * active, into per-(DIMM, bank) heat weights. The generators mirror
 * gem5's PyTrafficGen createLinear/createRandom: seeded, deterministic,
 * block-aligned streams over an address range.
 *
 * File format (text, version-stamped so readers can refuse newer
 * layouts):
 *
 *     #memtherm-trace v1
 *     # free-form comment lines and blank lines are ignored
 *     0x1a40 r 64
 *     0x1a80 w 64
 *
 * The header is exactly two tokens, `#memtherm-trace` and `v<n>`. Each
 * record line is `<addr> <r|w> <bytes>` with addresses in hex
 * (0x-prefixed) or decimal. Tokens are separated by any run of space,
 * tab, CR, VT or FF; a line holding only those is blank. Malformed
 * input is reported as a FatalError naming the file and line, never a
 * crash.
 */

#ifndef MEMTHERM_DRAM_TRACE_HH
#define MEMTHERM_DRAM_TRACE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace memtherm
{

/** Newest trace file version this build reads and writes. */
inline constexpr int kTraceFormatVersion = 1;

/** One recorded block access. */
struct TraceRecord
{
    std::uint64_t addr = 0;  ///< byte address of the access
    std::uint32_t bytes = 64;///< transfer size
    bool write = false;      ///< write (w) vs read (r)

    bool operator==(const TraceRecord &) const = default;
};

/**
 * Parse a trace file. FatalError (with file and line) on a missing or
 * version-incompatible header, malformed records, or an empty trace.
 */
std::vector<TraceRecord> loadTrace(const std::string &path);

/** Same parser over an in-memory document; @p name labels errors. */
std::vector<TraceRecord> parseTrace(const std::string &text,
                                    const std::string &name);

/**
 * Parse a whole token as a decimal or 0x-prefixed hex integer (a
 * leading 0 is decimal, not octal); false on junk, a sign or overflow.
 */
bool parseU64(std::string_view tok, std::uint64_t &out);

/** Serialize records in the version-1 format (round-trips loadTrace). */
std::string formatTrace(const std::vector<TraceRecord> &records);

/** Write a trace file; FatalError if the file cannot be written. */
void saveTrace(const std::string &path,
               const std::vector<TraceRecord> &records);

/**
 * Generator parameters, à la gem5 PyTrafficGen: a block-aligned address
 * stream over [minAddr, maxAddr), linear (wrapping) or uniform-random,
 * with a read percentage drawn per access from a seeded Rng. Equal
 * configs generate equal traces.
 */
struct TraceGenConfig
{
    enum class Pattern { Linear, Random };

    Pattern pattern = Pattern::Linear;
    std::uint64_t minAddr = 0;
    std::uint64_t maxAddr = 1ULL << 24; ///< exclusive upper bound
    std::uint32_t blockSize = 64;       ///< bytes per access
    std::uint64_t count = 1024;         ///< records to generate
    double readPct = 100.0;             ///< percentage of reads [0, 100]
    std::uint64_t seed = 42;
};

/** Generate a synthetic trace; FatalError on degenerate parameters. */
std::vector<TraceRecord> generateTrace(const TraceGenConfig &cfg);

/**
 * A trace decoded against a memory organization: how the recorded
 * stream distributes over the DIMM chain and, at @p bank_cells > 0
 * resolution, over each DIMM's banks.
 */
struct TraceProfile
{
    /// Per-DIMM fraction of channel-local traffic (n_dimms entries,
    /// summing to 1) — the scenario layer installs this as the run's
    /// traffic shares.
    std::vector<double> dimmShares;
    /// Per-(DIMM, bank-cell) heat weights, row-major by DIMM
    /// (n_dimms * bank_cells entries; each DIMM's block sums to 1, or
    /// falls back to uniform for a DIMM the trace never touches).
    /// Empty when bank_cells is 0.
    std::vector<double> bankWeights;
    double readFraction = 0.0; ///< byte-weighted fraction of reads
    std::uint64_t records = 0; ///< records decoded
};

/**
 * Decode a trace against an organization using the block-interleaved
 * address map (block = addr / block_size; channel = block % channels;
 * DIMM = block / channels % dimms; bank = block / (channels * dimms)
 * % bank_cells). Shares and weights are byte-weighted and aggregated
 * across channels (channels are thermally symmetric). FatalError on an
 * empty record list.
 */
TraceProfile decodeTrace(const std::vector<TraceRecord> &records,
                         int n_channels, int n_dimms, int bank_cells,
                         std::uint32_t block_size = 64);

} // namespace memtherm

#endif // MEMTHERM_DRAM_TRACE_HH
