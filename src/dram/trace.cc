#include "dram/trace.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/fs_util.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace memtherm
{

namespace
{

std::string
at(const std::string &name, std::size_t line)
{
    return "trace '" + name + "' line " + std::to_string(line);
}

} // namespace

bool
parseU64(const std::string &tok, std::uint64_t &out)
{
    const bool hex =
        tok.size() > 2 && tok[0] == '0' && (tok[1] == 'x' || tok[1] == 'X');
    const char *first = tok.data() + (hex ? 2 : 0);
    const char *last = tok.data() + tok.size();
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
    if (first == last || ec != std::errc{} || end != last)
        return false;
    out = v;
    return true;
}

std::vector<TraceRecord>
parseTrace(const std::string &text, const std::string &name)
{
    // Lines are cut from the text in place: no stream holds a second
    // copy of it.
    std::size_t pos = 0;
    std::string line;
    auto nextLine = [&] {
        if (pos >= text.size())
            return false;
        const std::size_t nl = std::min(text.find('\n', pos), text.size());
        line.assign(text, pos, nl - pos);
        pos = nl + 1;
        return true;
    };
    std::size_t line_no = 0;

    if (!nextLine())
        fatal("trace '" + name + "': empty file (expected header "
              "'#memtherm-trace v" + std::to_string(kTraceFormatVersion) +
              "')");
    ++line_no;
    {
        std::istringstream hs(line);
        std::string magic, ver;
        hs >> magic >> ver;
        if (magic != "#memtherm-trace" || ver.size() < 2 || ver[0] != 'v')
            fatal(at(name, line_no) +
                  ": bad header (expected '#memtherm-trace v" +
                  std::to_string(kTraceFormatVersion) + "')");
        std::uint64_t v = 0;
        if (!parseU64(ver.substr(1), v) || v == 0)
            fatal(at(name, line_no) + ": bad version '" + ver + "'");
        // Compared unnarrowed: a cast would wrap 2^32 + 1 onto v1.
        if (v > static_cast<std::uint64_t>(kTraceFormatVersion))
            fatal("trace '" + name + "': format version " +
                  std::to_string(v) + " is newer than this binary's v" +
                  std::to_string(kTraceFormatVersion) +
                  "; upgrade memtherm to read this trace");
    }

    std::vector<TraceRecord> out;
    while (nextLine()) {
        ++line_no;
        // Skip blanks and comments.
        std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::istringstream ls(line);
        std::string addr_tok, op_tok, bytes_tok, extra;
        ls >> addr_tok >> op_tok >> bytes_tok;
        if (bytes_tok.empty())
            fatal(at(name, line_no) +
                  ": expected '<addr> <r|w> <bytes>', got '" + line + "'");
        if (ls >> extra)
            fatal(at(name, line_no) + ": trailing token '" + extra + "'");
        TraceRecord rec;
        if (!parseU64(addr_tok, rec.addr))
            fatal(at(name, line_no) + ": bad address '" + addr_tok + "'");
        if (op_tok == "r")
            rec.write = false;
        else if (op_tok == "w")
            rec.write = true;
        else
            fatal(at(name, line_no) + ": bad op '" + op_tok +
                  "' (expected r or w)");
        std::uint64_t bytes = 0;
        if (!parseU64(bytes_tok, bytes) || bytes == 0 ||
            bytes > 0xffffffffULL)
            fatal(at(name, line_no) + ": bad byte count '" + bytes_tok +
                  "'");
        rec.bytes = static_cast<std::uint32_t>(bytes);
        out.push_back(rec);
    }
    if (out.empty())
        fatal("trace '" + name + "': no records");
    return out;
}

std::vector<TraceRecord>
loadTrace(const std::string &path)
{
    const std::optional<std::string> text = readFile(path);
    if (!text)
        fatal("trace '" + path + "': cannot open file");
    return parseTrace(*text, path);
}

std::string
formatTrace(const std::vector<TraceRecord> &records)
{
    std::ostringstream out;
    out << "#memtherm-trace v" << kTraceFormatVersion << "\n";
    for (const TraceRecord &r : records)
        out << "0x" << std::hex << r.addr << std::dec
            << (r.write ? " w " : " r ") << r.bytes << "\n";
    return out.str();
}

void
saveTrace(const std::string &path, const std::vector<TraceRecord> &records)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("trace '" + path + "': cannot open file for writing");
    out << formatTrace(records);
    out.flush();
    if (!out)
        fatal("trace '" + path + "': write failed");
}

std::vector<TraceRecord>
generateTrace(const TraceGenConfig &cfg)
{
    if (cfg.blockSize == 0)
        fatal("trace gen: block size must be > 0");
    if (cfg.count == 0)
        fatal("trace gen: count must be > 0");
    if (cfg.maxAddr <= cfg.minAddr)
        fatal("trace gen: max address must be > min address");
    const std::uint64_t span = cfg.maxAddr - cfg.minAddr;
    const std::uint64_t blocks = span / cfg.blockSize;
    if (blocks == 0)
        fatal("trace gen: address range smaller than one block");
    if (!(cfg.readPct >= 0.0 && cfg.readPct <= 100.0))
        fatal("trace gen: read percentage must be in [0, 100]");

    Rng rng(cfg.seed);
    std::vector<TraceRecord> out;
    out.reserve(cfg.count);
    std::uint64_t linear_block = 0;
    for (std::uint64_t i = 0; i < cfg.count; ++i) {
        std::uint64_t block;
        if (cfg.pattern == TraceGenConfig::Pattern::Linear) {
            block = linear_block;
            linear_block = (linear_block + 1) % blocks;
        } else {
            block = rng.below(blocks);
        }
        TraceRecord rec;
        rec.addr = cfg.minAddr + block * cfg.blockSize;
        rec.bytes = cfg.blockSize;
        // One uniform draw per record in both patterns, so the r/w
        // stream of a linear and a random trace at one seed differ only
        // through the random pattern's own draws.
        rec.write = rng.uniform() * 100.0 >= cfg.readPct;
        out.push_back(rec);
    }
    return out;
}

TraceProfile
decodeTrace(const std::vector<TraceRecord> &records, int n_channels,
            int n_dimms, int bank_cells, std::uint32_t block_size)
{
    if (records.empty())
        fatal("trace decode: no records");
    if (n_channels < 1 || n_dimms < 1 || bank_cells < 0)
        fatal("trace decode: bad organization");
    if (block_size == 0)
        fatal("trace decode: block size must be > 0");

    TraceProfile p;
    p.dimmShares.assign(static_cast<std::size_t>(n_dimms), 0.0);
    const std::size_t n_bank =
        static_cast<std::size_t>(n_dimms) * bank_cells;
    std::vector<double> bank_bytes(n_bank, 0.0);

    const std::uint64_t nc = static_cast<std::uint64_t>(n_channels);
    const std::uint64_t nd = static_cast<std::uint64_t>(n_dimms);
    double total_bytes = 0.0;
    double read_bytes = 0.0;
    for (const TraceRecord &r : records) {
        const std::uint64_t block = r.addr / block_size;
        const std::uint64_t dimm = block / nc % nd;
        const double b = static_cast<double>(r.bytes);
        p.dimmShares[dimm] += b;
        if (bank_cells > 0) {
            const std::uint64_t cell =
                block / (nc * nd) % static_cast<std::uint64_t>(bank_cells);
            bank_bytes[dimm * static_cast<std::uint64_t>(bank_cells) +
                       cell] += b;
        }
        total_bytes += b;
        if (!r.write)
            read_bytes += b;
        ++p.records;
    }

    for (double &s : p.dimmShares)
        s /= total_bytes;
    p.readFraction = read_bytes / total_bytes;

    if (bank_cells > 0) {
        p.bankWeights.assign(n_bank, 0.0);
        for (int d = 0; d < n_dimms; ++d) {
            double dimm_total = 0.0;
            for (int c = 0; c < bank_cells; ++c)
                dimm_total += bank_bytes[d * bank_cells + c];
            for (int c = 0; c < bank_cells; ++c) {
                // A DIMM the trace never touches gets uniform weights:
                // its (zero-share) power splits evenly, matching the
                // lumped model's view of an idle DIMM.
                p.bankWeights[d * bank_cells + c] =
                    dimm_total > 0.0
                        ? bank_bytes[d * bank_cells + c] / dimm_total
                        : 1.0 / bank_cells;
            }
        }
    }
    return p;
}

} // namespace memtherm
