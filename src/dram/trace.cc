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

/// The one whitespace set: it separates tokens, and a line holding
/// nothing else is blank.
constexpr bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/** The whitespace-separated tokens of one line, cut in place. */
class Tokens
{
  public:
    explicit Tokens(std::string_view line) : rest_(line) {}

    /** The next token; empty once the line is used up. */
    std::string_view
    next()
    {
        std::size_t b = 0;
        while (b < rest_.size() && isSpace(rest_[b]))
            ++b;
        std::size_t e = b;
        while (e < rest_.size() && !isSpace(rest_[e]))
            ++e;
        const std::string_view tok = rest_.substr(b, e - b);
        rest_.remove_prefix(e);
        return tok;
    }

  private:
    std::string_view rest_;
};

} // namespace

bool
parseU64(std::string_view tok, std::uint64_t &out)
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
    // Lines and their tokens are views into the text: nothing is copied
    // until a diagnostic quotes it.
    std::size_t pos = 0;
    std::string_view line;
    auto nextLine = [&] {
        if (pos >= text.size())
            return false;
        const std::size_t nl = std::min(text.find('\n', pos), text.size());
        line = std::string_view(text).substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    };
    // Appended, not `"'" + std::string(tok)`: GCC 12 -O2 flags that
    // with a false -Wrestrict, which -Werror builds turn into an error.
    auto quote = [](std::string_view tok) {
        std::string q(1, '\'');
        q += tok;
        q += '\'';
        return q;
    };
    std::size_t line_no = 0;

    if (!nextLine())
        fatal("trace '" + name + "': empty file (expected header "
              "'#memtherm-trace v" + std::to_string(kTraceFormatVersion) +
              "')");
    ++line_no;
    {
        Tokens tokens(line);
        const std::string_view magic = tokens.next(), ver = tokens.next();
        if (magic != "#memtherm-trace" || ver.size() < 2 || ver[0] != 'v')
            fatal(at(name, line_no) +
                  ": bad header (expected '#memtherm-trace v" +
                  std::to_string(kTraceFormatVersion) + "')");
        std::uint64_t v = 0;
        if (!parseU64(ver.substr(1), v) || v == 0)
            fatal(at(name, line_no) + ": bad version " + quote(ver));
        // Compared unnarrowed: a cast would wrap 2^32 + 1 onto v1.
        if (v > static_cast<std::uint64_t>(kTraceFormatVersion))
            fatal("trace '" + name + "': format version " +
                  std::to_string(v) + " is newer than this binary's v" +
                  std::to_string(kTraceFormatVersion) +
                  "; upgrade memtherm to read this trace");
        // Checked after the version: a newer header may carry more, and
        // its reader should hear "upgrade", not "trailing token".
        if (const std::string_view extra = tokens.next(); !extra.empty())
            fatal(at(name, line_no) + ": trailing token " + quote(extra));
    }

    std::vector<TraceRecord> out;
    while (nextLine()) {
        ++line_no;
        Tokens tokens(line);
        const std::string_view addr_tok = tokens.next();
        // Skip blanks and comments.
        if (addr_tok.empty() || addr_tok[0] == '#')
            continue;
        const std::string_view op_tok = tokens.next(),
                               bytes_tok = tokens.next();
        if (bytes_tok.empty())
            fatal(at(name, line_no) +
                  ": expected '<addr> <r|w> <bytes>', got " + quote(line));
        if (const std::string_view extra = tokens.next(); !extra.empty())
            fatal(at(name, line_no) + ": trailing token " + quote(extra));
        TraceRecord rec;
        if (!parseU64(addr_tok, rec.addr))
            fatal(at(name, line_no) + ": bad address " + quote(addr_tok));
        if (op_tok == "r")
            rec.write = false;
        else if (op_tok == "w")
            rec.write = true;
        else
            fatal(at(name, line_no) + ": bad op " + quote(op_tok) +
                  " (expected r or w)");
        std::uint64_t bytes = 0;
        if (!parseU64(bytes_tok, bytes) || bytes == 0 ||
            bytes > 0xffffffffULL)
            fatal(at(name, line_no) + ": bad byte count " +
                  quote(bytes_tok));
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
        // block / (nc * nd) == block / nc / nd, and the quotient and
        // remainder of one division come together.
        const std::uint64_t per_channel = r.addr / block_size / nc;
        const std::uint64_t dimm = per_channel % nd;
        const double b = static_cast<double>(r.bytes);
        p.dimmShares[dimm] += b;
        if (bank_cells > 0) {
            const std::uint64_t cell =
                per_channel / nd % static_cast<std::uint64_t>(bank_cells);
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
