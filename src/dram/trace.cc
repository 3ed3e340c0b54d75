#include "dram/trace.hh"

#include <array>
#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

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

/// Character classes: a hex digit's value (0-15), or one of these. The
/// one whitespace set, " \t\r\v\f", separates tokens, and a line holding
/// nothing else is blank.
enum : std::uint8_t { kSpace = 16, kEol = 17, kOther = 18 };

constexpr std::array<std::uint8_t, 256> kClass = [] {
    std::array<std::uint8_t, 256> t{};
    t.fill(kOther);
    for (int c = 0; c < 10; ++c)
        t['0' + c] = static_cast<std::uint8_t>(c);
    for (int c = 0; c < 6; ++c) {
        t['a' + c] = static_cast<std::uint8_t>(10 + c);
        t['A' + c] = static_cast<std::uint8_t>(10 + c);
    }
    for (const char c : {' ', '\t', '\r', '\v', '\f'})
        t[static_cast<unsigned char>(c)] = kSpace;
    t['\n'] = kEol;
    return t;
}();

std::uint8_t
classOf(const char *p)
{
    return kClass[static_cast<unsigned char>(*p)];
}

/** Whether a character of class @p c ends a token. */
bool
endsToken(std::uint8_t c)
{
    return c == kSpace || c == kEol;
}

/**
 * Reads whole lines: the header, then records, which it hands to a sink
 * in batches. Every line it is given ends in '\n', so a scan needs no
 * bounds check: the newline's class stops it.
 */
class LineScanner
{
  public:
    LineScanner(const std::string &name, const TraceBatchSink &sink)
        : name_(name), sink_(sink)
    {
    }

    /** Scan the whole lines [p, end); end[-1] is '\n'. */
    void
    scan(const char *p, const char *end)
    {
        if (p == end)
            return;
        if (!header_) {
            p = header(p);
            header_ = true;
        }
        while (p < end)
            p = line(p, end);
    }

    /** The input had no bytes at all. */
    [[noreturn]] void
    emptyFile() const
    {
        fatal("trace '" + name_ + "': empty file (expected header "
              "'#memtherm-trace v" + std::to_string(kTraceFormatVersion) +
              "')");
    }

    /** End of input: hand on the last batch; FatalError if none. */
    void
    finish()
    {
        flush();
        if (records_ == 0)
            fatal("trace '" + name_ + "': no records");
    }

  private:
    static constexpr std::size_t kBatch = 1024;

    static const char *
    skipSpace(const char *p)
    {
        while (classOf(p) == kSpace)
            ++p;
        return p;
    }

    static const char *
    skipToken(const char *p)
    {
        while (!endsToken(classOf(p)))
            ++p;
        return p;
    }

    /**
     * Parse the token at @p p as parseU64 does, leaving @p p past it:
     * decimal, or hex after a 0x/0X that more of the token follows.
     * False on junk or overflow. The digit loop cannot overflow on up
     * to 16 hex or 19 decimal digits; a longer token, or one that is
     * not all digits, gets parseU64's verdict.
     */
    static bool
    number(const char *&p, std::uint64_t &out)
    {
        const char *const tok = p;
        std::uint64_t v = 0;
        std::uint8_t c;
        std::ptrdiff_t max_digits;
        const char *digits;
        if (p[0] == '0' && (p[1] == 'x' || p[1] == 'X') &&
            !endsToken(classOf(p + 2))) {
            for (digits = p += 2; (c = classOf(p)) < 16; ++p)
                v = v << 4 | c;
            max_digits = 16;
        } else {
            for (digits = p; (c = classOf(p)) < 10; ++p)
                v = v * 10 + c;
            max_digits = 19;
        }
        if (endsToken(c) && p - digits <= max_digits) {
            out = v;
            return true;
        }
        p = skipToken(p);
        return parseU64(
            std::string_view(tok, static_cast<std::size_t>(p - tok)), out);
    }

    /** Check the header line at @p p; returns the next line. */
    const char *
    header(const char *p)
    {
        ++lineNo_;
        auto cut = [&p] {
            p = skipSpace(p);
            const char *b = p;
            p = skipToken(p);
            return std::string_view(b, static_cast<std::size_t>(p - b));
        };
        const std::string_view magic = cut(), ver = cut();
        if (magic != "#memtherm-trace" || ver.size() < 2 || ver[0] != 'v')
            fatal(at(name_, lineNo_) +
                  ": bad header (expected '#memtherm-trace v" +
                  std::to_string(kTraceFormatVersion) + "')");
        std::uint64_t v = 0;
        if (!parseU64(ver.substr(1), v) || v == 0)
            fail(": bad version ", ver.data(), ver.data() + ver.size());
        // Compared unnarrowed: a cast would wrap 2^32 + 1 onto v1.
        if (v > static_cast<std::uint64_t>(kTraceFormatVersion))
            fatal("trace '" + name_ + "': format version " +
                  std::to_string(v) + " is newer than this binary's v" +
                  std::to_string(kTraceFormatVersion) +
                  "; upgrade memtherm to read this trace");
        // Checked after the version: a newer header may carry more, and
        // its reader should hear "upgrade", not "trailing token".
        if (const std::string_view extra = cut(); !extra.empty())
            fail(": trailing token ", extra.data(), p);
        return p + 1; // cut() stopped at the newline
    }

    /**
     * Scan one line at @p p: blank, a comment, or a record, cut and
     * parsed in one pass. A malformed record is diagnosed from the
     * token spans the pass marked, in the order the checks run: the
     * token count, a trailing token, then the address, op and bytes.
     */
    const char *
    line(const char *p, const char *end)
    {
        ++lineNo_;
        const char *const begin = p;
        p = skipSpace(p);
        if (classOf(p) == kEol) // blank
            return p + 1;
        if (*p == '#') // a comment
            return static_cast<const char *>(std::memchr(
                       p, '\n', static_cast<std::size_t>(end - p))) +
                   1;
        TraceRecord rec;
        const char *const addr = p;
        const bool addr_ok = number(p, rec.addr);
        const char *const addr_end = p;
        p = skipSpace(p);
        if (classOf(p) == kEol)
            fail(": expected '<addr> <r|w> <bytes>', got ", begin, p);
        const char *const op = p;
        // Bitwise, not short-circuit: a mixed r/w stream would
        // mispredict a branch on the op.
        const bool op_ok =
            ((*p == 'r') | (*p == 'w')) & endsToken(classOf(p + 1));
        rec.write = *p == 'w';
        p = skipToken(p);
        const char *const op_end = p;
        p = skipSpace(p);
        if (classOf(p) == kEol)
            fail(": expected '<addr> <r|w> <bytes>', got ", begin, p);
        const char *const bytes_tok = p;
        std::uint64_t bytes = 0;
        const bool bytes_ok = number(p, bytes);
        const char *const bytes_end = p;
        p = skipSpace(p);
        if (classOf(p) != kEol)
            fail(": trailing token ", p, skipToken(p));
        if (!addr_ok)
            fail(": bad address ", addr, addr_end);
        if (!op_ok)
            fail(": bad op ", op, op_end, " (expected r or w)");
        if (!bytes_ok || bytes == 0 || bytes > 0xffffffffULL)
            fail(": bad byte count ", bytes_tok, bytes_end);
        rec.bytes = static_cast<std::uint32_t>(bytes);
        batch_[n_++] = rec;
        if (n_ == kBatch)
            flush();
        return p + 1;
    }

    /** The error @p what, quoting [@p b, @p e), at the current line. */
    [[noreturn, gnu::cold, gnu::noinline]] void
    fail(const char *what, const char *b, const char *e,
         const char *tail = "") const
    {
        // Appended, not `"'" + std::string(...)`: GCC 12 -O2 flags that
        // with a false -Wrestrict, which -Werror builds turn into an error.
        std::string msg = at(name_, lineNo_) + what;
        msg += '\'';
        msg.append(b, e);
        msg += '\'';
        fatal(msg + tail);
    }

    void
    flush()
    {
        if (n_ == 0)
            return;
        records_ += n_;
        sink_(std::span<const TraceRecord>(batch_.data(), n_));
        n_ = 0;
    }

    const std::string &name_;
    const TraceBatchSink &sink_;
    std::size_t lineNo_ = 0;
    bool header_ = false;
    std::array<TraceRecord, kBatch> batch_;
    std::size_t n_ = 0;
    std::uint64_t records_ = 0;
};

/** A sink that appends every record to @p out. */
TraceBatchSink
collectInto(std::vector<TraceRecord> &out)
{
    return [&out](std::span<const TraceRecord> batch) {
        out.insert(out.end(), batch.begin(), batch.end());
    };
}

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

void
scanTraceFile(const std::string &path, const TraceBatchSink &sink)
{
    const std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "rb"), &std::fclose);
    if (!f)
        fatal("trace '" + path + "': cannot open file");
    LineScanner scanner(path, sink);
    // The buffer holds the unscanned tail of the last chunk (no newline)
    // ahead of the next one; it grows only for a line longer than it.
    std::vector<char> buf(std::size_t{1} << 16);
    std::size_t have = 0;
    bool empty = true;
    for (;;) {
        if (have == buf.size())
            buf.resize(2 * buf.size());
        const std::size_t got =
            std::fread(buf.data() + have, 1, buf.size() - have, f.get());
        if (got == 0) {
            // A failed read (of a directory, say) reads as the file
            // failing to open, as it did when the whole file was read.
            if (std::ferror(f.get()))
                fatal("trace '" + path + "': cannot open file");
            break;
        }
        empty = false;
        const char *b = buf.data();
        std::size_t lines = have + got; // bytes up to the last newline
        while (lines > have && b[lines - 1] != '\n')
            --lines;
        if (lines == have) { // no newline in the new bytes
            have += got;
            continue;
        }
        scanner.scan(b, b + lines);
        have += got - lines;
        std::memmove(buf.data(), b + lines, have);
    }
    if (empty)
        scanner.emptyFile();
    if (have > 0) { // a last line without its newline
        if (have == buf.size())
            buf.push_back('\n');
        else
            buf[have] = '\n';
        scanner.scan(buf.data(), buf.data() + have + 1);
    }
    scanner.finish();
}

std::vector<TraceRecord>
loadTrace(const std::string &path)
{
    std::vector<TraceRecord> out;
    scanTraceFile(path, collectInto(out));
    return out;
}

std::vector<TraceRecord>
parseTrace(const std::string &text, const std::string &name)
{
    std::vector<TraceRecord> out;
    const TraceBatchSink sink = collectInto(out);
    LineScanner scanner(name, sink);
    if (text.empty())
        scanner.emptyFile();
    const std::size_t lines = text.rfind('\n') + 1; // 0 without a newline
    scanner.scan(text.data(), text.data() + lines);
    if (lines < text.size()) { // a last line without its newline
        const std::string last = text.substr(lines) + '\n';
        scanner.scan(last.data(), last.data() + last.size());
    }
    scanner.finish();
    return out;
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

TraceDecoder::TraceDecoder(int n_channels, int n_dimms, int bank_cells,
                           std::uint32_t block_size)
    // block / channels == addr / (block_size * channels), a product
    // below 2^32 * 2^31. A count the body refuses divides by 1 until
    // then.
    : channelBlock_(n_channels < 1 || block_size == 0
                        ? 1
                        : std::uint64_t{block_size} *
                              static_cast<std::uint64_t>(n_channels)),
      dimms_(n_dimms < 1 ? 1 : static_cast<std::uint64_t>(n_dimms)),
      cells_(bank_cells < 1 ? 1 : static_cast<std::uint64_t>(bank_cells)),
      bankCells_(bank_cells)
{
    if (n_channels < 1 || n_dimms < 1 || bank_cells < 0)
        fatal("trace decode: bad organization");
    if (block_size == 0)
        fatal("trace decode: block size must be > 0");
    dimmBytes_.assign(static_cast<std::size_t>(n_dimms), 0.0);
    bankBytes_.assign(static_cast<std::size_t>(n_dimms) *
                          static_cast<std::size_t>(bank_cells),
                      0.0);
}

namespace
{

/**
 * Fold @p records into byte sums in record order: @p locate maps an
 * address to its DIMM and its row (the block index past the DIMMs), and
 * @p cell_of a row to its bank cell.
 */
template <typename Locate, typename CellOf>
void
foldRecords(std::span<const TraceRecord> records, Locate locate,
            CellOf cell_of, std::uint64_t n_cells, double *dimm_bytes,
            double *bank_bytes, double &total, double &read)
{
    for (const TraceRecord &r : records) {
        std::uint64_t dimm = 0;
        const std::uint64_t row = locate(r.addr, dimm);
        const double b = static_cast<double>(r.bytes);
        dimm_bytes[dimm] += b;
        if (n_cells > 0)
            bank_bytes[dimm * n_cells + cell_of(row)] += b;
        total += b;
        // A write adds b * 0 = +0.0, which leaves the sum's bits alone
        // (it is never -0.0), and costs no branch on a mixed stream.
        read += b * static_cast<double>(!r.write);
    }
}

} // namespace

void
TraceDecoder::add(std::span<const TraceRecord> records)
{
    // Local sums stay in registers: a store through a byte array could
    // otherwise alias the members.
    const std::uint64_t n_cells = static_cast<std::uint64_t>(bankCells_);
    double total = totalBytes_;
    double read = readBytes_;
    if (std::has_single_bit(channelBlock_) && std::has_single_bit(dimms_) &&
        std::has_single_bit(cells_)) {
        // Every divisor a power of 2, as in the catalog organizations:
        // shifts and masks, with no branch per record.
        const int s_block = std::countr_zero(channelBlock_),
                  s_dimm = std::countr_zero(dimms_);
        const std::uint64_t dimm_mask = dimms_ - 1, cell_mask = cells_ - 1;
        foldRecords(
            records,
            [=](std::uint64_t addr, std::uint64_t &dimm) {
                const std::uint64_t block = addr >> s_block;
                dimm = block & dimm_mask;
                return block >> s_dimm;
            },
            [=](std::uint64_t row) { return row & cell_mask; }, n_cells,
            dimmBytes_.data(), bankBytes_.data(), total, read);
    } else {
        const std::uint64_t channel_block = channelBlock_, dimms = dimms_,
                            cells = cells_;
        foldRecords(
            records,
            [=](std::uint64_t addr, std::uint64_t &dimm) {
                const std::uint64_t block = addr / channel_block;
                dimm = block % dimms;
                return block / dimms;
            },
            [=](std::uint64_t row) { return row % cells; }, n_cells,
            dimmBytes_.data(), bankBytes_.data(), total, read);
    }
    totalBytes_ = total;
    readBytes_ = read;
    records_ += records.size();
}

TraceProfile
TraceDecoder::profile() const
{
    if (records_ == 0)
        fatal("trace decode: no records");
    TraceProfile p;
    p.records = records_;
    p.dimmShares = dimmBytes_;
    for (double &s : p.dimmShares)
        s /= totalBytes_;
    p.readFraction = readBytes_ / totalBytes_;

    const int cells = bankCells_;
    if (cells > 0) {
        p.bankWeights.assign(bankBytes_.size(), 0.0);
        for (std::size_t d = 0; d < dimmBytes_.size(); ++d) {
            const double *bytes = bankBytes_.data() + d * cells;
            double dimm_total = 0.0;
            for (int c = 0; c < cells; ++c)
                dimm_total += bytes[c];
            for (int c = 0; c < cells; ++c) {
                // A DIMM the trace never touches gets uniform weights:
                // its (zero-share) power splits evenly, matching the
                // lumped model's view of an idle DIMM.
                p.bankWeights[d * cells + c] =
                    dimm_total > 0.0 ? bytes[c] / dimm_total : 1.0 / cells;
            }
        }
    }
    return p;
}

TraceProfile
decodeTrace(const std::vector<TraceRecord> &records, int n_channels,
            int n_dimms, int bank_cells, std::uint32_t block_size)
{
    if (records.empty())
        fatal("trace decode: no records");
    TraceDecoder decoder(n_channels, n_dimms, bank_cells, block_size);
    decoder.add(records);
    return decoder.profile();
}

} // namespace memtherm
