#include "common/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "common/fs_util.hh"
#include "common/logging.hh"

namespace memtherm
{

namespace
{

const char *
typeName(Json::Type t)
{
    switch (t) {
      case Json::Type::Null: return "null";
      case Json::Type::Bool: return "bool";
      case Json::Type::Number: return "number";
      case Json::Type::String: return "string";
      case Json::Type::Array: return "array";
      case Json::Type::Object: return "object";
    }
    return "?";
}

/** Append one string with JSON escaping. */
void
writeString(std::string &out, const std::string &s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

/** Shortest representation that round-trips the double exactly. */
void
writeNumber(std::string &out, double v)
{
    if (!std::isfinite(v))
        fatal("json: cannot serialize a non-finite number");
    // Integers within the exactly-representable range print without a
    // decimal point ("4", not "4.0") — scenario files stay readable.
    if (v == std::floor(v) && std::abs(v) < 9007199254740992.0) {
        char buf[32];
        auto r = std::to_chars(buf, buf + sizeof(buf),
                               static_cast<long long>(v));
        out.append(buf, r.ptr);
        return;
    }
    char buf[40];
    auto r = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, r.ptr);
}

/**
 * Whether @p t is an RFC 8259 number:
 * -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
 */
bool
isJsonNumber(std::string_view t)
{
    std::size_t i = 0;
    auto digits = [&] {
        const std::size_t from = i;
        while (i < t.size() && t[i] >= '0' && t[i] <= '9')
            ++i;
        return i > from;
    };
    auto skip = [&](std::string_view any) {
        if (i < t.size() && any.find(t[i]) != std::string_view::npos) {
            ++i;
            return true;
        }
        return false;
    };
    skip("-");
    if (!skip("0") && !digits())
        return false;
    if (skip(".") && !digits())
        return false;
    if (skip("eE")) {
        skip("+-");
        if (!digits())
            return false;
    }
    return i == t.size();
}

} // namespace

/** Recursive-descent parser over a complete text. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s(text) {}

    Json
    document()
    {
        Json v = value();
        skipWs();
        if (pos != s.size())
            fail("trailing characters after JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos && i < s.size(); ++i) {
            if (s[i] == '\n') { ++line; col = 1; } else { ++col; }
        }
        fatal("json: " + what + " at line " + std::to_string(line) +
              ":" + std::to_string(col));
    }

    void
    skipWs()
    {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                                  s[pos] == '\n' || s[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= s.size())
            fail("unexpected end of input");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (pos >= s.size() || s[pos] != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    consume(const char *lit)
    {
        std::size_t n = std::string_view(lit).size();
        if (s.compare(pos, n, lit) != 0)
            return false;
        pos += n;
        return true;
    }

    Json
    value()
    {
        skipWs();
        char c = peek();
        // Containers recurse; a depth cap turns pathological nesting
        // (fuzzers love "[[[[...") into a diagnostic instead of stack
        // exhaustion. Real documents nest a handful of levels.
        if ((c == '{' || c == '[') && ++depth > kMaxDepth)
            fail("nesting deeper than " + std::to_string(kMaxDepth) +
                 " levels");
        if (c == '{') { Json v = objectValue(); --depth; return v; }
        if (c == '[') { Json v = arrayValue(); --depth; return v; }
        if (c == '"') return Json(stringValue());
        if (c == '-' || (c >= '0' && c <= '9')) return numberValue();
        if (consume("true")) return Json(true);
        if (consume("false")) return Json(false);
        if (consume("null")) return Json();
        fail("unexpected character");
    }

    Json
    objectValue()
    {
        expect('{');
        Json obj = Json::object();
        skipWs();
        if (peek() == '}') { ++pos; return obj; }
        obj.u.obj = new Json::Members;
        while (true) {
            skipWs();
            if (peek() != '"')
                fail("expected object key string");
            const std::size_t at = pos;
            std::string key = stringValue();
            for (const auto &m : *obj.u.obj) {
                if (m.first == key) {
                    pos = at;
                    fail("duplicate member '" + key + "'");
                }
            }
            skipWs();
            expect(':');
            obj.u.obj->emplace_back(std::move(key), value());
            skipWs();
            char c = peek();
            if (c == ',') { ++pos; continue; }
            if (c == '}') { ++pos; return obj; }
            fail("expected ',' or '}' in object");
        }
    }

    Json
    arrayValue()
    {
        expect('[');
        Json arr = Json::array();
        skipWs();
        if (peek() == ']') { ++pos; return arr; }
        while (true) {
            arr.push(value());
            skipWs();
            char c = peek();
            if (c == ',') { ++pos; continue; }
            if (c == ']') { ++pos; return arr; }
            fail("expected ',' or ']' in array");
        }
    }

    unsigned
    hex4()
    {
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos >= s.size())
                fail("unterminated \\u escape");
            char c = s[pos++];
            v <<= 4;
            if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid \\u escape digit");
        }
        return v;
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    std::string
    stringValue()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= s.size())
                fail("unterminated string");
            char c = s[pos++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= s.size())
                fail("unterminated escape");
            char e = s[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  unsigned cp = hex4();
                  if (cp >= 0xdc00 && cp <= 0xdfff)
                      fail("unpaired low surrogate in \\u escape");
                  if (cp >= 0xd800 && cp <= 0xdbff) {
                      // Surrogate pair.
                      if (!consume("\\u"))
                          fail("unpaired surrogate in \\u escape");
                      unsigned lo = hex4();
                      if (lo < 0xdc00 || lo > 0xdfff)
                          fail("invalid low surrogate in \\u escape");
                      cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                  }
                  appendUtf8(out, cp);
                  break;
              }
              default:
                fail("invalid escape character");
            }
        }
    }

    Json
    numberValue()
    {
        // Take the whole run of number characters, so "01" or "1." is
        // one invalid number rather than a number and trailing junk.
        const std::size_t start = pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-'))
            ++pos;
        const std::string_view text =
            std::string_view(s).substr(start, pos - start);
        const std::optional<double> v =
            isJsonNumber(text) ? parseNumber(text) : std::nullopt;
        if (!v) {
            pos = start;
            fail("invalid number");
        }
        return Json(*v);
    }

    /// See value(): containers past this depth are refused, not parsed.
    static constexpr int kMaxDepth = 256;

    const std::string &s;
    std::size_t pos = 0;
    int depth = 0;
};

Json::Json(std::string s) : ty(Type::String)
{
    u.str = new std::string(std::move(s));
}

void
Json::cloneOwned()
{
    switch (ty) {
      case Type::String:
        u.str = new std::string(*u.str);
        break;
      case Type::Array:
        if (u.arr)
            u.arr = new std::vector<Json>(*u.arr);
        break;
      case Type::Object:
        if (u.obj)
            u.obj = new Members(*u.obj);
        break;
      default:
        break;
    }
}

void
Json::releaseOwned() noexcept
{
    switch (ty) {
      case Type::String: delete u.str; break;
      case Type::Array: delete u.arr; break;
      case Type::Object: delete u.obj; break;
      default: break;
    }
}

bool
Json::asBool() const
{
    if (ty != Type::Bool)
        fatal(std::string("json: expected bool, have ") + typeName(ty));
    return u.boolean;
}

double
Json::asNumber() const
{
    if (ty != Type::Number)
        fatal(std::string("json: expected number, have ") + typeName(ty));
    return u.number;
}

const std::string &
Json::asString() const
{
    if (ty != Type::String)
        fatal(std::string("json: expected string, have ") + typeName(ty));
    return *u.str;
}

const std::vector<Json> &
Json::asArray() const
{
    if (ty != Type::Array)
        fatal(std::string("json: expected array, have ") + typeName(ty));
    static const std::vector<Json> empty;
    return u.arr ? *u.arr : empty;
}

const Json::Members &
Json::asObject() const
{
    if (ty != Type::Object)
        fatal(std::string("json: expected object, have ") + typeName(ty));
    static const Members empty;
    return u.obj ? *u.obj : empty;
}

Json &
Json::push(Json v)
{
    if (ty == Type::Null)
        *this = array();
    if (ty != Type::Array)
        fatal(std::string("json: push() on a ") + typeName(ty));
    if (!u.arr)
        u.arr = new std::vector<Json>;
    u.arr->push_back(std::move(v));
    return *this;
}

Json &
Json::set(const std::string &key, Json v)
{
    if (ty == Type::Null)
        *this = object();
    if (ty != Type::Object)
        fatal(std::string("json: set() on a ") + typeName(ty));
    if (!u.obj)
        u.obj = new Members;
    for (auto &[k, existing] : *u.obj) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    u.obj->emplace_back(key, std::move(v));
    return *this;
}

const Json *
Json::find(const std::string &key) const
{
    if (ty != Type::Object)
        return nullptr;
    for (const auto &[k, v] : asObject())
        if (k == key)
            return &v;
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *v = find(key);
    if (!v)
        fatal("json: missing member '" + key + "'");
    return *v;
}

std::uint64_t
Json::uintAt(const std::string &key) const
{
    const Json &j = at(key);
    const double v = j.isNumber() ? j.asNumber() : -1.0;
    if (!(v >= 0.0 && v <= 9007199254740992.0 && v == std::floor(v)))
        fatal("json: member '" + key +
              "' must be an integer within [0, 2^53]");
    return static_cast<std::uint64_t>(v);
}

bool
Json::operator==(const Json &o) const
{
    if (ty != o.ty)
        return false;
    switch (ty) {
      case Type::Null: return true;
      case Type::Bool: return u.boolean == o.u.boolean;
      case Type::Number: return u.number == o.u.number;
      case Type::String: return *u.str == *o.u.str;
      case Type::Array: return asArray() == o.asArray();
      case Type::Object: return asObject() == o.asObject();
    }
    return false;
}

void
Json::write(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent > 0) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };
    switch (ty) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += u.boolean ? "true" : "false";
        break;
      case Type::Number:
        writeNumber(out, u.number);
        break;
      case Type::String:
        writeString(out, *u.str);
        break;
      case Type::Array: {
        const std::vector<Json> &arr = asArray();
        if (arr.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i)
                out += indent > 0 ? "," : ", ";
            newline(depth + 1);
            arr[i].write(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      }
      case Type::Object: {
        const Members &obj = asObject();
        if (obj.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i)
                out += indent > 0 ? "," : ", ";
            newline(depth + 1);
            writeString(out, obj[i].first);
            out += ": ";
            obj[i].second.write(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::numberToString(double v)
{
    std::string out;
    writeNumber(out, v);
    return out;
}

std::string
Json::dump(int indent) const
{
    std::string out;
    write(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

Json
Json::parse(const std::string &text)
{
    return JsonParser(text).document();
}

Json
Json::load(const std::string &path)
{
    const std::optional<std::string> text = readFile(path);
    if (!text)
        fatal("json: cannot open '" + path + "' for reading");
    try {
        return parse(*text);
    } catch (const FatalError &e) {
        fatal(std::string(e.what()).substr(7) + " in '" + path + "'");
    }
}

void
Json::save(const std::string &path, int indent) const
{
    // Crash-atomic: a killed process never leaves a truncated document
    // behind (a half-written results file would silently corrupt golden
    // comparisons downstream).
    atomicWriteFile(path, dump(indent));
}

std::optional<double>
parseNumber(std::string_view text)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    return ec == std::errc{} && ptr == end ? std::optional(v) : std::nullopt;
}

std::optional<int>
parseCount(std::string_view text)
{
    int n = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, n);
    return ec == std::errc{} && ptr == end && n >= 1 ? std::optional(n)
                                                     : std::nullopt;
}

} // namespace memtherm
