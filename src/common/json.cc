#include "common/json.hh"

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
writeString(std::string &out, std::string_view s)
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

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** A character that continues a number token (see scanNumber()). */
bool
isNumberChar(char c)
{
    return isDigit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
           c == '-';
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

} // namespace

// --- JsonReader ---------------------------------------------------------------

void
JsonReader::fail(const std::string &what) const
{
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos && i < s.size(); ++i) {
        if (s[i] == '\n') { ++line; col = 1; } else { ++col; }
    }
    fatal("json: " + what + " at line " + std::to_string(line) + ":" +
          std::to_string(col));
}

void
JsonReader::skipWs()
{
    std::size_t p = pos;
    while (p < s.size() &&
           (s[p] == ' ' || s[p] == '\t' || s[p] == '\n' || s[p] == '\r'))
        ++p;
    pos = p;
}

char
JsonReader::peek() const
{
    if (pos >= s.size())
        fail("unexpected end of input");
    return s[pos];
}

void
JsonReader::expect(char c)
{
    if (pos >= s.size() || s[pos] != c)
        fail(std::string("expected '") + c + "'");
    ++pos;
}

bool
JsonReader::consume(std::string_view lit)
{
    if (s.substr(pos, lit.size()) != lit)
        return false;
    pos += lit.size();
    return true;
}

Json::Type
JsonReader::peekType()
{
    skipWs();
    const char c = peek();
    switch (c) {
      case '{': return Json::Type::Object;
      case '[': return Json::Type::Array;
      case '"': return Json::Type::String;
      case 't': case 'f': return Json::Type::Bool;
      case 'n': return Json::Type::Null;
      default:
        if (c == '-' || isDigit(c))
            return Json::Type::Number;
        fail("unexpected character");
    }
}

void
JsonReader::expectType(Json::Type want)
{
    const Json::Type have = peekType();
    if (have != want) {
        // A malformed value is the grammar error Json::parse reports,
        // not a type error: check the value before naming its type.
        const std::size_t at = pos;
        skipValue();
        pos = at;
        fail(std::string("expected ") + typeName(want) + ", have " +
             typeName(have));
    }
}

std::size_t
JsonReader::scanNumber(bool *sure)
{
    // The token is the whole run of number characters, so "01" or "1."
    // is one invalid number rather than a number and trailing junk: the
    // grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? must match
    // up to a character that cannot continue a number.
    const char *const end = s.data() + s.size();
    const char *const start = s.data() + pos;
    const char *p = start;
    auto digits = [&] {
        const char *const from = p;
        while (p < end && isDigit(*p))
            ++p;
        return p > from;
    };
    auto skip = [&](char a, char b) {
        if (p < end && (*p == a || *p == b)) {
            ++p;
            return true;
        }
        return false;
    };
    skip('-', '-');
    bool ok = skip('0', '0') || digits();
    if (ok && skip('.', '.'))
        ok = digits();
    // A token of M mantissa characters and decimal exponent E has a
    // magnitude within [10^(E-M), 10^(E+M)], or is zero; well inside a
    // double's normal range, converting it cannot fail.
    const std::ptrdiff_t mantissa = p - start;
    std::ptrdiff_t exp = 0;
    if (ok && skip('e', 'E')) {
        skip('+', '-');
        const char *const from = p;
        ok = digits();
        exp = p - from > 3 ? 1000 : 0;
        for (const char *d = from; d < p && exp < 1000; ++d)
            exp = exp * 10 + (*d - '0');
    }
    if (!ok || (p < end && isNumberChar(*p)))
        fail("invalid number"); // pos is still at its start
    pos = static_cast<std::size_t>(p - s.data());
    *sure = mantissa + exp < 300;
    return static_cast<std::size_t>(start - s.data());
}

double
JsonReader::readNumber()
{
    expectType(Json::Type::Number);
    bool sure;
    const std::size_t start = scanNumber(&sure);
    const std::optional<double> v = parseNumber(s.substr(start, pos - start));
    if (!v) { // out of a double's range
        pos = start;
        fail("invalid number");
    }
    return *v;
}

bool
JsonReader::readBool()
{
    expectType(Json::Type::Bool);
    if (consume("true"))
        return true;
    if (!consume("false"))
        fail("unexpected character");
    return false;
}

void
JsonReader::readNull()
{
    expectType(Json::Type::Null);
    if (!consume("null"))
        fail("unexpected character");
}

std::string
JsonReader::readString()
{
    std::string out;
    readString(out);
    return out;
}

void
JsonReader::readString(std::string &out)
{
    expectType(Json::Type::String);
    string(&out);
}

unsigned
JsonReader::hex4()
{
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
        if (pos >= s.size())
            fail("unterminated \\u escape");
        const char c = s[pos++];
        v <<= 4;
        if (isDigit(c))
            v |= static_cast<unsigned>(c - '0');
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
JsonReader::string(std::string *out)
{
    expect('"');
    if (out)
        out->clear();
    while (true) {
        // The run of characters that need no decoding, in one step.
        const char *const from = s.data() + pos, *const end = s.data() + s.size();
        const char *p = from;
        while (p < end && *p != '"' && *p != '\\' &&
               static_cast<unsigned char>(*p) >= 0x20)
            ++p;
        if (out)
            out->append(from, p);
        pos += static_cast<std::size_t>(p - from);
        if (pos >= s.size())
            fail("unterminated string");
        const char c = s[pos++];
        if (c == '"')
            return;
        if (c != '\\')
            fail("raw control character in string");
        if (pos >= s.size())
            fail("unterminated escape");
        char plain;
        switch (s[pos++]) {
          case '"': plain = '"'; break;
          case '\\': plain = '\\'; break;
          case '/': plain = '/'; break;
          case 'b': plain = '\b'; break;
          case 'f': plain = '\f'; break;
          case 'n': plain = '\n'; break;
          case 'r': plain = '\r'; break;
          case 't': plain = '\t'; break;
          case 'u': {
              unsigned cp = hex4();
              if (cp >= 0xdc00 && cp <= 0xdfff)
                  fail("unpaired low surrogate in \\u escape");
              if (cp >= 0xd800 && cp <= 0xdbff) {
                  // Surrogate pair.
                  if (!consume("\\u"))
                      fail("unpaired surrogate in \\u escape");
                  const unsigned lo = hex4();
                  if (lo < 0xdc00 || lo > 0xdfff)
                      fail("invalid low surrogate in \\u escape");
                  cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
              }
              if (out)
                  appendUtf8(*out, cp);
              continue;
          }
          default:
            fail("invalid escape character");
        }
        if (out)
            *out += plain;
    }
}

void
JsonReader::enter()
{
    // At the opening bracket, so the diagnostic points at it.
    if (frames.size() >= kMaxDepth)
        fail("nesting deeper than " + std::to_string(kMaxDepth) +
             " levels");
    ++pos;
    frames.push_back({true, keys.size()});
}

void
JsonReader::leave()
{
    ++pos;
    keys.resize(frames.back().keysFrom);
    frames.pop_back();
}

void
JsonReader::beginObject()
{
    expectType(Json::Type::Object);
    enter();
}

bool
JsonReader::nextMember(std::string &key)
{
    Frame &f = frames.back();
    skipWs();
    if (f.first) {
        f.first = false;
        if (peek() == '}') {
            leave();
            return false;
        }
    } else {
        const char c = peek();
        if (c == '}') {
            leave();
            return false;
        }
        if (c != ',')
            fail("expected ',' or '}' in object");
        ++pos;
        skipWs();
    }
    if (peek() != '"')
        fail("expected object key string");
    const std::size_t at = pos;
    string(&key);
    for (std::size_t i = frames.back().keysFrom; i < keys.size(); ++i) {
        if (keys[i] == key) {
            pos = at;
            fail("duplicate member '" + key + "'");
        }
    }
    keys.push_back(key);
    skipWs();
    expect(':');
    return true;
}

void
JsonReader::beginArray()
{
    expectType(Json::Type::Array);
    enter();
}

bool
JsonReader::nextElement()
{
    Frame &f = frames.back();
    skipWs();
    const char c = peek();
    if (c == ']') {
        leave();
        return false;
    }
    if (f.first) {
        f.first = false;
        return true;
    }
    if (c != ',')
        fail("expected ',' or ']' in array");
    ++pos;
    return true;
}

void
JsonReader::skipValue()
{
    switch (peekType()) {
      case Json::Type::Object:
        enter();
        while (nextMember(scratch))
            skipValue();
        break;
      case Json::Type::Array:
        enter();
        while (nextElement())
            skipValue();
        break;
      case Json::Type::String:
        string(nullptr);
        break;
      case Json::Type::Number: {
        // Converted only when it might be out of range, which the
        // conversion alone can tell.
        bool sure;
        const std::size_t start = scanNumber(&sure);
        if (!sure) {
            pos = start;
            (void)readNumber();
        }
        break;
      }
      case Json::Type::Bool:
        (void)readBool();
        break;
      case Json::Type::Null:
        readNull();
        break;
    }
}

void
JsonReader::finish()
{
    skipWs();
    if (pos != s.size())
        fail("trailing characters after JSON value");
}

// --- JsonWriter ---------------------------------------------------------------

void
JsonWriter::separate()
{
    if (keyed) { // a member's value follows its key
        keyed = false;
        return;
    }
    if (!first)
        out += indent > 0 ? "," : ", ";
    first = false;
    if (depth > 0)
        newline();
}

void
JsonWriter::newline()
{
    if (indent > 0) {
        out += '\n';
        out.append(static_cast<std::size_t>(indent * depth), ' ');
    }
}

void
JsonWriter::key(std::string_view k)
{
    separate();
    writeString(out, k);
    out += ": ";
    keyed = true;
}

void
JsonWriter::number(double v)
{
    separate();
    writeNumber(out, v);
}

void
JsonWriter::boolean(bool b)
{
    separate();
    out += b ? "true" : "false";
}

void
JsonWriter::string(std::string_view v)
{
    separate();
    writeString(out, v);
}

void
JsonWriter::null()
{
    separate();
    out += "null";
}

// --- Json ---------------------------------------------------------------------

/** Json::parse's tree builder, on JsonReader's grammar. */
class JsonParser
{
  public:
    static Json
    value(JsonReader &in)
    {
        switch (in.peekType()) {
          case Json::Type::Object: {
            Json obj = Json::object();
            in.beginObject();
            std::string key;
            while (in.nextMember(key)) {
                if (!obj.u.obj)
                    obj.u.obj = new Json::Members;
                Json v = value(in);
                obj.u.obj->emplace_back(std::move(key), std::move(v));
            }
            return obj;
          }
          case Json::Type::Array: {
            Json arr = Json::array();
            in.beginArray();
            while (in.nextElement())
                arr.push(value(in));
            return arr;
          }
          case Json::Type::String:
            return Json(in.readString());
          case Json::Type::Number:
            return Json(in.readNumber());
          case Json::Type::Bool:
            return Json(in.readBool());
          case Json::Type::Null:
            break;
        }
        in.readNull();
        return Json();
    }
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
Json::write(JsonWriter &out) const
{
    switch (ty) {
      case Type::Null:
        out.null();
        break;
      case Type::Bool:
        out.boolean(u.boolean);
        break;
      case Type::Number:
        out.number(u.number);
        break;
      case Type::String:
        out.string(*u.str);
        break;
      case Type::Array:
        out.beginArray();
        for (const Json &v : asArray())
            v.write(out);
        out.endArray();
        break;
      case Type::Object:
        out.beginObject();
        for (const auto &[k, v] : asObject()) {
            out.key(k);
            v.write(out);
        }
        out.endObject();
        break;
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
    JsonWriter w(out, indent);
    write(w);
    if (indent > 0)
        out += '\n';
    return out;
}

Json
Json::parse(const std::string &text)
{
    JsonReader in(text);
    Json v = JsonParser::value(in);
    in.finish();
    return v;
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
