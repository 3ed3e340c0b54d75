/**
 * @file
 * Minimal JSON value: parse, build, serialize.
 *
 * One serialization path for everything memtherm writes or reads as
 * JSON — scenario files (core/sim/scenario.hh), result documents and
 * JSONL result streams. Deliberately small: no comments, no NaN/Inf
 * extensions. Three layers share one grammar and one formatter:
 *
 *  - JsonReader, a pull reader over a text: typed reads (number, bool,
 *    string), container steps (beginObject/nextMember,
 *    beginArray/nextElement) and a validating skipValue(). It owns the
 *    whole input grammar; Json::parse builds its tree on it, and
 *    callers that want a few members of a large record (the result
 *    stream scanner) read those and skip the rest, with every skipped
 *    byte checked as strictly as parse() would.
 *  - JsonWriter, the one printer (separators, indentation, escaping,
 *    number format): values are printed as they are handed to it, so
 *    a large record or document needs no tree; dump() walks the tree
 *    onto it.
 *  - Json, the document tree, for whatever is built or inspected whole.
 *
 * Design goals:
 *
 *  - Lossless round-trips: objects preserve insertion order and numbers
 *    serialize via shortest-round-trip formatting (std::to_chars), so
 *    parse -> dump -> parse reproduces the original value exactly.
 *  - Proper string escaping (control characters, quotes, backslashes)
 *    on output; \uXXXX escapes (including surrogate pairs) on input.
 *  - Strict input: the RFC 8259 grammar, numbers included (no leading
 *    zeros, digits on both sides of a '.', digits after an exponent),
 *    and an object that repeats a member is refused.
 *  - Errors are FatalError (common/logging.hh) with line:column context,
 *    so callers and tests can catch misconfiguration uniformly; the
 *    reader's typed reads name the kind they found ("expected number,
 *    have string") at the value's position.
 *
 * Node layout: a Json is 16 bytes, a type tag beside one 8-byte payload.
 * Null, bool and number live in the payload; a string, array or object
 * sits behind one owned pointer, which an empty array or object leaves
 * null (so Json::array() and Json::object() allocate nothing until the
 * first insert). A number in a parsed or built document therefore costs
 * 16 bytes, an object member 48 (its key string and node) plus the
 * key's characters when they outgrow the string's inline buffer.
 */

#ifndef MEMTHERM_COMMON_JSON_HH
#define MEMTHERM_COMMON_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace memtherm
{

class JsonWriter;

/**
 * A JSON document node. Numbers are stored as double (integers within
 * 2^53 print without a decimal point); objects keep insertion order.
 */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    /// Ordered key/value storage of an object node.
    using Members = std::vector<std::pair<std::string, Json>>;

    Json() : ty(Type::Null) {}
    Json(bool b) : ty(Type::Bool) { u.boolean = b; }
    Json(double v) : ty(Type::Number) { u.number = v; }
    Json(int v) : Json(static_cast<double>(v)) {}
    Json(std::int64_t v) : Json(static_cast<double>(v)) {}
    Json(std::uint64_t v) : Json(static_cast<double>(v)) {}
    Json(const char *s) : Json(std::string(s)) {}
    Json(std::string s);

    /** Deep copy. */
    Json(const Json &o) : u(o.u), ty(o.ty)
    {
        if (owns())
            cloneOwned();
    }
    /** Takes @p o's value and leaves @p o Null. */
    Json(Json &&o) noexcept : u(o.u), ty(o.ty) { o.ty = Type::Null; }
    /** Copy or move assignment (by swap); self-assignment is safe. */
    Json &
    operator=(Json o) noexcept
    {
        std::swap(u, o.u);
        std::swap(ty, o.ty);
        return *this;
    }
    ~Json()
    {
        if (owns())
            releaseOwned();
    }

    /** Empty array node. */
    static Json array() { return Json(Type::Array); }
    /** Empty object node. */
    static Json object() { return Json(Type::Object); }

    Type type() const { return ty; }
    bool isNull() const { return ty == Type::Null; }
    bool isBool() const { return ty == Type::Bool; }
    bool isNumber() const { return ty == Type::Number; }
    bool isString() const { return ty == Type::String; }
    bool isArray() const { return ty == Type::Array; }
    bool isObject() const { return ty == Type::Object; }

    /** Typed accessors; fatal() on a type mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<Json> &asArray() const;
    const Members &asObject() const;

    /** Append to an array node (converts a Null node to an array). */
    Json &push(Json v);

    /**
     * Set (or overwrite) an object member; converts a Null node to an
     * object. Returns *this so building chains.
     */
    Json &set(const std::string &key, Json v);

    /** Member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Member lookup; fatal() (naming the key) when absent. */
    const Json &at(const std::string &key) const;

    /**
     * Member @p key as an integer within [0, 2^53] (exact in a double),
     * checked before the cast; fatal() naming the key otherwise.
     */
    std::uint64_t uintAt(const std::string &key) const;

    /** Deep structural equality (object member order matters). */
    bool operator==(const Json &o) const;
    bool operator!=(const Json &o) const { return !(*this == o); }

    /**
     * Serialize. @p indent > 0 pretty-prints with that many spaces per
     * level; 0 emits the compact single-line form. A trailing newline is
     * appended when pretty-printing (files end in \n).
     */
    std::string dump(int indent = 2) const;

    /** Parse a complete document; FatalError with line:col on errors. */
    static Json parse(const std::string &text);

    /** Read and parse a file; FatalError on I/O or syntax errors. */
    static Json load(const std::string &path);

    /**
     * dump() to a file; FatalError on I/O errors. The write is
     * crash-atomic (write to "<path>.tmp", then rename), so a killed
     * process never leaves a truncated document at @p path.
     */
    void save(const std::string &path, int indent = 2) const;

    /**
     * The number formatting dump() uses: shortest decimal form that
     * round-trips the double exactly; integers within the exactly-
     * representable range print without a decimal point. Shared so
     * other layers (e.g. sweep-point labels) render numbers the same
     * way. FatalError on non-finite values.
     */
    static std::string numberToString(double v);

  private:
    friend class JsonParser;

    /// An empty array or object (a null container pointer).
    explicit Json(Type t) : ty(t) { u.arr = nullptr; }

    /// A string, array or object: the payload is an owned pointer.
    bool owns() const { return ty >= Type::String; }
    /// Point the payload at a deep copy of what it points to now.
    void cloneOwned();
    /// Free what the payload points to.
    void releaseOwned() noexcept;

    void write(JsonWriter &out) const;

    /// The payload; which member is live follows ty. A null container
    /// pointer is an empty array or object.
    union Payload
    {
        bool boolean;
        double number;
        std::string *str;
        std::vector<Json> *arr;
        Members *obj;
    };

    Payload u{};
    Type ty;
};

/**
 * A pull reader over one JSON text (not owned; it must outlive the
 * reader). Every read skips leading whitespace first. Failures are
 * FatalError "json: <what> at line L:C", at the position Json::parse
 * reports for the same text: the same strict grammar, duplicate-member
 * refusal and nesting cap apply to values read and values skipped. A
 * typed read of a value of another type checks the value first, so a
 * malformed one fails as Json::parse fails on it, not as a type error.
 *
 * Reading an object:
 *
 *     in.beginObject();
 *     std::string key;
 *     while (in.nextMember(key)) {
 *         if (key == "x")
 *             x = in.readNumber();
 *         else
 *             in.skipValue();
 *     }
 *
 * A caller that needs a member before an earlier one (the text holds
 * them in any order) can note a value's offset(), skip it, and seek()
 * back to read it.
 */
class JsonReader
{
  public:
    explicit JsonReader(std::string_view text) : s(text) {}

    /** The next value's type, from its first character. */
    Json::Type peekType();

    double readNumber();
    bool readBool();
    void readNull();
    std::string readString();
    /** readString() into @p out (its capacity is reused). */
    void readString(std::string &out);

    /** Enter an object; nextMember() walks its members. */
    void beginObject();
    /**
     * The next member's key into @p key, leaving the reader at its
     * value, which the caller must read or skip; false (and the
     * object left) after the last member.
     */
    bool nextMember(std::string &key);

    /** Enter an array; nextElement() walks its elements. */
    void beginArray();
    /** Whether another element follows (the reader is then at it). */
    bool nextElement();

    /** Validate and step over one value of any type. */
    void skipValue();

    /** Refuse anything but whitespace after the last value. */
    void finish();

    /** Where the reader is, for seek(): taken where a value starts. */
    std::size_t offset() const { return pos; }
    /** Go back to an offset() to read the value there. */
    void seek(std::size_t at) { pos = at; }

  private:
    /// FatalError at the current position ("json: <what> at line L:C").
    [[noreturn]] void fail(const std::string &what) const;
    void skipWs();
    char peek() const;
    void expect(char c);
    bool consume(std::string_view lit);
    void expectType(Json::Type want);
    /// Step into / out of the container at pos.
    void enter();
    void leave();
    unsigned hex4();
    /// Walk one string: decoded into @p out, or only checked if null.
    void string(std::string *out);
    /// The number at pos, checked, without converting it; pos is left
    /// past it and the return is where it starts. @p sure says whether
    /// converting it surely succeeds (it is well inside the range).
    std::size_t scanNumber(bool *sure);

    /// Containers past this depth are refused, not parsed: a cap that
    /// turns pathological nesting into a diagnostic, not a stack
    /// overflow. Real documents nest a handful of levels.
    static constexpr std::size_t kMaxDepth = 256;

    /// One open container: whether its first entry is still to come,
    /// and (objects) where its keys start in `keys`.
    struct Frame
    {
        bool first;
        std::size_t keysFrom;
    };

    std::string_view s;
    std::size_t pos = 0;
    std::vector<Frame> frames; ///< the open containers, outermost first
    std::vector<std::string> keys; ///< the open objects' keys so far
    std::string scratch;           ///< skipValue()'s member keys
};

/**
 * A JSON text writer appending to a caller's string, in the compact
 * form (", " between entries, ": " after a key) or, with @p indent > 0,
 * the indented one (each entry on its own line, @p indent spaces per
 * level; an empty container stays "[]" or "{}"). Json::dump() prints
 * through it, so for the same values it emits exactly dump(indent)'s
 * bytes, less the indented form's final newline.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string &out, int indent = 0)
        : out(out), indent(indent)
    {
    }

    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }
    /** The next member's key; its value follows. */
    void key(std::string_view k);

    void number(double v);
    void boolean(bool b);
    void string(std::string_view v);
    void null();

  private:
    /// Start an entry: its separator and, indented, its line.
    void separate();
    /// A line break and the indentation of the current depth.
    void newline();
    void
    open(char c)
    {
        separate();
        out += c;
        first = true;
        ++depth;
    }
    void
    close(char c)
    {
        --depth;
        if (!first)
            newline();
        out += c;
        first = false;
    }

    std::string &out;
    int indent;
    int depth = 0;      ///< containers open
    bool first = true;  ///< nothing written yet at this level
    bool keyed = false; ///< a key was written; its value comes next
};

/**
 * The whole-string number grammars shared by the JSON reader, the CLI
 * and the MEMTHERM_* variables (std::from_chars: no blanks, no '+', no
 * base prefix). parseNumber takes any double, "nan" and "inf"
 * included; parseCount a decimal in [1, INT_MAX]. The JSON reader
 * converts with parseNumber only text already in RFC 8259 form.
 */
std::optional<double> parseNumber(std::string_view text);
std::optional<int> parseCount(std::string_view text);

} // namespace memtherm

#endif // MEMTHERM_COMMON_JSON_HH
