/**
 * @file
 * Minimal JSON value: parse, build, serialize.
 *
 * One serialization path for everything memtherm writes or reads as
 * JSON — scenario files (core/sim/scenario.hh), result dumps, and the
 * perf-smoke trajectory file. Deliberately small: no SAX interface, no
 * comments, no NaN/Inf extensions. Design goals:
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
 *    so callers and tests can catch misconfiguration uniformly.
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

    void write(std::string &out, int indent, int depth) const;

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
