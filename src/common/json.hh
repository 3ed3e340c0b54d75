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
 *  - Errors are FatalError (common/logging.hh) with line:column context,
 *    so callers and tests can catch misconfiguration uniformly.
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
    Json(bool b) : ty(Type::Bool), boolean(b) {}
    Json(double v) : ty(Type::Number), number(v) {}
    Json(int v) : ty(Type::Number), number(v) {}
    Json(std::int64_t v) : ty(Type::Number),
                           number(static_cast<double>(v)) {}
    Json(std::uint64_t v) : ty(Type::Number),
                            number(static_cast<double>(v)) {}
    Json(const char *s) : ty(Type::String), str(s) {}
    Json(std::string s) : ty(Type::String), str(std::move(s)) {}

    /** Empty array node. */
    static Json array() { Json j; j.ty = Type::Array; return j; }
    /** Empty object node. */
    static Json object() { Json j; j.ty = Type::Object; return j; }

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
    void write(std::string &out, int indent, int depth) const;

    Type ty;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> arr;
    Members obj;
};

/**
 * The whole-string number grammars shared by the JSON reader, the CLI
 * and the MEMTHERM_* variables (std::from_chars: no blanks, no '+', no
 * base prefix). parseNumber takes any double, "nan" and "inf"
 * included; parseCount a decimal in [1, INT_MAX].
 */
std::optional<double> parseNumber(std::string_view text);
std::optional<int> parseCount(std::string_view text);

} // namespace memtherm

#endif // MEMTHERM_COMMON_JSON_HH
