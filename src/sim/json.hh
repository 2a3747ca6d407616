/**
 * @file
 * The one JSON reader and string escaper.
 *
 * Every JSON document tlsim reads (SystemConfig files, result-cache
 * entries, sweep journals, bench and stats exports) goes through
 * parse(), and every JSON string it writes goes through escape().
 * Writers format their own numbers: each on-disk format pins its own
 * number formatting for byte identity.
 *
 * The parser follows RFC 8259 strictly and never throws: it rejects
 * duplicate object keys, trailing bytes, malformed or lone-surrogate
 * \u escapes, raw control characters in strings, and nesting deeper
 * than maxDepth. Bytes >= 0x80 pass through strings unchecked.
 *
 * Numbers keep their source token, so integer fields convert exactly
 * (asU64/asI64) instead of passing through a double.
 */

#ifndef TLSIM_SIM_JSON_HH
#define TLSIM_SIM_JSON_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tlsim
{
namespace json
{

/** Arrays and objects nested deeper than this are rejected. */
constexpr int maxDepth = 256;

/** One parsed JSON value. */
struct Value
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** The decoded string, or a number's source token. */
    std::string text;
    std::vector<Value> items;
    std::map<std::string, Value, std::less<>> members;

    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member @p key of an object; nullptr if absent or not an object. */
    const Value *find(std::string_view key) const;

    /** Member @p key if it is a string; nullptr otherwise. */
    const std::string *findString(std::string_view key) const;

    /**
     * Exact conversions of a number token. Each is empty for a
     * non-number, and for a token the target type cannot hold
     * exactly: negative (asU64), fractional or exponent (asU64,
     * asI64), or out of range.
     */
    std::optional<std::uint64_t> asU64() const;
    std::optional<std::int64_t> asI64() const;
    std::optional<double> asDouble() const;
};

/**
 * Parse one JSON document. On failure returns nullopt and, when
 * @p error is given, stores "offset N: reason" in it.
 */
std::optional<Value> parse(std::string_view text,
                           std::string *error = nullptr);

/** @p text as one number token, converted exactly as by Value::asU64. */
std::optional<std::uint64_t> parseU64(std::string_view text);

/**
 * Escape @p text for a JSON string literal: '"' and '\\' and
 * \n, \r, \t get short escapes, other bytes below 0x20 become
 * \u00xx, and everything else is copied. The result never contains a
 * newline, so escaped documents embed in one JSONL line.
 */
std::string escape(std::string_view text);

} // namespace json
} // namespace tlsim

#endif // TLSIM_SIM_JSON_HH
