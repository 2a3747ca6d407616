#include "sim/json.hh"

#include <charconv>
#include <cstdio>
#include <system_error>

namespace tlsim
{
namespace json
{

namespace
{

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** Recursive-descent RFC 8259 parser; the first error stops it. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text(text) {}

    std::optional<Value>
    document(std::string *error)
    {
        Value root;
        bool ok = value(root, 0);
        if (ok) {
            skipSpace();
            if (pos != text.size())
                ok = fail("trailing bytes after the document");
        }
        if (!ok) {
            if (error)
                *error = "offset " + std::to_string(pos) + ": " + why;
            return std::nullopt;
        }
        return root;
    }

  private:
    bool
    fail(const char *reason)
    {
        why = reason;
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("invalid literal");
        pos += word.size();
        return true;
    }

    bool
    value(Value &out, int depth)
    {
        skipSpace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        switch (text[pos]) {
          case '{':
            return object(out, depth + 1);
          case '[':
            return array(out, depth + 1);
          case '"':
            out.kind = Value::Kind::String;
            return string(out.text);
          case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = Value::Kind::Bool;
            return literal("false");
          case 'n':
            return literal("null");
          default:
            out.kind = Value::Kind::Number;
            return number(out.text);
        }
    }

    bool
    object(Value &out, int depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        out.kind = Value::Kind::Object;
        ++pos; // '{'
        skipSpace();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipSpace();
            if (pos >= text.size() || text[pos] != '"')
                return fail("expected a string key");
            std::size_t key_at = pos;
            std::string key;
            if (!string(key))
                return false;
            skipSpace();
            if (pos >= text.size() || text[pos] != ':')
                return fail("expected ':'");
            ++pos;
            Value member;
            if (!value(member, depth))
                return false;
            if (!out.members.emplace(std::move(key), std::move(member))
                     .second) {
                pos = key_at;
                return fail("duplicate object key");
            }
            skipSpace();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(Value &out, int depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        out.kind = Value::Kind::Array;
        ++pos; // '['
        skipSpace();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            out.items.emplace_back();
            if (!value(out.items.back(), depth))
                return false;
            skipSpace();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    /** Four hex digits at pos, or -1. */
    long
    hex4()
    {
        if (text.size() - pos < 4)
            return -1;
        unsigned code = 0;
        auto [ptr, ec] = std::from_chars(text.data() + pos,
                                         text.data() + pos + 4, code,
                                         16);
        if (ec != std::errc() || ptr != text.data() + pos + 4)
            return -1;
        pos += 4;
        return code;
    }

    static void
    appendUtf8(std::string &out, unsigned long cp)
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

    /** The \u escape after "\u": one code point, maybe a pair. */
    bool
    unicodeEscape(std::string &out)
    {
        long cp = hex4();
        if (cp < 0)
            return fail("malformed \\u escape");
        if (cp >= 0xdc00 && cp <= 0xdfff)
            return fail("lone low surrogate in \\u escape");
        if (cp >= 0xd800 && cp <= 0xdbff) {
            if (text.substr(pos, 2) != "\\u")
                return fail("unpaired high surrogate in \\u escape");
            pos += 2;
            long low = hex4();
            if (low < 0xdc00 || low > 0xdfff)
                return fail("malformed surrogate pair in \\u escape");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
        }
        appendUtf8(out, static_cast<unsigned long>(cp));
        return true;
    }

    bool
    string(std::string &out)
    {
        ++pos; // opening quote
        while (true) {
            if (pos >= text.size())
                return fail("unterminated string");
            char c = text[pos++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return fail("unterminated string");
            switch (text[pos++]) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u':
                if (!unicodeEscape(out))
                    return false;
                break;
              default:
                return fail("invalid escape");
            }
        }
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    bool
    number(std::string &out)
    {
        std::size_t start = pos;
        auto digits = [&] {
            std::size_t first = pos;
            while (pos < text.size() && isDigit(text[pos]))
                ++pos;
            return pos > first;
        };
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        if (pos < text.size() && text[pos] == '0')
            ++pos;
        else if (!digits())
            return fail("invalid number");
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            if (!digits())
                return fail("invalid number");
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() && (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (!digits())
                return fail("invalid number");
        }
        out.assign(text.substr(start, pos - start));
        return true;
    }

    std::string_view text;
    std::size_t pos = 0;
    const char *why = "";
};

/** from_chars over the whole token, or nothing. */
template <typename T, typename... Base>
std::optional<T>
convert(const Value &v, Base... base)
{
    if (!v.isNumber())
        return std::nullopt;
    const char *first = v.text.data();
    const char *last = first + v.text.size();
    T out{};
    auto [ptr, ec] = std::from_chars(first, last, out, base...);
    if (ec != std::errc() || ptr != last)
        return std::nullopt;
    return out;
}

} // namespace

const Value *
Value::find(std::string_view key) const
{
    auto it = members.find(key);
    return it == members.end() ? nullptr : &it->second;
}

const std::string *
Value::findString(std::string_view key) const
{
    const Value *v = find(key);
    return v && v->isString() ? &v->text : nullptr;
}

std::optional<std::uint64_t>
Value::asU64() const
{
    return convert<std::uint64_t>(*this, 10);
}

std::optional<std::int64_t>
Value::asI64() const
{
    return convert<std::int64_t>(*this, 10);
}

std::optional<double>
Value::asDouble() const
{
    return convert<double>(*this);
}

std::optional<Value>
parse(std::string_view text, std::string *error)
{
    return Parser(text).document(error);
}

std::string
escape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace json
} // namespace tlsim
