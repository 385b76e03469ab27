#include "common/json.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace uscope::json
{

void
appendInt(std::string &out, std::int64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void
appendUint(std::string &out, std::uint64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void
appendDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    // Sign, 17 digits, point and a 3-digit exponent: 24 chars at most.
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                  std::chars_format::general, 17)
                        .ptr);
}

void
appendEscaped(std::string &out, std::string_view s)
{
    // Bytes that need no escape are appended a run at a time.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            constexpr const char *hex = "0123456789abcdef";
            const char code[] = {'\\', 'u', '0', '0', hex[c >> 4],
                                 hex[c & 0xf]};
            out.append(code, sizeof code);
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

void
appendString(std::string &out, std::string_view s)
{
    out += '"';
    appendEscaped(out, s);
    out += '"';
}

Value &
Value::set(std::string key, Value v) &
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    if (type_ != Type::Object)
        panic("json::Value::set on a non-object");
    member(std::move(key)) = std::move(v);
    return *this;
}

Value &
Value::member(std::string key)
{
    for (auto &entry : object_)
        if (entry.first == key)
            return entry.second;
    return object_.emplace_back(std::move(key), Value{}).second;
}

Value
Value::raw(std::string serialized)
{
    Value v(Type::Raw);
    v.string_ = std::move(serialized);
    return v;
}

Value &
Value::push(Value v) &
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    if (type_ != Type::Array)
        panic("json::Value::push on a non-array");
    array_.push_back(std::move(v));
    return *this;
}

const Value *
Value::get(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &entry : object_)
        if (entry.first == key)
            return &entry.second;
    return nullptr;
}

std::uint64_t
Value::asU64(std::uint64_t fallback) const
{
    switch (type_) {
      case Type::Uint: return uint_;
      case Type::Int:
        return int_ < 0 ? 0 : static_cast<std::uint64_t>(int_);
      case Type::Double:
        return double_ < 0.0 ? 0
                             : static_cast<std::uint64_t>(double_);
      default: return fallback;
    }
}

std::int64_t
Value::asI64(std::int64_t fallback) const
{
    switch (type_) {
      case Type::Int: return int_;
      case Type::Uint: return static_cast<std::int64_t>(uint_);
      case Type::Double: return static_cast<std::int64_t>(double_);
      default: return fallback;
    }
}

double
Value::asDouble(double fallback) const
{
    switch (type_) {
      case Type::Double: return double_;
      case Type::Int: return static_cast<double>(int_);
      case Type::Uint: return static_cast<double>(uint_);
      default: return fallback;
    }
}

bool
Value::asBool(bool fallback) const
{
    return type_ == Type::Bool ? bool_ : fallback;
}

const std::string &
Value::asString() const
{
    static const std::string empty;
    return type_ == Type::String ? string_ : empty;
}

const std::vector<Value> &
Value::items() const
{
    static const std::vector<Value> empty;
    return type_ == Type::Array ? array_ : empty;
}

const std::vector<std::pair<std::string, Value>> &
Value::entries() const
{
    static const std::vector<std::pair<std::string, Value>> empty;
    return type_ == Type::Object ? object_ : empty;
}

/**
 * Recursive-descent parser.  Every method clears `ok` on malformed
 * input instead of throwing; parse() checks once at the end.
 */
struct Value::Parser
{
    const std::string &s;
    std::size_t pos = 0;
    bool ok = true;
    /** Deep nesting is an attack surface (stack exhaustion from a
     *  hostile client frame), not a real workload; bound it. */
    static constexpr int maxDepth = 96;

    void
    skipSpace()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (s.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    /** One \uXXXX escape (possibly a surrogate pair) to UTF-8. */
    void
    appendUnicodeEscape(std::string &out)
    {
        const auto hex4 = [&]() -> std::uint32_t {
            std::uint32_t v = 0;
            for (int i = 0; i < 4; ++i) {
                if (pos >= s.size())
                    return ok = false, 0u;
                const char c = s[pos++];
                v <<= 4;
                if (c >= '0' && c <= '9')
                    v |= static_cast<std::uint32_t>(c - '0');
                else if (c >= 'a' && c <= 'f')
                    v |= static_cast<std::uint32_t>(c - 'a' + 10);
                else if (c >= 'A' && c <= 'F')
                    v |= static_cast<std::uint32_t>(c - 'A' + 10);
                else
                    return ok = false, 0u;
            }
            return v;
        };
        std::uint32_t cp = hex4();
        if (!ok)
            return;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require the paired \uXXXX low half.
            if (!(pos + 1 < s.size() && s[pos] == '\\' &&
                  s[pos + 1] == 'u')) {
                ok = false;
                return;
            }
            pos += 2;
            const std::uint32_t low = hex4();
            if (!ok || low < 0xDC00 || low > 0xDFFF) {
                ok = false;
                return;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            ok = false; // unpaired low surrogate
            return;
        }
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    std::string
    string()
    {
        std::string out;
        if (pos >= s.size() || s[pos] != '"')
            return ok = false, out;
        ++pos;
        // Bytes up to the next quote, backslash or control character
        // are appended a run at a time.
        std::size_t run = pos;
        while (pos < s.size()) {
            const auto c = static_cast<unsigned char>(s[pos]);
            if (c >= 0x20 && c != '"' && c != '\\') {
                ++pos;
                continue;
            }
            out.append(s, run, pos - run);
            if (c == '"') {
                ++pos;
                return out;
            }
            if (c < 0x20)
                return ok = false, out; // bare control character
            ++pos;
            if (pos >= s.size())
                return ok = false, out;
            switch (s[pos++]) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': appendUnicodeEscape(out); break;
              default: ok = false; return out;
            }
            if (!ok)
                return out;
            run = pos;
        }
        ok = false; // unterminated
        return out;
    }

    Value
    number()
    {
        const std::size_t start = pos;
        bool negative = false;
        bool integral = true;
        if (pos < s.size() && s[pos] == '-') {
            negative = true;
            ++pos;
        }
        while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9')
            ++pos;
        if (pos < s.size() && s[pos] == '.') {
            integral = false;
            ++pos;
            while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9')
                ++pos;
        }
        if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
            integral = false;
            ++pos;
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
                ++pos;
            while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9')
                ++pos;
        }
        const char *first = s.data() + start;
        const char *last = s.data() + pos;
        if (first == last || (negative && last - first == 1))
            return ok = false, Value{};
        // Integers that overflow their type fall through to double.
        if (integral && !negative) {
            std::uint64_t v = 0;
            const auto [end, ec] = std::from_chars(first, last, v);
            if (end == last && ec == std::errc())
                return Value{v};
        } else if (integral) {
            std::int64_t v = 0;
            const auto [end, ec] = std::from_chars(first, last, v);
            if (end == last && ec == std::errc())
                return Value{v};
        }
        double d = 0.0;
        const auto [end, ec] = std::from_chars(first, last, d);
        if (end != last)
            return ok = false, Value{};
        if (ec == std::errc::result_out_of_range) {
            // from_chars leaves d unset here; strtod gives the same
            // ±HUGE_VAL or underflowed value it always parsed to.
            d = std::strtod(std::string(first, last).c_str(), nullptr);
        }
        return Value{d};
    }

    Value
    value(int depth)
    {
        if (depth > maxDepth)
            return ok = false, Value{};
        skipSpace();
        if (pos >= s.size())
            return ok = false, Value{};
        switch (s[pos]) {
          case '{': {
            ++pos;
            Value out = Value::object();
            if (consume('}'))
                return out;
            do {
                skipSpace();
                std::string key = string();
                if (!ok || !consume(':'))
                    return ok = false, Value{};
                out.member(std::move(key)) = value(depth + 1);
                if (!ok)
                    return Value{};
            } while (consume(','));
            if (!consume('}'))
                ok = false;
            return out;
          }
          case '[': {
            ++pos;
            Value out = Value::array();
            if (consume(']'))
                return out;
            do {
                Value element = value(depth + 1);
                if (!ok)
                    return Value{};
                out.push(std::move(element));
            } while (consume(','));
            if (!consume(']'))
                ok = false;
            return out;
          }
          case '"':
            return Value{string()};
          case 't':
            if (literal("true"))
                return Value{true};
            return ok = false, Value{};
          case 'f':
            if (literal("false"))
                return Value{false};
            return ok = false, Value{};
          case 'n':
            if (literal("null"))
                return Value{};
            return ok = false, Value{};
          default:
            return number();
        }
    }
};

std::optional<Value>
Value::parse(const std::string &text)
{
    Parser p{text};
    Value v = p.value(0);
    p.skipSpace();
    if (!p.ok || p.pos != text.size())
        return std::nullopt;
    return v;
}

std::size_t
Value::size() const
{
    switch (type_) {
      case Type::Array: return array_.size();
      case Type::Object: return object_.size();
      default: return 0;
    }
}

std::string
Value::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

namespace
{

void
newline(std::string &out, int indent, int depth)
{
    if (indent < 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

} // namespace

void
Value::write(std::string &out, int indent, int depth) const
{
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Int:
        appendInt(out, int_);
        break;
      case Type::Uint:
        appendUint(out, uint_);
        break;
      case Type::Double:
        appendDouble(out, double_);
        break;
      case Type::String:
        appendString(out, string_);
        break;
      case Type::Raw:
        out += string_;
        break;
      case Type::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i)
                out += indent < 0 ? "," : ",";
            newline(out, indent, depth + 1);
            array_[i].write(out, indent, depth + 1);
        }
        newline(out, indent, depth);
        out += ']';
        break;
      case Type::Object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i)
                out += ",";
            newline(out, indent, depth + 1);
            appendString(out, object_[i].first);
            out += indent < 0 ? ":" : ": ";
            object_[i].second.write(out, indent, depth + 1);
        }
        newline(out, indent, depth);
        out += '}';
        break;
    }
}

std::string
Value::dump(int indent) const
{
    std::string out;
    write(out, indent, 0);
    return out;
}

std::size_t
Value::nonFiniteCount() const
{
    switch (type_) {
      case Type::Double:
        return std::isfinite(double_) ? 0 : 1;
      case Type::Array: {
        std::size_t n = 0;
        for (const Value &v : array_)
            n += v.nonFiniteCount();
        return n;
      }
      case Type::Object: {
        std::size_t n = 0;
        for (const auto &entry : object_)
            n += entry.second.nonFiniteCount();
        return n;
      }
      default:
        return 0;
    }
}

} // namespace uscope::json
