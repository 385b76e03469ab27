/**
 * @file
 * A minimal, dependency-free JSON value + writer/reader shared by
 * result export (src/exp), observability export (src/obs), and the
 * campaign-service wire protocol (src/svc).  Clients submit campaign
 * specs as JSON, so parse() and the read accessors below exist next to
 * the writer.
 *
 * Every token has one spelling, written by the append*() functions
 * below: integers as std::to_chars writes them, doubles as
 * std::to_chars(..., chars_format::general, 17) — by definition the
 * same bytes as printf("%.17g"), which round-trips every finite
 * double — non-finite doubles as null (JSON has no NaN), and strings
 * escaped in place.  Value::dump() calls them, and so do the writers
 * that emit hot documents straight from their structs without building
 * a Value tree (campaign fingerprints, metric snapshots, svc result
 * frames), so both forms are byte-identical.
 *
 * Objects preserve insertion order so dumps are deterministic and
 * diffable.
 */

#ifndef USCOPE_COMMON_JSON_HH
#define USCOPE_COMMON_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace uscope::json
{

/** Append @p v as a JSON integer. */
void appendInt(std::string &out, std::int64_t v);
void appendUint(std::string &out, std::uint64_t v);

/** Append @p v as "%.17g" would print it, or null when non-finite. */
void appendDouble(std::string &out, double v);

/** Append @p s JSON-escaped, without surrounding quotes. */
void appendEscaped(std::string &out, std::string_view s);

/** Append @p s as a quoted, escaped JSON string. */
void appendString(std::string &out, std::string_view s);

/** One JSON value: null, bool, number, string, array, or object. */
class Value
{
  public:
    enum class Type { Null, Bool, Int, Uint, Double, String, Array,
                      Object, Raw };

    Value() = default;                       ///< null
    Value(bool b) : type_(Type::Bool), bool_(b) {}
    Value(int v) : type_(Type::Int), int_(v) {}
    Value(std::int64_t v) : type_(Type::Int), int_(v) {}
    Value(unsigned v) : type_(Type::Uint), uint_(v) {}
    Value(std::uint64_t v) : type_(Type::Uint), uint_(v) {}
    Value(double v) : type_(Type::Double), double_(v) {}
    Value(const char *s) : type_(Type::String), string_(s) {}
    Value(std::string s) : type_(Type::String), string_(std::move(s)) {}

    /** Empty object / array factories (a default Value is null). */
    static Value object() { return Value(Type::Object); }
    static Value array() { return Value(Type::Array); }

    /**
     * A pre-serialized JSON document, emitted verbatim by dump() —
     * indentation requests do not reformat it.  This is how campaign
     * checkpoints restore trial payloads without a JSON parser: the
     * original dump() text round-trips byte for byte.  The caller
     * vouches that @p serialized is valid JSON; nonFiniteCount()
     * reports 0 for raw blobs (non-finite doubles were already
     * serialized as null when the blob was first dumped).
     */
    static Value raw(std::string serialized);

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    // -----------------------------------------------------------------
    // Read accessors (the svc wire protocol's view of a parsed value).
    // All are total: a kind mismatch returns the fallback / an empty
    // container instead of throwing, so message handlers reduce to
    // straight-line reads followed by validity checks.
    // -----------------------------------------------------------------

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *get(const std::string &key) const;

    /** Numeric coercions (Int/Uint/Double interconvert; a negative
     *  value reads as 0 through asU64). */
    std::uint64_t asU64(std::uint64_t fallback = 0) const;
    std::int64_t asI64(std::int64_t fallback = 0) const;
    double asDouble(double fallback = 0.0) const;
    bool asBool(bool fallback = false) const;

    /** String payload; empty for non-strings. */
    const std::string &asString() const;

    /** Array elements (empty for non-arrays). */
    const std::vector<Value> &items() const;

    /** Object members in insertion order (empty for non-objects). */
    const std::vector<std::pair<std::string, Value>> &entries() const;

    /**
     * Parse one JSON document (the inverse of dump() for everything
     * but Raw, which parses as whatever it serialized).  Returns
     * nullopt on malformed input — truncation, trailing garbage,
     * invalid escapes, nesting deeper than an internal sanity bound.
     * Integral numbers parse as Uint (or Int when negative); anything
     * with a fraction or exponent parses as Double.
     */
    static std::optional<Value> parse(const std::string &text);

    /** Object insert (keeps insertion order); returns *this to chain. */
    Value &set(std::string key, Value v) &;

    /** Array append; returns *this to chain. */
    Value &push(Value v) &;

    /** The same on a temporary: the chain stays an rvalue, so a value
     *  built in one expression moves on instead of being copied. */
    Value &&set(std::string key, Value v) &&
    {
        return std::move(set(std::move(key), std::move(v)));
    }
    Value &&push(Value v) && { return std::move(push(std::move(v))); }

    std::size_t size() const;

    /**
     * Serialize.  @p indent < 0 produces a compact single line;
     * otherwise nested structures indent by @p indent spaces.
     */
    std::string dump(int indent = -1) const;

    /** Append the compact dump() to @p out. */
    void dumpTo(std::string &out) const { write(out, -1, 0); }

    /**
     * Number of non-finite doubles (NaN/Inf) anywhere in this value.
     * JSON has no token for them, so dump() writes null in their
     * place; callers that persist results should check this and
     * annotate the dump (see exp::JsonFileSink) so silent nulls don't
     * masquerade as missing data.
     */
    std::size_t nonFiniteCount() const;

    /** JSON-escape @p s (no surrounding quotes). */
    static std::string escape(std::string_view s);

  private:
    struct Parser;

    explicit Value(Type type) : type_(type) {}

    /** The object member named @p key, appended as null if absent. */
    Value &member(std::string key);

    void write(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Value> array_;
    std::vector<std::pair<std::string, Value>> object_;
};

} // namespace uscope::json

#endif // USCOPE_COMMON_JSON_HH
