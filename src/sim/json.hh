/**
 * @file
 * The one JSON serializer (and matching minimal reader) behind every
 * versioned document this repo emits: "triarch.results.v1"
 * (result_sink.cc), "triarch.stats.v1" (metrics.cc),
 * "triarch.bench.v1" (bench_report.cc) and "triarch.hw.v1"
 * (hw_report.cc). Before this file each emitter carried its own copy
 * of string escaping and double formatting; now the escaping rules
 * and the deterministic number format exist exactly once.
 *
 * Writer: a streaming serializer with explicit begin/end calls,
 * automatic comma and ": " separator management, and a per-container
 * style — Pretty (newline + two-space indent per element) or Compact
 * (everything on one line; nested containers inherit Compact, which
 * keeps short leaf objects such as a breakdown on one line). Both
 * styles use '"key": value' separators, so substring-based consumers
 * see the same shape either way. Output is byte-deterministic: no
 * locale, no pointer values, doubles via formatDouble().
 *
 * Reader: the whitespace-insensitive recursive-descent parser that
 * used to live inside bench_report.cc — objects, arrays, strings,
 * numbers, booleans, null; field order is preserved so documents
 * that care about order (e.g. RunResult notes) round-trip
 * bit-identically. Deliberately no external JSON dependency.
 */

#ifndef TRIARCH_SIM_JSON_HH
#define TRIARCH_SIM_JSON_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace triarch::json
{

/** JSON string escape (control characters, quotes, backslash). */
std::string escape(const std::string &s);

/**
 * Render a double with enough digits to round-trip bit-identically
 * through parse() (17 significant decimal digits, "C" locale).
 */
std::string formatDouble(double v);

class Writer
{
  public:
    enum class Style
    {
        Pretty,     //!< one element per line, two-space indent
        Compact,    //!< single line, ", " separators
    };

    explicit Writer(std::ostream &out_stream) : os(out_stream) {}

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    /** Open an object; inside a Compact container the style is
     *  forced to Compact regardless of @p style. */
    Writer &beginObject(Style style = Style::Pretty);
    Writer &endObject();

    Writer &beginArray(Style style = Style::Pretty);
    Writer &endArray();

    /** Emit the key of the next object member. */
    Writer &key(const std::string &name);

    Writer &value(const std::string &v);
    Writer &value(const char *v);
    Writer &value(bool v);
    Writer &value(double v);

    /** Any integer type except bool (kept exact, no double detour). */
    template <typename T>
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    Writer &
    value(T v)
    {
        if constexpr (std::is_signed_v<T>)
            return valueInt(static_cast<std::int64_t>(v));
        else
            return valueUint(static_cast<std::uint64_t>(v));
    }

    /** key(k) + value(v) in one call. */
    template <typename T>
    Writer &
    member(const std::string &name, T &&v)
    {
        key(name);
        return value(std::forward<T>(v));
    }

    /**
     * Panics unless every container has been closed; call once after
     * the root value to catch unbalanced begin/end pairs in emitters.
     */
    void finish();

  private:
    struct Frame
    {
        char closer;        //!< '}' or ']'
        Style style;
        bool empty = true;  //!< no element written yet
        bool keyPending = false;
    };

    Writer &valueInt(std::int64_t v);
    Writer &valueUint(std::uint64_t v);

    /** Separator + layout before an element (value or key). */
    void beforeElement();
    void indent();

    std::ostream &os;
    std::vector<Frame> stack;
    bool rootWritten = false;
};

// ----------------------------------------------------------------
// Reader.
// ----------------------------------------------------------------

/** One parsed JSON value; object field order is preserved. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text;   //!< string value, or the raw number text
    std::vector<Value> items;
    std::vector<std::pair<std::string, Value>> fields;

    /** First field with this name, or nullptr. */
    const Value *field(const std::string &name) const;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isBool() const { return kind == Kind::Bool; }

    /** Number as u64 (false on non-numbers, sign, overflow). */
    bool asU64(std::uint64_t &out) const;

    /** Number as double (false on non-numbers / malformed text). */
    bool asDouble(double &out) const;
};

/**
 * Parse one complete JSON document. On failure returns nullopt and
 * stores "JSON error at offset N: why" into *error (if non-null and
 * still empty).
 */
std::optional<Value> parse(const std::string &text, std::string *error);

} // namespace triarch::json

#endif // TRIARCH_SIM_JSON_HH
