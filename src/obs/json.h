/**
 * @file
 * Minimal JSON document model: build, serialize, parse.
 *
 * The bench harnesses and the telemetry subsystem need a stable,
 * machine-readable output format without an external dependency.  This
 * is deliberately small: objects keep insertion order (stable schemas,
 * readable diffs), integers round-trip exactly as uint64, and the parser
 * accepts exactly the documents the serializer produces plus standard
 * JSON from CI tooling.
 */

#ifndef DCFB_OBS_JSON_H
#define DCFB_OBS_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dcfb::obs {

/**
 * One JSON value.  Numbers are stored as uint64 when integral and
 * non-negative (exact counter round-trips) and double otherwise.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Uint, Double, String, Array, Object };

    JsonValue() : k(Kind::Null) {}
    JsonValue(bool v) : k(Kind::Bool), boolVal(v) {}
    JsonValue(std::uint64_t v) : k(Kind::Uint), uintVal(v) {}
    JsonValue(int v)
        : k(v >= 0 ? Kind::Uint : Kind::Double)
    {
        if (v >= 0)
            uintVal = static_cast<std::uint64_t>(v);
        else
            doubleVal = v;
    }
    JsonValue(double v) : k(Kind::Double), doubleVal(v) {}
    JsonValue(std::string v) : k(Kind::String), stringVal(std::move(v)) {}
    JsonValue(const char *v) : k(Kind::String), stringVal(v) {}

    static JsonValue
    array()
    {
        JsonValue v;
        v.k = Kind::Array;
        return v;
    }

    static JsonValue
    object()
    {
        JsonValue v;
        v.k = Kind::Object;
        return v;
    }

    Kind kind() const { return k; }

    std::uint64_t asUint() const { return uintVal; }

    /** Numeric read: Uint and Double both convert. */
    double
    asDouble() const
    {
        return k == Kind::Uint ? static_cast<double>(uintVal) : doubleVal;
    }

    const std::string &asString() const { return stringVal; }

    // -- Array access -----------------------------------------------------
    void
    push(JsonValue v)
    {
        arrayVal.push_back(std::move(v));
    }

    const std::vector<JsonValue> &items() const { return arrayVal; }
    std::size_t size() const { return arrayVal.size(); }

    // -- Object access (insertion-ordered) --------------------------------
    /** Find-or-insert member @p key. */
    JsonValue &operator[](const std::string &key);

    /** Member lookup; nullptr when absent (or not an object). */
    const JsonValue *find(const std::string &key) const;

    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return objectVal;
    }

    /** Serialize.  @p indent 0 renders compact single-line JSON;
     *  positive values pretty-print with that many spaces per level. */
    std::string dump(int indent = 0) const;

    /** Parse a complete JSON document; nullopt on any syntax error. */
    static std::optional<JsonValue> parse(std::string_view text);

    bool operator==(const JsonValue &) const = default;

    /** Escape @p s as a JSON string literal (with quotes). */
    static std::string quote(std::string_view s);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind k;
    bool boolVal = false;
    std::uint64_t uintVal = 0;
    double doubleVal = 0.0;
    std::string stringVal;
    std::vector<JsonValue> arrayVal;
    std::vector<std::pair<std::string, JsonValue>> objectVal;
};

} // namespace dcfb::obs

#endif // DCFB_OBS_JSON_H
