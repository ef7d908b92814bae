#pragma once

/**
 * @file
 * The one JSON layer of the repo.
 *
 * Every machine-readable artifact — BENCH_*.json bench baselines,
 * fuzz reproducers (fault::plan_to_json), scenario/fleet profiles and
 * the fleet driver's streaming JSONL records — is emitted by
 * util::Json and parsed by util::JsonCursor, so escaping and number
 * formatting are identical everywhere by construction:
 *
 *  - Strings escape `"`, `\`, and all control characters (common
 *    ones as \n, \r, \t, the rest as \u00XX).
 *  - Doubles print as the shortest decimal that strtod() parses back
 *    to the same bits (%.15g .. %.17g), so serialize -> parse is the
 *    identity on finite values.
 *  - Integers print exactly (no double round-trip).
 *
 * JsonCursor is a strict recursive-descent micro-parser for that
 * dialect: objects, arrays, strings (standard escapes incl. \uXXXX
 * for the BMP), numbers, booleans and null. It is cursor-style on
 * purpose — schema layers (fault plans, scenario profiles, fleet
 * profiles) walk it key by key and reject unknown keys loudly, which
 * a DOM-style loader makes too easy to forget.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace hivemind::util {

/** Shortest decimal string that round-trips @p v through strtod(). */
std::string format_double(double v);

/** JSON string escaping (quotes included in the result). */
std::string quote(std::string_view s);

/**
 * Incremental JSON builder. Json::object()/Json::array() start a
 * value; kv()/push() append; str() renders. Values nest by passing a
 * finished Json to kv()/push().
 */
class Json
{
  public:
    static Json object() { return Json(true); }
    static Json array() { return Json(false); }

    Json& kv(const std::string& key, double v)
    {
        return raw_kv(key, format_double(v));
    }
    Json& kv(const std::string& key, std::uint64_t v)
    {
        return raw_kv(key, std::to_string(v));
    }
    Json& kv(const std::string& key, std::int64_t v)
    {
        return raw_kv(key, std::to_string(v));
    }
    Json& kv(const std::string& key, int v)
    {
        return raw_kv(key, std::to_string(v));
    }
    Json& kv(const std::string& key, unsigned v)
    {
        return raw_kv(key, std::to_string(v));
    }
    Json& kv(const std::string& key, bool v)
    {
        return raw_kv(key, v ? "true" : "false");
    }
    Json& kv(const std::string& key, const std::string& v)
    {
        return raw_kv(key, quote(v));
    }
    Json& kv(const std::string& key, const char* v)
    {
        return raw_kv(key, quote(v));
    }
    Json& kv(const std::string& key, const Json& v)
    {
        return raw_kv(key, v.str());
    }
    /** A number, or null when @p v is empty. */
    Json& kv(const std::string& key, const std::optional<double>& v)
    {
        return v ? kv(key, *v) : raw_kv(key, "null");
    }

    Json& push(double v) { return raw_push(format_double(v)); }
    Json& push(std::uint64_t v) { return raw_push(std::to_string(v)); }
    Json& push(std::int64_t v) { return raw_push(std::to_string(v)); }
    Json& push(int v) { return raw_push(std::to_string(v)); }
    Json& push(const std::string& v) { return raw_push(quote(v)); }
    Json& push(const char* v) { return raw_push(quote(v)); }
    Json& push(const Json& v) { return raw_push(v.str()); }

    std::string str() const
    {
        return (object_ ? "{" : "[") + body_ + (object_ ? "}" : "]");
    }

  private:
    explicit Json(bool object) : object_(object) {}

    Json& raw_kv(const std::string& key, const std::string& value)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += quote(key) + ":" + value;
        return *this;
    }

    Json& raw_push(const std::string& value)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += value;
        return *this;
    }

    bool object_;
    std::string body_;
};

/**
 * Strict cursor over a JSON text. All errors throw
 * std::invalid_argument prefixed with @p what_for (e.g. "plan JSON").
 * The cursor never allocates a DOM; callers drive it:
 *
 *   JsonCursor in(text, "profile JSON");
 *   in.expect('{');
 *   while (!in.at('}')) { ... in.parse_string() ... }
 */
class JsonCursor
{
  public:
    explicit JsonCursor(std::string_view text,
                        std::string what_for = "JSON");

    /** True and advance when the next non-space char is @p c. */
    bool consume(char c);
    /** consume(c) or fail. */
    void expect(char c);
    /** Peek: next non-space char is @p c (no advance). */
    bool at(char c);
    /** All input consumed (trailing whitespace allowed). */
    bool done();

    /** Quoted string with standard escapes (incl. BMP \uXXXX). */
    std::string parse_string();
    /** Any JSON number, as double. */
    double parse_number();
    /** Number that must be integral and fit std::int64_t. */
    std::int64_t parse_int();
    bool parse_bool();

    /** Skip one complete value of any type (for tolerant readers). */
    void skip_value();

    [[noreturn]] void fail(const std::string& what) const;

  private:
    void skip_ws();

    std::string what_for_;
    const char* p_;
    const char* end_;
};

/**
 * Walk the members of one JSON object: calls
 * `member(cursor, key)` once per key with the cursor parked right
 * after the ':'; the callback must consume exactly the value.
 * Handles the '{' '}' and commas. Usage:
 *
 *   parse_object(in, [&](JsonCursor& in, const std::string& key) {
 *       if (key == "seed") seed = in.parse_int();
 *       else in.fail("unknown key \"" + key + "\"");
 *   });
 */
template <typename Fn>
void
parse_object(JsonCursor& in, Fn&& member)
{
    in.expect('{');
    bool first = true;
    while (!in.at('}')) {
        if (!first)
            in.expect(',');
        first = false;
        const std::string key = in.parse_string();
        in.expect(':');
        member(in, key);
    }
    in.expect('}');
}

/** Walk the elements of one JSON array; `element(cursor)` per item. */
template <typename Fn>
void
parse_array(JsonCursor& in, Fn&& element)
{
    in.expect('[');
    bool first = true;
    while (!in.at(']')) {
        if (!first)
            in.expect(',');
        first = false;
        element(in);
    }
    in.expect(']');
}

}  // namespace hivemind::util
