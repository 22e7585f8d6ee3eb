/**
 * @file
 * Minimal self-contained JSON document model for run reporting.
 *
 * The report subsystem needs two things no external dependency is
 * available for: (1) deterministic serialization -- two identical runs
 * must produce byte-identical documents, so object members keep their
 * insertion order and doubles print as their shortest round-trip form;
 * (2) exact 64-bit integers, because counter values must survive
 * serialization bit for bit (a double mantissa cannot hold a full
 * uint64). Only tests read documents back: the parser they round-trip
 * reports through is tests/oracles/json_reader.hh, built on this
 * class's public API.
 *
 * The model is deliberately small: null, bool, signed/unsigned 64-bit
 * integers, double, string, array, object. That is the entire schema
 * of docs/report_schema.json.
 */

#ifndef ANTSIM_REPORT_JSON_HH
#define ANTSIM_REPORT_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace antsim {

/** One JSON value; objects preserve member insertion order. */
class Json
{
  public:
    enum class Type { Null, Bool, Int, Uint, Double, String, Array, Object };

    Json() : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(std::int64_t v) : type_(Type::Int), int_(v) {}
    Json(std::uint64_t v) : type_(Type::Uint), uint_(v) {}
    Json(double v) : type_(Type::Double), double_(v) {}
    Json(const char *s) : type_(Type::String), string_(s) {}
    Json(std::string s) : type_(Type::String), string_(std::move(s)) {}

    /** An empty array value. */
    static Json array();
    /** An empty object value. */
    static Json object();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isNumber() const;

    /** Typed accessors; panic if the value has a different type. */
    std::int64_t asInt() const;
    std::uint64_t asUint() const;
    /** Numeric value widened to double (any numeric type). */
    double asDouble() const;
    const std::string &asString() const;

    /** Array: append an element. */
    Json &push(Json value);
    /** Array/object: number of elements or members. */
    std::size_t size() const;
    /** Array: element access; panics when out of range. */
    const Json &at(std::size_t index) const;

    /** Object: insert or overwrite a member, keeping first-seen order. */
    Json &set(const std::string &key, Json value);
    /** Object: member lookup; nullptr when absent. */
    const Json *find(const std::string &key) const;
    /** Object: member lookup; panics when absent. */
    const Json &at(const std::string &key) const;

    /**
     * Serialize deterministically: 2-space indentation, members in
     * insertion order, doubles in shortest round-trip form, integers
     * exact, trailing newline-free.
     */
    std::string dump() const;

    /**
     * Structural equality; numbers compare by value across Int, Uint
     * and Double so a parsed document equals its source model.
     */
    bool operator==(const Json &other) const;
    bool operator!=(const Json &other) const { return !(*this == other); }

  private:
    void dumpTo(std::string &out, int indent) const;

    Type type_;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::vector<std::pair<std::string, Json>> object_;
};

} // namespace antsim

#endif // ANTSIM_REPORT_JSON_HH
