#include "json.hh"

#include <charconv>
#include <cmath>
#include <limits>

#include "util/json_string.hh"
#include "util/logging.hh"

namespace antsim {

namespace {

/** Shortest round-trip decimal form of a double (finite values only). */
std::string
formatDouble(double v)
{
    ANT_ASSERT(std::isfinite(v), "JSON cannot represent non-finite ", v);
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    ANT_ASSERT(res.ec == std::errc(), "double formatting failed");
    return std::string(buf, res.ptr);
}

} // namespace

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

bool
Json::isNumber() const
{
    return type_ == Type::Int || type_ == Type::Uint ||
        type_ == Type::Double;
}

std::int64_t
Json::asInt() const
{
    if (type_ == Type::Uint) {
        ANT_ASSERT(uint_ <= static_cast<std::uint64_t>(
                                std::numeric_limits<std::int64_t>::max()),
                   "JSON integer ", uint_, " exceeds int64");
        return static_cast<std::int64_t>(uint_);
    }
    ANT_ASSERT(type_ == Type::Int, "JSON value is not an integer");
    return int_;
}

std::uint64_t
Json::asUint() const
{
    if (type_ == Type::Int) {
        ANT_ASSERT(int_ >= 0, "JSON integer ", int_, " is negative");
        return static_cast<std::uint64_t>(int_);
    }
    ANT_ASSERT(type_ == Type::Uint, "JSON value is not an integer");
    return uint_;
}

double
Json::asDouble() const
{
    switch (type_) {
    case Type::Int: return static_cast<double>(int_);
    case Type::Uint: return static_cast<double>(uint_);
    case Type::Double: return double_;
    default: ANT_PANIC("JSON value is not numeric");
    }
}

const std::string &
Json::asString() const
{
    ANT_ASSERT(type_ == Type::String, "JSON value is not a string");
    return string_;
}

Json &
Json::push(Json value)
{
    ANT_ASSERT(type_ == Type::Array, "push on a non-array JSON value");
    array_.push_back(std::move(value));
    return array_.back();
}

std::size_t
Json::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    ANT_PANIC("size() on a scalar JSON value");
}

const Json &
Json::at(std::size_t index) const
{
    ANT_ASSERT(type_ == Type::Array, "indexing a non-array JSON value");
    ANT_ASSERT(index < array_.size(), "JSON array index ", index,
               " out of range ", array_.size());
    return array_[index];
}

Json &
Json::set(const std::string &key, Json value)
{
    ANT_ASSERT(type_ == Type::Object, "set on a non-object JSON value");
    for (auto &member : object_) {
        if (member.first == key) {
            member.second = std::move(value);
            return member.second;
        }
    }
    object_.emplace_back(key, std::move(value));
    return object_.back().second;
}

const Json *
Json::find(const std::string &key) const
{
    ANT_ASSERT(type_ == Type::Object, "find on a non-object JSON value");
    for (const auto &member : object_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *value = find(key);
    ANT_ASSERT(value != nullptr, "JSON object has no member '", key, "'");
    return *value;
}

void
Json::dumpTo(std::string &out, int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string inner_pad(static_cast<std::size_t>(indent + 1) * 2,
                                ' ');
    switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Int: out += std::to_string(int_); break;
    case Type::Uint: out += std::to_string(uint_); break;
    case Type::Double: out += formatDouble(double_); break;
    case Type::String: appendJsonString(out, string_); break;
    case Type::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += "[\n";
        for (std::size_t i = 0; i < array_.size(); ++i) {
            out += inner_pad;
            array_[i].dumpTo(out, indent + 1);
            if (i + 1 < array_.size())
                out += ',';
            out += '\n';
        }
        out += pad;
        out += ']';
        break;
    case Type::Object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += "{\n";
        for (std::size_t i = 0; i < object_.size(); ++i) {
            out += inner_pad;
            appendJsonString(out, object_[i].first);
            out += ": ";
            object_[i].second.dumpTo(out, indent + 1);
            if (i + 1 < object_.size())
                out += ',';
            out += '\n';
        }
        out += pad;
        out += '}';
        break;
    }
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(out, 0);
    return out;
}

bool
Json::operator==(const Json &other) const
{
    if (isNumber() && other.isNumber()) {
        // Exact integers compare exactly; anything involving a double
        // compares by value (shortest-round-trip printing guarantees
        // the parsed double is bit-identical to the source).
        const bool lhs_integral = type_ != Type::Double;
        const bool rhs_integral = other.type_ != Type::Double;
        if (lhs_integral && rhs_integral) {
            const bool lhs_neg = type_ == Type::Int && int_ < 0;
            const bool rhs_neg = other.type_ == Type::Int && other.int_ < 0;
            if (lhs_neg != rhs_neg)
                return false;
            if (lhs_neg)
                return asInt() == other.asInt();
            return asUint() == other.asUint();
        }
        return asDouble() == other.asDouble();
    }
    if (type_ != other.type_)
        return false;
    switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::String: return string_ == other.string_;
    case Type::Array: return array_ == other.array_;
    case Type::Object: return object_ == other.object_;
    default: return false; // numbers handled above
    }
}

} // namespace antsim
