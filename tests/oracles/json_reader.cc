#include "oracles/json_reader.hh"

#include <charconv>
#include <cstdlib>

#include "util/logging.hh"

namespace antsim {

namespace {

/** Phase keys in TrainingPhase order, as networkStatsToJson writes
 *  them (docs/report_schema.json). */
constexpr const char *kPhaseNames[3] = {"forward", "backward", "update"};

/** Recursive-descent parser over a raw byte range. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {}

    Json
    run()
    {
        Json value = parseValue();
        skipWs();
        if (!failed_ && pos_ != text_.size())
            fail("trailing characters after document");
        return failed_ ? Json() : value;
    }

    bool failed() const { return failed_; }

  private:
    void
    fail(const std::string &why)
    {
        if (failed_)
            return;
        failed_ = true;
        if (error_ != nullptr)
            *error_ = why + " at byte " + std::to_string(pos_);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char ch)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ch) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of document");
            return Json();
        }
        const char ch = text_[pos_];
        if (ch == '{')
            return parseObject();
        if (ch == '[')
            return parseArray();
        if (ch == '"')
            return Json(parseString());
        if (literal("true"))
            return Json(true);
        if (literal("false"))
            return Json(false);
        if (literal("null"))
            return Json();
        if (ch == '-' || (ch >= '0' && ch <= '9'))
            return parseNumber();
        fail(std::string("unexpected character '") + ch + "'");
        return Json();
    }

    std::string
    parseString()
    {
        std::string out;
        if (!consume('"')) {
            fail("expected string");
            return out;
        }
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char ch = text_[pos_++];
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return out;
                }
                unsigned code = 0;
                const auto res = std::from_chars(
                    text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
                if (res.ec != std::errc() ||
                    res.ptr != text_.data() + pos_ + 4) {
                    fail("bad \\u escape");
                    return out;
                }
                pos_ += 4;
                // The reports only emit control-range escapes; decode
                // BMP code points as UTF-8 for generality.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default: fail("unknown escape"); return out;
            }
        }
        if (!consume('"'))
            fail("unterminated string");
        return out;
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos_;
        bool is_integral = true;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size()) {
            const char ch = text_[pos_];
            if (ch >= '0' && ch <= '9') {
                ++pos_;
            } else if (ch == '.' || ch == 'e' || ch == 'E' || ch == '+' ||
                       ch == '-') {
                is_integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string token = text_.substr(start, pos_ - start);
        if (is_integral) {
            // Exact integer: negatives to Int, the rest to Uint so a
            // full-range counter survives.
            if (token[0] == '-') {
                std::int64_t v = 0;
                const auto res = std::from_chars(
                    token.data(), token.data() + token.size(), v);
                if (res.ec == std::errc() &&
                    res.ptr == token.data() + token.size())
                    return Json(v);
            } else {
                std::uint64_t v = 0;
                const auto res = std::from_chars(
                    token.data(), token.data() + token.size(), v);
                if (res.ec == std::errc() &&
                    res.ptr == token.data() + token.size())
                    return Json(v);
            }
        }
        char *end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') {
            fail("malformed number '" + token + "'");
            return Json();
        }
        return Json(v);
    }

    Json
    parseArray()
    {
        Json arr = Json::array();
        consume('[');
        skipWs();
        if (consume(']'))
            return arr;
        while (!failed_) {
            arr.push(parseValue());
            if (consume(']'))
                return arr;
            if (!consume(',')) {
                fail("expected ',' or ']' in array");
                return arr;
            }
        }
        return arr;
    }

    Json
    parseObject()
    {
        Json obj = Json::object();
        consume('{');
        skipWs();
        if (consume('}'))
            return obj;
        while (!failed_) {
            skipWs();
            const std::string key = parseString();
            if (failed_)
                return obj;
            if (!consume(':')) {
                fail("expected ':' after object key");
                return obj;
            }
            obj.set(key, parseValue());
            if (consume('}'))
                return obj;
            if (!consume(',')) {
                fail("expected ',' or '}' in object");
                return obj;
            }
        }
        return obj;
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

} // namespace

Json
parseJson(const std::string &text, std::string *error)
{
    if (error != nullptr)
        error->clear();
    Parser parser(text, error);
    return parser.run();
}

CounterSet
counterSetFromJson(const Json &json)
{
    CounterSet counters;
    ANT_ASSERT(json.size() == kNumCounters,
               "counter object has ", json.size(), " members, expected ",
               kNumCounters);
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        const auto counter = static_cast<Counter>(i);
        counters.set(counter, json.at(counterName(counter)).asUint());
    }
    return counters;
}

NetworkStats
networkStatsFromJson(const Json &json)
{
    NetworkStats stats;
    stats.total = counterSetFromJson(json.at("total"));
    const Json &layers = json.at("layers");
    for (std::size_t li = 0; li < layers.size(); ++li) {
        const Json &layer_json = layers.at(li);
        LayerStats layer;
        layer.name = layer_json.at("name").asString();
        const Json &phases = layer_json.at("phases");
        for (std::size_t i = 0; i < phases.size(); ++i) {
            const Json &phase_json = phases.at(i);
            const std::string &phase_name =
                phase_json.at("phase").asString();
            std::size_t pi = 3;
            for (std::size_t p = 0; p < 3; ++p) {
                if (phase_name == kPhaseNames[p])
                    pi = p;
            }
            ANT_ASSERT(pi < 3, "unknown phase name '", phase_name, "'");
            PhaseStats &phase = layer.phases[pi];
            phase.pairsTotal = phase_json.at("pairs_total").asUint();
            phase.pairsSimulated =
                phase_json.at("pairs_simulated").asUint();
            phase.counters = counterSetFromJson(phase_json.at("counters"));
        }
        stats.layers.push_back(std::move(layer));
    }
    return stats;
}

} // namespace antsim
