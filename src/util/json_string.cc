#include "json_string.hh"

#include <cstdio>

namespace antsim {

void
appendJsonString(std::string &out, std::string_view s)
{
    out += '"';
    for (const char ch : s) {
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(ch)));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    out += '"';
}

} // namespace antsim
