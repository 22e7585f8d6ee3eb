/**
 * @file
 * The one JSON string escaper, shared by the run report (report/json),
 * the simulated-time trace (obs/trace) and the host trace
 * (obs/host_trace).
 */

#ifndef ANTSIM_UTIL_JSON_STRING_HH
#define ANTSIM_UTIL_JSON_STRING_HH

#include <string>
#include <string_view>

namespace antsim {

/**
 * Append @p s to @p out as a quoted JSON string: '"' and '\\' are
 * backslash-escaped, \n, \r and \t take their short escapes, and every
 * other byte below 0x20 becomes \u00XX. Bytes from 0x20 up, UTF-8
 * included, pass through.
 */
void appendJsonString(std::string &out, std::string_view s);

} // namespace antsim

#endif // ANTSIM_UTIL_JSON_STRING_HH
