/**
 * @file
 * The JSON reader, a test oracle: a parser for the report subsystem's
 * Json model (report/json.hh) and the readers that invert the
 * CounterSet/NetworkStats serializers of report/report.hh.
 *
 * No bench reads JSON back; report_test round-trips documents and
 * reports through these to prove the writers lose nothing (exact
 * uint64 counters, shortest round-trip doubles, member order).
 */

#ifndef ANTSIM_ORACLES_JSON_READER_HH
#define ANTSIM_ORACLES_JSON_READER_HH

#include <string>

#include "report/json.hh"
#include "util/counters.hh"
#include "workload/runner.hh"

namespace antsim {

/**
 * Parse a document. On malformed input returns a Null value and
 * stores a diagnostic in @p error (when non-null); a valid "null"
 * document leaves @p error empty.
 */
Json parseJson(const std::string &text, std::string *error = nullptr);

/** Parse a counter set serialized by counterSetToJson. */
CounterSet counterSetFromJson(const Json &json);

/** Parse the output of networkStatsToJson back into NetworkStats. */
NetworkStats networkStatsFromJson(const Json &json);

} // namespace antsim

#endif // ANTSIM_ORACLES_JSON_READER_HH
