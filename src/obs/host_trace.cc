#include "host_trace.hh"

#include <algorithm>
#include <fstream>

#include "util/json_string.hh"
#include "util/logging.hh"

namespace antsim {
namespace obs {
namespace host {

namespace {

void
appendU64(std::string &out, std::uint64_t v)
{
    out += std::to_string(v);
}

} // namespace

std::string
toChromeJson()
{
    detail::Registry &reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);

    // Rebase to the earliest recorded span so timestamps are small
    // and runs of the same workload produce structurally comparable
    // documents.
    std::uint64_t min_start = ~0ull;
    for (const auto &thread : reg.threads) {
        for (const Span &span : thread->spans)
            min_start = std::min(min_start, span.startNs);
    }
    if (min_start == ~0ull)
        min_start = 0;

    std::string out;
    out.reserve(1u << 20);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";

    for (std::size_t t = 0; t < reg.threads.size(); ++t) {
        out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
        appendU64(out, t);
        out += ",\"args\":{\"name\":";
        appendJsonString(out, reg.threads[t]->role);
        out += "}},\n";
    }

    for (std::size_t t = 0; t < reg.threads.size(); ++t) {
        for (const Span &span : reg.threads[t]->spans) {
            // Floor start and end independently, then subtract: child
            // bounds can never escape their parent's (floor is
            // monotone), so microsecond rounding preserves nesting.
            const std::uint64_t ts = (span.startNs - min_start) / 1000;
            const std::uint64_t end = (span.endNs - min_start) / 1000;
            out += "{\"name\":";
            appendJsonString(out, span.name);
            out += ",\"cat\":\"";
            out += span.cat;
            out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
            appendU64(out, t);
            out += ",\"ts\":";
            appendU64(out, ts);
            out += ",\"dur\":";
            appendU64(out, end - ts);
            if (!span.argsJson.empty()) {
                out += ",\"args\":";
                out += span.argsJson;
            }
            out += "},\n";
        }
        if (reg.threads[t]->truncated) {
            out += "{\"name\":\"span_budget_exceeded\",\"cat\":\"host\","
                   "\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":";
            appendU64(out, t);
            out += ",\"ts\":0},\n";
        }
    }

    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
           "\"args\":{\"name\":\"antsim host\"}}\n]}\n";
    return out;
}

void
writeChromeJson(const std::string &path)
{
    const std::string doc = toChromeJson();
    std::ofstream out(path, std::ios::binary);
    if (!out)
        ANT_FATAL("cannot open host trace output file '", path, "'");
    out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
    out.flush();
    if (!out)
        ANT_FATAL("failed writing host trace output file '", path, "'");
}

void
clear()
{
    detail::Registry &reg = detail::registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto &thread : reg.threads) {
        thread->spans.clear();
        thread->truncated = false;
    }
}

} // namespace host
} // namespace obs
} // namespace antsim
