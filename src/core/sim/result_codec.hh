/**
 * @file
 * The result codec: SimResult and ScenarioResults to and from JSON
 * text.
 *
 * One table in result_codec.cc (forEachResultMember) declares each
 * SimResult member's JSON key, the schema version that introduced it,
 * and whether it is written only when non-empty or only with traces.
 * Every writer and the one reader iterate it:
 *
 *  - one put() per member kind, and one document layout (putDocument),
 *    templated on an emitter: JsonWriter (common/json.hh) behind
 *    writeResult(), which appends a JSONL stream record's result
 *    (core/sim/result_sink.hh), and behind writeDocument(), which
 *    prints a whole results document (`memtherm run -o`, `merge -o`);
 *  - one get() per member kind, on JsonReader: readResult() decodes a
 *    result straight from its text, members in any order, and
 *    readDocument() a whole document.
 *
 * toJson() builds the same layouts as a Json tree: no caller outside
 * perfbench, kept for it (with MergedStream::results) until a
 * benchmark change moves it onto the text path.
 */

#ifndef MEMTHERM_CORE_SIM_RESULT_CODEC_HH
#define MEMTHERM_CORE_SIM_RESULT_CODEC_HH

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"
#include "core/sim/sim_result.hh"

namespace memtherm
{

struct ScenarioResults; // core/sim/scenario.hh

/**
 * Version of the result-document schema this binary writes. The result
 * table records the version that introduced each member: 2 the refresh
 * arrays, 3 the bank-grid members. writeDocument() stamps the
 * highest version among the members it writes, and nothing for v1 (so
 * version-absent files read as v1 and keep their bytes); JSONL stream
 * headers (core/sim/result_sink.hh) carry the binary's version
 * unconditionally.
 */
inline constexpr int kResultSchemaVersion = 3;

/**
 * Effective schema version of a result document or stream header: the
 * `schema_version` member when present, else 1. FatalError when the
 * member is not a positive integer, or names a version newer than
 * @p max_version (the binary's kResultSchemaVersion by default; tests
 * pin older values to exercise the refusal) — a clear upgrade message
 * instead of a misparse. @p where prefixes the diagnostic (e.g. the
 * file path).
 */
int resultSchemaVersionOf(const Json &doc, const std::string &where,
                          int max_version = kResultSchemaVersion);

/**
 * A result as a JSON object; @p traces includes the full traces
 * (large). The per-DIMM v2/v3 members are written only when non-empty.
 * perfbench's forwards; see the file comment.
 */
Json toJson(const SimResult &r, bool traces = false);
Json toJson(const ScenarioResults &r, bool traces = false);

/** Append toJson(@p r, @p traces).dump(0)'s bytes, building no tree. */
void writeResult(JsonWriter &out, const SimResult &r, bool traces);

/**
 * The results document of @p r as a file's text: `scenario`, the
 * schema stamp, `points` (`label`, `results` by workload, then policy)
 * and, only when runs failed, `errors` — toJson(@p r, @p traces)
 * .dump(2)'s bytes, with no tree in between.
 */
std::string writeDocument(const ScenarioResults &r, bool traces = false);

/**
 * Decode the result object at @p in's position, its members in any
 * order. FatalError, prefixed with @p where (and the member, when one
 * is at fault), on a wrong type, a missing required member or one the
 * table lacks; the per-DIMM arrays, v2/v3 members and traces may be
 * absent (empty). @p traces, when set, says whether `traces` must be
 * present.
 */
SimResult readResult(JsonReader &in, const std::string &where,
                     std::optional<bool> traces = std::nullopt);

/**
 * Decode a results document from its @p text, members in any order.
 * No result is decoded before the schema version is known to be
 * readable, so a version newer than this binary's is refused with the
 * upgrade message wherever it sits. FatalError prefixed with @p where,
 * naming the point or error entry at fault and the line:col; a text
 * without `points` "does not look like memtherm results".
 */
ScenarioResults readDocument(std::string_view text, const std::string &where);

/**
 * The run index at @p in's position (a stream record's or a document
 * error's `index`): an integer within [0, 2^53], else FatalError.
 */
std::size_t readRunIndex(JsonReader &in);

/** JSON keys of a result object, in the order toJson() writes them. */
const std::vector<std::string> &resultMemberKeys();

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_RESULT_CODEC_HH
