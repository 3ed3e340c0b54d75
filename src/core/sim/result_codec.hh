/**
 * @file
 * The result codec: SimResult and ScenarioResults to and from JSON.
 *
 * One table in result_codec.cc (forEachResultMember) declares each
 * SimResult member's JSON key, the schema version that introduced it,
 * and whether it is written only when non-empty or only with traces.
 * Every writer and reader iterates it:
 *
 *  - one put() per member kind, templated on an emitter: a Json tree
 *    builder behind toJson(), or JsonWriter (common/json.hh) behind
 *    writeResult(), which appends the same bytes toJson().dump(0)
 *    would without building the tree — what a JSONL stream record
 *    holds (core/sim/result_sink.hh);
 *  - one get() per member kind, templated on a reader: JsonReader
 *    behind readResult(), which decodes a result straight from text,
 *    members in any order, or a cursor over a parsed tree behind
 *    simResultFromJson().
 *
 * Result documents (`memtherm run -o`) nest results under points,
 * workloads and policies and carry the schema version stamp; see
 * toJson(ScenarioResults).
 */

#ifndef MEMTHERM_CORE_SIM_RESULT_CODEC_HH
#define MEMTHERM_CORE_SIM_RESULT_CODEC_HH

#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/sim/sim_result.hh"

namespace memtherm
{

struct ScenarioResults; // core/sim/scenario.hh

/**
 * Version of the result-document schema this binary writes. The result
 * table records the version that introduced each member: 2 the refresh
 * arrays, 3 the bank-grid members. toJson(ScenarioResults) stamps the
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
 */
Json toJson(const SimResult &r, bool traces = false);
Json toJson(const ScenarioResults &r, bool traces = false);

/** Append toJson(@p r, @p traces).dump(0)'s bytes, building no tree. */
void writeResult(JsonWriter &out, const SimResult &r, bool traces);

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
 * readResult()'s decoder over a parsed tree: the inverse of
 * toJson(SimResult).
 */
SimResult simResultFromJson(const Json &j, const std::string &where,
                            std::optional<bool> traces = std::nullopt);

/** Inverse of toJson(ScenarioResults), after the version check. */
ScenarioResults scenarioResultsFromJson(const Json &doc,
                                        const std::string &where);

/** JSON keys of a result object, in the order toJson() writes them. */
const std::vector<std::string> &resultMemberKeys();

} // namespace memtherm

#endif // MEMTHERM_CORE_SIM_RESULT_CODEC_HH
