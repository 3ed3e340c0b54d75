/**
 * @file
 * Doc-drift guard: the reference manual under docs/ must track the code.
 *
 * Every name a registry catalog exposes, and every result member, has
 * to appear in docs/scenarios.md, and docs/cli.md has to cover every
 * `memtherm` subcommand and flag of the option tables and every
 * `memtherm list` catalog keyword — so a new catalog entry, result
 * member, subcommand or flag cannot land undocumented. README.md must
 * keep linking into docs/.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.hh"
#include "core/sim/registry.hh"
#include "core/sim/scenario.hh"

#ifndef MEMTHERM_SOURCE_DIR
#error "tests need MEMTHERM_SOURCE_DIR (set by CMakeLists.txt)"
#endif

namespace memtherm
{
namespace
{

std::string
readFile(const std::string &rel)
{
    const std::string path = std::string(MEMTHERM_SOURCE_DIR) + "/" + rel;
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

void
expectMentions(const std::string &doc, const std::string &doc_name,
               const std::vector<std::string> &names,
               const std::string &catalog)
{
    for (const auto &n : names) {
        EXPECT_NE(doc.find(n), std::string::npos)
            << doc_name << " does not mention " << catalog << " entry '"
            << n << "' — document every catalog name (this guard is how "
            << "new entries are kept from landing undocumented)";
    }
}

TEST(DocsReference, ScenariosManualCoversEveryCatalogName)
{
    const std::string doc = readFile("docs/scenarios.md");
    ASSERT_FALSE(doc.empty());

    for (const CatalogBase *c : catalogListings())
        expectMentions(doc, "docs/scenarios.md", c->names(),
                       c->info.keyword);
}

TEST(DocsReference, ScenariosManualCoversEverySweepAxisAndKnob)
{
    const std::string doc = readFile("docs/scenarios.md");
    // Every config member and sweep axis of the scenario table, plus
    // the document members and inline-object members outside it.
    std::vector<std::string> keys = scenarioConfigKeys();
    for (const std::string &k : scenarioSweepKeys())
        keys.push_back(k);
    for (const char *k : {"platform", "workloads", "policies", "sweep",
                          "schema_version", "grid_x", "grid_z",
                          "bank_weights"})
        keys.push_back(k);
    for (const std::string &key : keys) {
        EXPECT_NE(doc.find(key), std::string::npos)
            << "docs/scenarios.md does not mention member '" << key << "'";
    }
}

TEST(DocsReference, ScenariosManualCoversEveryResultMember)
{
    // Every key of the result table, in the Results section proper.
    const std::string doc = readFile("docs/scenarios.md");
    const std::size_t begin = doc.find("\n## Results");
    ASSERT_NE(begin, std::string::npos);
    const std::string results =
        doc.substr(begin, doc.find("\n## ", begin + 1) - begin);
    for (const std::string &key : resultMemberKeys()) {
        EXPECT_NE(results.find("`" + key + "`"), std::string::npos)
            << "docs/scenarios.md's Results section does not mention "
               "result member '"
            << key << "'";
    }
}

TEST(DocsReference, CliManualCoversEverySubcommandAndListCatalog)
{
    const std::string doc = readFile("docs/cli.md");
    ASSERT_FALSE(doc.empty());
    for (const CliCommand &c : cliCommands()) {
        const std::string cmd = "memtherm " + std::string(c.name);
        EXPECT_NE(doc.find(cmd), std::string::npos)
            << "docs/cli.md does not document '" << cmd << "'";
    }
    for (const CatalogBase *c : catalogListings()) {
        EXPECT_NE(doc.find(c->info.keyword), std::string::npos)
            << "docs/cli.md does not mention list catalog '"
            << c->info.keyword << "'";
    }
    // Summary-table columns with non-obvious semantics must stay
    // documented.
    EXPECT_NE(doc.find("hottest_dimm"), std::string::npos)
        << "docs/cli.md does not document the 'hottest_dimm' column";
    EXPECT_NE(doc.find("peak_bank_dimm"), std::string::npos)
        << "docs/cli.md does not document the per-bank CSV columns";
    // Every row of the option tables, so a new flag must land
    // documented.
    for (const CliCommand &c : cliCommands()) {
        for (const CliOption &o : c.options) {
            EXPECT_NE(doc.find(o.flag), std::string::npos)
                << "docs/cli.md does not document flag '" << o.flag
                << "' of memtherm " << c.name;
        }
    }
    // Batched execution has non-obvious determinism semantics; the
    // manual must keep explaining the class/fork machinery, not just
    // list the flag.
    for (const char *term :
         {"equivalence class", "prefix hit rate", "fork"}) {
        EXPECT_NE(doc.find(term), std::string::npos)
            << "docs/cli.md does not explain batched-execution term '"
            << term << "'";
    }
    // The fault-injection env knobs exist solely for the crash tests;
    // the manual must say so (and name them) so nobody sets them in a
    // real run.
    for (const char *env :
         {"MEMTHERM_THREADS", "MEMTHERM_FAULT_AFTER_RUN",
          "MEMTHERM_FAULT_FAIL_RUN"}) {
        EXPECT_NE(doc.find(env), std::string::npos)
            << "docs/cli.md does not document env var '" << env << "'";
    }
}

TEST(DocsReference, ReadmeLinksIntoDocs)
{
    const std::string readme = readFile("README.md");
    EXPECT_NE(readme.find("docs/scenarios.md"), std::string::npos)
        << "README.md must link to the scenario reference manual";
    EXPECT_NE(readme.find("docs/cli.md"), std::string::npos)
        << "README.md must link to the CLI manual";
}

} // namespace
} // namespace memtherm
