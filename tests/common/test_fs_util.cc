/**
 * @file
 * readFile(): whole files, and the paths that are not one — a missing
 * file and a directory read as std::nullopt, so every caller prints its
 * "cannot open" diagnostic instead of aborting on a stream exception.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/fs_util.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace memtherm
{
namespace
{

TEST(ReadFile, ReturnsTheWholeFile)
{
    const std::string path = ::testing::TempDir() + "memtherm_read_file.txt";
    std::string text(100000, 'x');
    text += "\nend";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
    }
    EXPECT_EQ(readFile(path), text);
    std::remove(path.c_str());
}

TEST(ReadFile, MissingFilesAndDirectoriesAreNotReadable)
{
    const std::string dir = ::testing::TempDir();
    ASSERT_TRUE(std::filesystem::is_directory(dir));
    EXPECT_EQ(readFile(dir), std::nullopt);
    EXPECT_EQ(readFile(dir + "memtherm_no_such_file.json"), std::nullopt);
    try {
        (void)Json::load(dir);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("cannot open '" + dir +
                                             "' for reading"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace memtherm
