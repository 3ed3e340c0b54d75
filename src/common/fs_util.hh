/**
 * @file
 * Small filesystem helpers shared by the JSON layer, the trace loader
 * and the CLI.
 *
 * Whole files are read once, into a string sized to the file. The
 * nontrivial service is crash-atomic whole-file writes: results
 * and report files are replaced via write-to-temporary + rename, so a
 * killed process can never leave a truncated JSON/CSV behind — readers
 * see either the old complete file or the new complete file.
 */

#ifndef MEMTHERM_COMMON_FS_UTIL_HH
#define MEMTHERM_COMMON_FS_UTIL_HH

#include <optional>
#include <string>

namespace memtherm
{

/**
 * Replace @p path with @p content atomically: the bytes are written to
 * "<path>.tmp" in the same directory (so the rename cannot cross a
 * filesystem), flushed, and renamed over @p path. FatalError on any I/O
 * failure; the temporary is removed on a failed write, and @p path is
 * never left in a partially-written state.
 */
void atomicWriteFile(const std::string &path, const std::string &content);

/**
 * The bytes of @p path, read straight into a string presized to the
 * file's size (no second copy of the text); std::nullopt when the file
 * cannot be opened or a read fails (@p path names a directory, say).
 */
std::optional<std::string> readFile(const std::string &path);

} // namespace memtherm

#endif // MEMTHERM_COMMON_FS_UTIL_HH
