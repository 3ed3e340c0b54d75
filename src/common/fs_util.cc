#include "common/fs_util.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/logging.hh"

namespace memtherm
{

void
atomicWriteFile(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            fatal("cannot open '" + tmp + "' for writing");
        out << content;
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            fatal("write to '" + tmp + "' failed");
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::remove(tmp.c_str());
        fatal("cannot rename '" + tmp + "' to '" + path +
              "': " + ec.message());
    }
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    std::string text(ec ? 0 : size, '\0');
    in.read(text.data(), static_cast<std::streamsize>(text.size()));
    text.resize(static_cast<std::size_t>(in.gcount()));
    // Whatever the size did not cover: a file that is not regular (a
    // pipe), or one that grew since it was sized. Read through the
    // stream, which turns a failed read (a directory) into its bad bit.
    char buf[4096];
    while (in.read(buf, sizeof(buf)), in.gcount() > 0)
        text.append(buf, static_cast<std::size_t>(in.gcount()));
    if (in.bad())
        return std::nullopt;
    return text;
}

} // namespace memtherm
