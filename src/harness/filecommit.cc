#include "harness/filecommit.hh"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "sim/logging.hh"

namespace tlsim
{
namespace harness
{

std::string
commitFile(const std::string &path, std::string_view bytes)
{
    static std::atomic<std::uint64_t> serial{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                      "." + std::to_string(serial++);
    auto fail = [&tmp](const char *what, int err) {
        ::unlink(tmp.c_str());
        return csprintf("cannot {} '{}': {}", what, tmp,
                        std::strerror(err));
    };

    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0)
        return fail("create", errno);
    const char *data = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
        ssize_t n = ::write(fd, data, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int err = errno;
            ::close(fd);
            return fail("write", err);
        }
        data += n;
        left -= static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        int err = errno;
        ::close(fd);
        return fail("sync", err);
    }
    ::close(fd);

    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return fail("rename", errno);
    std::string dir = std::filesystem::path(path).parent_path().string();
    int dirfd = ::open(dir.empty() ? "." : dir.c_str(),
                       O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dirfd >= 0) {
        ::fsync(dirfd);
        ::close(dirfd);
    }
    return {};
}

} // namespace harness
} // namespace tlsim
