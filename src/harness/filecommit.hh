/**
 * @file
 * Crash-safe replacement of one file: the commit every on-disk store
 * of the harness (result cache, warm checkpoints, sampling plans)
 * shares.
 */

#ifndef TLSIM_HARNESS_FILECOMMIT_HH
#define TLSIM_HARNESS_FILECOMMIT_HH

#include <string>
#include <string_view>

namespace tlsim
{
namespace harness
{

/**
 * Replace @p path with @p bytes: write a tmp file unique to this
 * process and call (`<path>.tmp.<pid>.<n>`, so concurrent sweeps
 * sharing a directory never clobber each other's tmp file), fsync
 * it, rename it over @p path, then fsync the directory. A kill or
 * power cut at any instant leaves the old file, the new file, or a
 * leftover tmp file that readers ignore — never a torn @p path.
 * @return Empty on success, else what failed (the tmp file is then
 *         removed).
 */
std::string commitFile(const std::string &path, std::string_view bytes);

} // namespace harness
} // namespace tlsim

#endif // TLSIM_HARNESS_FILECOMMIT_HH
