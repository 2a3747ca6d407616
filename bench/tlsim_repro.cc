/**
 * @file
 * tlsim_repro: regenerate every simulation-driven table and figure of
 * the paper's evaluation from one binary, in parallel, with result
 * memoization. See docs/REPRODUCING.md and `tlsim_repro --help`.
 */

#include "repro/reprocli.hh"
#include "sim/logging.hh"

int
main(int argc, char **argv)
{
    return tlsim::exitOnFatal(
        [&] { return tlsim::repro::reproMain(argc, argv); });
}
