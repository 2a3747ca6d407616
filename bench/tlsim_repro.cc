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
    try {
        return tlsim::repro::reproMain(argc, argv);
    } catch (const tlsim::FatalError &) {
        // Bad input: fatal() has already printed the message. A
        // PanicError (a simulator bug) still propagates and aborts.
        return 1;
    }
}
