/**
 * @file
 * Command-line front end of tlsim_repro.
 *
 * reproMain() implements the full CLI (experiment selection, worker
 * count, result-cache control, merged stats export);
 * `tlsim_repro --filter <name>` runs a single experiment.
 */

#ifndef TLSIM_BENCH_REPRO_REPROCLI_HH
#define TLSIM_BENCH_REPRO_REPROCLI_HH

namespace tlsim
{
namespace repro
{

/**
 * Entry point of the tlsim_repro binary.
 *
 * Usage: tlsim_repro [options]
 *   --list              print the experiments and exit
 *   --filter a,b        run only the named experiments (default:
 *                       all but the ablation-* ones)
 *   --jobs N            worker threads (default: hardware threads)
 *   --cache-dir DIR     result-cache directory
 *                       (default $TLSIM_CACHE_DIR or
 *                       tlsim_result_cache)
 *   --no-cache          disable result memoization
 *   --stats-json FILE   merged per-run stats JSON, in spec order
 *   --config FILE       load the machine config (JSON)
 *   --dump-config       print the effective config JSON and exit
 *   --cores N           CMP cores sharing the L2 (default 1)
 *   --warm N            timed-warmup instructions per run
 *   --measure N         measured instructions per run
 *   --funcwarm N        functional-warmup instructions per run
 *   --quiet             suppress per-run progress on stderr
 *   --debug-flags F,F   gem5-style debug output (serial runs)
 *   --trace-out FILE    Chrome trace (forces --jobs 1)
 *
 * @return Process exit code.
 */
int reproMain(int argc, char **argv);

} // namespace repro
} // namespace tlsim

#endif // TLSIM_BENCH_REPRO_REPROCLI_HH
