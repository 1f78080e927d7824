/**
 * @file
 * The paper's Section 2-4 claims, measured and gated: the rows of
 * study::claims() that --machines/--kernels select (exit 2 if none),
 * each next to the paper's wording and the band it implies. Exits 1
 * when a row leaves its band or a known deviation re-enters it.
 */

#include <iostream>

#include "bench_main.hh"
#include "study/claims.hh"

namespace
{

int
run(triarch::bench::BenchContext &ctx)
{
    return triarch::study::runClaims(
        ctx.runner(), ctx.options().machines, ctx.options().kernels,
        ctx.options().csv, ctx.sink(), std::cout);
}

} // namespace

TRIARCH_BENCH_MAIN("the paper's Section 2-4 claims, measured and gated",
                   run)
