/**
 * @file
 * The traced run's cell implementations: a MappingRegistry whose 15
 * entries redo what the built-in mappings do, one step at a time, so
 * that each step gets its own span — construct the machine and the
 * output buffer, run the kernel, validate the output, account the
 * cycles (D9 breakdown), capture stats and the hw cell, destroy.
 *
 * Because the registry plugs into the same ParallelRunner as the
 * built-in one, the study layer (scheduling, cache, workload sharing)
 * is exercised identically. The traced run checks that these cells
 * reproduce the built-in RunResult cycles and breakdown bit for bit.
 *
 * Per cell, the mappings also count, into the current pass:
 *   <m>.<k>.sim_cycles (cycles the model simulated),
 *   raw.<k>.instrs, mem.<m>.<k>.accesses and mem.<m>.<k>.misses
 * (summed over the machine's component stat groups).
 */

#ifndef PERFBENCH_TRACED_CELLS_HH
#define PERFBENCH_TRACED_CELLS_HH

#include <string>

#include "spans.hh"
#include "study/registry.hh"

namespace perfbench
{

/** The layer (module) a machine's spans belong to. */
const std::string &machineLayer(triarch::study::MachineId machine);

/** A registry of all 15 cells recording into @p rec (which must
 *  outlive the registry's use). */
triarch::study::MappingRegistry tracedRegistry(SpanRecorder &rec);

} // namespace perfbench

#endif // PERFBENCH_TRACED_CELLS_HH
