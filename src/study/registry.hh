/**
 * @file
 * Registry-based (machine, kernel) dispatch for the study. Each
 * architecture registers one KernelMapping functor per kernel; the
 * ParallelRunner looks mappings up here instead of switching on
 * MachineId, and an unregistered pair is a fatal error naming the
 * machine and kernel rather than a silent fall-through.
 *
 * A KernelMapping is a pure function of the (immutable) StudyConfig
 * and Workloads: it constructs a fresh machine model, runs the
 * kernel, validates the output against the golden reference, and
 * fills in the explanatory notes. Purity is what makes results
 * bit-identical at any thread count.
 */

#ifndef TRIARCH_STUDY_REGISTRY_HH
#define TRIARCH_STUDY_REGISTRY_HH

#include <functional>
#include <map>
#include <utility>

#include "study/experiment.hh"

namespace triarch::study
{

/** Runs one cell: fresh machine, measure, validate, annotate. */
using KernelMapping =
    std::function<RunResult(const StudyConfig &, const Workloads &)>;

class MappingRegistry
{
  public:
    MappingRegistry() = default;

    /** Register @p mapping for (machine, kernel); panics on a
     *  duplicate registration. */
    void add(MachineId machine, KernelId kernel, KernelMapping mapping);

    /** The mapping for a pair; fatal if none is registered. */
    const KernelMapping &at(MachineId machine, KernelId kernel) const;

    /**
     * The registry holding all built-in mappings: every pair in
     * allMachines() x allKernels(). Built once, thread-safe to read
     * concurrently.
     */
    static const MappingRegistry &builtin();

  private:
    using Key = std::pair<unsigned, unsigned>;

    static Key
    key(MachineId machine, KernelId kernel)
    {
        return {static_cast<unsigned>(machine),
                static_cast<unsigned>(kernel)};
    }

    std::map<Key, KernelMapping> mappings;
};

} // namespace triarch::study

#endif // TRIARCH_STUDY_REGISTRY_HH
