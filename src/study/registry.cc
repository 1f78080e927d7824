#include "registry.hh"

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "imagine/kernels_imagine.hh"
#include "ppc/kernels_ppc.hh"
#include "raw/kernels_raw.hh"
#include "sim/host_clock.hh"
#include "sim/hw_report.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "viram/kernels_viram.hh"

namespace triarch::study
{

void
MappingRegistry::add(MachineId machine, KernelId kernel,
                     KernelMapping mapping)
{
    triarch_assert(mapping != nullptr, "null mapping for ",
                   machineName(machine), "/", kernelName(kernel));
    auto [it, inserted] =
        mappings.emplace(key(machine, kernel), std::move(mapping));
    (void)it;
    triarch_assert(inserted, "duplicate mapping for ",
                   machineName(machine), "/", kernelName(kernel));
}

const KernelMapping &
MappingRegistry::at(MachineId machine, KernelId kernel) const
{
    auto it = mappings.find(key(machine, kernel));
    if (it == mappings.end())
        triarch_fatal("no kernel mapping registered for ",
                      machineName(machine), " / ", kernelName(kernel));
    return it->second;
}

namespace
{

/**
 * Snapshot the machine model's stats into the global MetricsRegistry
 * — the main group under "<machine-token>.<kernel-token>" and every
 * component group (caches, TLB, DRAM channels, ports) under
 * "<machine>.<kernel>.<component>" — and roll them up into the
 * cell's hardware report (utilization metrics, verdict, epoch
 * timeline), before the model dies with its mapping.
 * With host profiling on, the cell's exact setup / run / readback
 * host nanoseconds go under "<machine>.<kernel>.host".
 * Per-cell simulation is deterministic, so re-running a cell
 * recaptures identical values. Requires result.cycles and
 * result.breakdown to be final.
 */
template <typename Machine>
hw::HwCell
captureCell(Machine &m, const RunResult &result,
            const std::optional<host::PhaseNs> &phases)
{
    const std::string label =
        machineToken(result.machine) + "." + kernelToken(result.kernel);
    auto &reg = metrics::MetricsRegistry::global();
    reg.capture(m.statGroup(), label);
    for (auto &[suffix, group] : m.componentGroups())
        reg.capture(*group, label + "." + suffix);
    if (phases) {
        stats::Scalar setup, run, readback;
        setup.set(phases->setup);
        run.set(phases->run);
        readback.set(phases->readback);
        stats::StatGroup host("host");
        host.addScalar("setup_ns", &setup,
                       "host ns preparing the cell (machine + output)");
        host.addScalar("run_ns", &run, "host ns executing the kernel");
        host.addScalar("readback_ns", &readback,
                       "host ns validating and accounting the result");
        reg.capture(host, label + ".host");
    }

    hw::HwCell cell = m.hwCell(result.cycles, result.breakdown);
    cell.machine = machineToken(result.machine);
    cell.kernel = kernelToken(result.kernel);
    return cell;
}

/**
 * Capture @p cell into the global HwRegistry. With a trace session
 * @p ts, each epoch channel first becomes the counter track
 * "<machine>/<kernel>.hw.<channel>": one sample per epoch, in
 * simulated-epoch order, spread evenly over the kernel's run window
 * [@p run_start_us, @p run_end_us] so Perfetto draws it under the
 * cell's span.
 */
void
captureHwCell(hw::HwCell cell, trace::TraceSession *ts,
              double run_start_us, double run_end_us)
{
    if (ts) {
        const std::size_t epochs = cell.timeline.epochs();
        const double step =
            epochs > 1 ? (run_end_us - run_start_us)
                             / static_cast<double>(epochs - 1)
                       : 0.0;
        for (const hw::EpochChannel &ch : cell.timeline.channels) {
            const std::string track =
                cell.machine + "/" + cell.kernel + ".hw." + ch.name;
            for (std::size_t e = 0; e < epochs; ++e) {
                ts->counterAt(track,
                              run_start_us
                                  + step * static_cast<double>(e),
                              static_cast<double>(ch.counts[e]));
            }
        }
    }
    hw::HwRegistry::global().capture(std::move(cell));
}

/** The buffer a kernel's output is read back into. */
template <KernelId Kernel>
using KernelOutput = std::conditional_t<
    Kernel == KernelId::CornerTurn, kernels::WordMatrix,
    std::conditional_t<Kernel == KernelId::Cslc, kernels::CslcOutput,
                       std::vector<std::int32_t>>>;

using Notes = std::vector<std::pair<std::string, double>>;

/** For cells the cycle account already explains. */
const auto noNotes = [](const auto &, const auto &) { return Notes{}; };

/**
 * Register one cell of the grid. The mapping constructs a fresh
 * Machine and output buffer, calls @p run (the kernel, returning its
 * cycles, or Raw CSLC's load-balance result), validates the output
 * against the kernel's reference (CSLC at radix @p algo), takes
 * @p notes from the machine and what @p run returned, accounts the
 * cycles, and captures the machine's stats. The setup / run /
 * readback host-time split brackets the kernel call.
 */
template <typename Machine, KernelId Kernel, typename Run,
          typename NotesFn>
void
cell(MappingRegistry &r, MachineId machine, Run run, NotesFn notes,
     kernels::FftAlgo algo = kernels::FftAlgo::Radix2)
{
    r.add(machine, Kernel,
          [=](const StudyConfig &cfg, const Workloads &work) {
              RunResult result;
              result.machine = machine;
              result.kernel = Kernel;
              trace::TraceSession *ts = trace::TraceSession::active();
              double runUs = 0.0, ranUs = 0.0;
              // The machine and its output are freed before the
              // counter tracks grow the trace buffer, so the two never
              // add up in the peak RSS.
              hw::HwCell hwCell = [&] {
                  host::PhaseSplit split;
                  Machine m;
                  KernelOutput<Kernel> out;
                  split.startRun();
                  runUs = ts ? ts->nowUs() : 0.0;
                  const auto ran = run(m, cfg, work, out);
                  ranUs = ts ? ts->nowUs() : 0.0;
                  split.startReadback();
                  if constexpr (std::is_same_v<
                                    std::decay_t<decltype(ran)>,
                                    raw::RawCslcResult>) {
                      // Report the paper's load-balance
                      // extrapolation; the account rescales the
                      // measured wall clock.
                      result.cycles = ran.balancedCycles;
                      result.measuredUnbalanced = ran.cycles;
                  } else {
                      result.cycles = ran;
                  }
                  result.notes = notes(m, ran);
                  if constexpr (Kernel == KernelId::CornerTurn)
                      result.validated =
                          kernels::isTransposeOf(work.matrix, out);
                  else if constexpr (Kernel == KernelId::Cslc)
                      result.validated =
                          cslcOutputValid(cfg, work, out, algo);
                  else
                      result.validated = out == work.beamRef;
                  result.breakdown = m.cycleBreakdown(result.cycles);
                  return captureCell(m, result, split.finish());
              }();
              captureHwCell(std::move(hwCell), ts, runUs, ranUs);
              return result;
          });
}

MappingRegistry
buildBuiltin()
{
    using imagine::ImagineMachine;
    using kernels::CslcOutput;
    using kernels::WordMatrix;
    using ppc::PpcMachine;
    using raw::RawMachine;
    using viram::ViramMachine;
    using Beams = std::vector<std::int32_t>;
    constexpr KernelId CT = KernelId::CornerTurn;
    constexpr KernelId CSLC = KernelId::Cslc;
    constexpr KernelId BS = KernelId::BeamSteering;

    MappingRegistry r;

    // PowerPC G4: scalar and AltiVec share the mapping bodies; the
    // AltiVec flag selects the vectorized code paths.
    for (const bool altivec : {false, true}) {
        const MachineId id =
            altivec ? MachineId::PpcAltivec : MachineId::PpcScalar;
        cell<PpcMachine, CT>(
            r, id,
            [altivec](PpcMachine &m, const StudyConfig &,
                      const Workloads &work, WordMatrix &dst) {
                return ppc::cornerTurnPpc(m, work.matrix, dst, altivec);
            },
            [](const PpcMachine &m, Cycles cycles) {
                return Notes{{"ppc.mem_stall_fraction",
                              static_cast<double>(m.memStallCycles())
                                  / cycles}};
            });
        cell<PpcMachine, CSLC>(
            r, id,
            [altivec](PpcMachine &m, const StudyConfig &cfg,
                      const Workloads &work, CslcOutput &out) {
                return ppc::cslcPpc(m, cfg.cslc, work.cslcIn,
                                    work.weights, out, altivec);
            },
            noNotes);
        cell<PpcMachine, BS>(
            r, id,
            [altivec](PpcMachine &m, const StudyConfig &cfg,
                      const Workloads &work, Beams &out) {
                return ppc::beamSteeringPpc(m, cfg.beam, work.tables,
                                            out, altivec);
            },
            noNotes);
    }

    // Berkeley VIRAM (processor-in-memory vector machine).
    cell<ViramMachine, CT>(
        r, MachineId::Viram,
        [](ViramMachine &m, const StudyConfig &, const Workloads &work,
           WordMatrix &dst) {
            return viram::cornerTurnViram(m, work.matrix, dst);
        },
        [](const ViramMachine &m, Cycles cycles) {
            return Notes{{"viram.row_overhead_fraction",
                          static_cast<double>(m.rowOverheadCycles())
                              / cycles},
                         {"viram.tlb_overhead_fraction",
                          static_cast<double>(m.tlbOverheadCycles())
                              / cycles}};
        });
    cell<ViramMachine, CSLC>(
        r, MachineId::Viram,
        [](ViramMachine &m, const StudyConfig &cfg, const Workloads &work,
           CslcOutput &out) {
            return viram::cslcViram(m, cfg.cslc, work.cslcIn,
                                    work.weights, out);
        },
        [](const ViramMachine &m, Cycles) {
            return Notes{{"viram.shuffle_fraction",
                          static_cast<double>(m.permInstructions())
                              / m.vectorInstructions()}};
        });
    cell<ViramMachine, BS>(
        r, MachineId::Viram,
        [](ViramMachine &m, const StudyConfig &cfg, const Workloads &work,
           Beams &out) {
            return viram::beamSteeringViram(m, cfg.beam, work.tables,
                                            out);
        },
        [](const ViramMachine &m, Cycles cycles) {
            const double compute =
                static_cast<double>(m.vau0Busy() + m.vau1Busy()) / 2.0;
            return Notes{{"viram.compute_bound_fraction",
                          compute / cycles}};
        });

    // Stanford Imagine (stream processor).
    const auto memoryFraction = [](const ImagineMachine &m, Cycles) {
        return Notes{{"imagine.memory_fraction", m.memoryFraction()}};
    };
    cell<ImagineMachine, CT>(
        r, MachineId::Imagine,
        [](ImagineMachine &m, const StudyConfig &, const Workloads &work,
           WordMatrix &dst) {
            return imagine::cornerTurnImagine(m, work.matrix, dst);
        },
        memoryFraction);
    cell<ImagineMachine, CSLC>(
        r, MachineId::Imagine,
        [](ImagineMachine &m, const StudyConfig &cfg,
           const Workloads &work, CslcOutput &out) {
            return imagine::cslcImagine(m, cfg.cslc, work.cslcIn,
                                        work.weights, out);
        },
        [](const ImagineMachine &m, Cycles) {
            return Notes{{"imagine.alu_utilization", m.aluUtilization()}};
        },
        kernels::FftAlgo::Mixed128);
    cell<ImagineMachine, BS>(
        r, MachineId::Imagine,
        [](ImagineMachine &m, const StudyConfig &cfg,
           const Workloads &work, Beams &out) {
            return imagine::beamSteeringImagine(m, cfg.beam, work.tables,
                                                out);
        },
        memoryFraction);

    // MIT Raw (tiled processor).
    cell<RawMachine, CT>(
        r, MachineId::Raw,
        [](RawMachine &m, const StudyConfig &, const Workloads &work,
           WordMatrix &dst) {
            return raw::cornerTurnRaw(m, work.matrix, dst);
        },
        [](const RawMachine &m, Cycles cycles) {
            return Notes{{"raw.instr_per_cycle_per_tile",
                          static_cast<double>(m.instructions()) / cycles
                              / m.config().tiles()}};
        });
    cell<RawMachine, CSLC>(
        r, MachineId::Raw,
        [](RawMachine &m, const StudyConfig &cfg, const Workloads &work,
           CslcOutput &out) {
            return raw::cslcRaw(m, cfg.cslc, work.cslcIn, work.weights,
                                out);
        },
        [](const RawMachine &m, const raw::RawCslcResult &r2) {
            // Per tile-cycle of the measured (imbalanced) run.
            const double tileCycles =
                static_cast<double>(m.config().tiles()) * r2.cycles;
            return Notes{
                {"raw.idle_fraction", r2.idleFraction},
                {"raw.cache_stall_fraction",
                 static_cast<double>(m.cacheStallCycles()) / tileCycles},
                {"raw.ldst_fraction",
                 static_cast<double>(m.loadStores()) / tileCycles}};
        });
    cell<RawMachine, BS>(
        r, MachineId::Raw,
        [](RawMachine &m, const StudyConfig &cfg, const Workloads &work,
           Beams &out) {
            return raw::beamSteeringRaw(m, cfg.beam, work.tables, out);
        },
        [](const RawMachine &m, Cycles) {
            return Notes{{"raw.loads_stores",
                          static_cast<double>(m.loadStores())}};
        });

    return r;
}

} // namespace

const MappingRegistry &
MappingRegistry::builtin()
{
    static const MappingRegistry registry = buildBuiltin();
    return registry;
}

} // namespace triarch::study
