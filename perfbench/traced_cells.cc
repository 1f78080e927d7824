#include "traced_cells.hh"

#include <optional>
#include <type_traits>

#include "imagine/kernels_imagine.hh"
#include "ppc/kernels_ppc.hh"
#include "raw/kernels_raw.hh"
#include "sim/hw_report.hh"
#include "sim/metrics.hh"
#include "viram/kernels_viram.hh"

namespace perfbench
{

using namespace triarch;
using study::KernelId;
using study::MachineId;
using study::RunResult;
using study::StudyConfig;
using study::Workloads;

const std::string &
machineLayer(MachineId machine)
{
    return study::machineToken(machine);
}

namespace
{

/** Span and count names of one cell, built once per registry. */
struct CellNames
{
    std::string layer, cell, construct, run, validate, account, capture,
        count, destroy, mem;

    CellNames(MachineId machine, KernelId kernel)
        : layer(machineLayer(machine)),
          cell(layer + "." + study::kernelToken(kernel)),
          construct(cell + ".construct"), run(cell + ".run"),
          validate(study::kernelToken(kernel) + ".validate"),
          account(cell + ".account"), capture(cell + ".capture"),
          count(cell + ".count"), destroy(cell + ".destroy"),
          mem("mem." + cell)
    {
    }
};

/** What the built-in mapping captures for a cell: the machine's stat
 *  groups into the MetricsRegistry, its hw cell into the HwRegistry. */
template <typename Machine>
void
capture(Machine &m, const RunResult &result, const std::string &label)
{
    auto &reg = metrics::MetricsRegistry::global();
    reg.capture(m.statGroup(), label);
    for (auto &[suffix, group] : m.componentGroups())
        reg.capture(*group, label + "." + suffix);
    hw::HwCell cell = m.hwCell(result.cycles, result.breakdown);
    cell.machine = study::machineToken(result.machine);
    cell.kernel = study::kernelToken(result.kernel);
    hw::HwRegistry::global().capture(std::move(cell));
}

/** Accesses and misses over the machine's component groups: caches
 *  and TLBs count hits + misses, DRAM channels row segments and row
 *  misses. Bandwidth ports count words, not accesses, and are left
 *  out. */
template <typename Machine>
void
countMemory(SpanRecorder &rec, Machine &m, const CellNames &names)
{
    std::uint64_t accesses = 0, misses = 0;
    for (auto &[suffix, group] : m.componentGroups()) {
        (void)suffix;
        if (group->hasScalar("hits") && group->hasScalar("misses")) {
            accesses += group->scalar("hits") + group->scalar("misses");
            misses += group->scalar("misses");
        } else if (group->hasScalar("accesses")) {
            accesses += group->scalar("accesses");
            misses += group->scalar("row_misses");
        }
    }
    rec.count(names.mem + ".accesses", accesses);
    rec.count(names.mem + ".misses", misses);
}

/**
 * One traced cell. @p run calls the kernel, sets result.cycles (and
 * any extra result fields) and returns the cycles the model actually
 * simulated; @p valid checks the output against the reference.
 */
template <typename Machine, typename Out, typename Run, typename Valid>
study::KernelMapping
tracedCell(SpanRecorder &rec, MachineId machine, KernelId kernel, Run run,
           Valid valid)
{
    return [&rec, machine, kernel, run, valid,
            names = CellNames(machine, kernel)](const StudyConfig &cfg,
                                                const Workloads &work) {
        SpanScope cellSpan(&rec, names.cell, names.layer);
        RunResult result;
        result.machine = machine;
        result.kernel = kernel;
        std::optional<Machine> m;
        std::optional<Out> out;
        {
            SpanScope s(&rec, names.construct, names.layer);
            m.emplace();
            out.emplace();
        }
        Cycles simulated = 0;
        {
            SpanScope s(&rec, names.run, names.layer);
            simulated = run(*m, cfg, work, *out, result);
        }
        {
            SpanScope s(&rec, names.validate, "kernels");
            result.validated = valid(cfg, work, *out);
        }
        {
            SpanScope s(&rec, names.account, names.layer);
            result.breakdown = m->cycleBreakdown(result.cycles);
        }
        {
            SpanScope s(&rec, names.capture, "sim");
            capture(*m, result, names.cell);
        }
        {
            SpanScope s(&rec, names.count, "perfbench");
            rec.count(names.cell + ".sim_cycles", simulated);
            if constexpr (std::is_same_v<Machine, raw::RawMachine>)
                rec.count(names.cell + ".instrs", m->instructions());
            countMemory(rec, *m, names);
        }
        {
            SpanScope s(&rec, names.destroy, names.layer);
            m.reset();
            out.reset();
        }
        return result;
    };
}

bool
transposed(const StudyConfig &, const Workloads &work,
           const kernels::WordMatrix &dst)
{
    return kernels::isTransposeOf(work.matrix, dst);
}

bool
beamMatches(const StudyConfig &, const Workloads &work,
            const std::vector<std::int32_t> &out)
{
    return out == work.beamRef;
}

template <kernels::FftAlgo Algo>
bool
cslcMatches(const StudyConfig &cfg, const Workloads &work,
            const kernels::CslcOutput &out)
{
    return study::cslcOutputValid(cfg, work, out, Algo);
}

void
addPpc(study::MappingRegistry &r, SpanRecorder &rec, MachineId id,
       bool altivec)
{
    using M = ppc::PpcMachine;
    r.add(id, KernelId::CornerTurn,
          tracedCell<M, kernels::WordMatrix>(
              rec, id, KernelId::CornerTurn,
              [altivec](M &m, const StudyConfig &, const Workloads &work,
                        kernels::WordMatrix &dst, RunResult &res) {
                  res.cycles =
                      ppc::cornerTurnPpc(m, work.matrix, dst, altivec);
                  return res.cycles;
              },
              transposed));
    r.add(id, KernelId::Cslc,
          tracedCell<M, kernels::CslcOutput>(
              rec, id, KernelId::Cslc,
              [altivec](M &m, const StudyConfig &cfg,
                        const Workloads &work, kernels::CslcOutput &out,
                        RunResult &res) {
                  res.cycles = ppc::cslcPpc(m, cfg.cslc, work.cslcIn,
                                            work.weights, out, altivec);
                  return res.cycles;
              },
              cslcMatches<kernels::FftAlgo::Radix2>));
    r.add(id, KernelId::BeamSteering,
          tracedCell<M, std::vector<std::int32_t>>(
              rec, id, KernelId::BeamSteering,
              [altivec](M &m, const StudyConfig &cfg,
                        const Workloads &work,
                        std::vector<std::int32_t> &out, RunResult &res) {
                  res.cycles = ppc::beamSteeringPpc(m, cfg.beam,
                                                    work.tables, out,
                                                    altivec);
                  return res.cycles;
              },
              beamMatches));
}

void
addViram(study::MappingRegistry &r, SpanRecorder &rec)
{
    using M = viram::ViramMachine;
    const MachineId id = MachineId::Viram;
    r.add(id, KernelId::CornerTurn,
          tracedCell<M, kernels::WordMatrix>(
              rec, id, KernelId::CornerTurn,
              [](M &m, const StudyConfig &, const Workloads &work,
                 kernels::WordMatrix &dst, RunResult &res) {
                  res.cycles = viram::cornerTurnViram(m, work.matrix, dst);
                  return res.cycles;
              },
              transposed));
    r.add(id, KernelId::Cslc,
          tracedCell<M, kernels::CslcOutput>(
              rec, id, KernelId::Cslc,
              [](M &m, const StudyConfig &cfg, const Workloads &work,
                 kernels::CslcOutput &out, RunResult &res) {
                  res.cycles = viram::cslcViram(m, cfg.cslc, work.cslcIn,
                                                work.weights, out);
                  return res.cycles;
              },
              cslcMatches<kernels::FftAlgo::Radix2>));
    r.add(id, KernelId::BeamSteering,
          tracedCell<M, std::vector<std::int32_t>>(
              rec, id, KernelId::BeamSteering,
              [](M &m, const StudyConfig &cfg, const Workloads &work,
                 std::vector<std::int32_t> &out, RunResult &res) {
                  res.cycles = viram::beamSteeringViram(m, cfg.beam,
                                                        work.tables, out);
                  return res.cycles;
              },
              beamMatches));
}

void
addImagine(study::MappingRegistry &r, SpanRecorder &rec)
{
    using M = imagine::ImagineMachine;
    const MachineId id = MachineId::Imagine;
    r.add(id, KernelId::CornerTurn,
          tracedCell<M, kernels::WordMatrix>(
              rec, id, KernelId::CornerTurn,
              [](M &m, const StudyConfig &, const Workloads &work,
                 kernels::WordMatrix &dst, RunResult &res) {
                  res.cycles =
                      imagine::cornerTurnImagine(m, work.matrix, dst);
                  return res.cycles;
              },
              transposed));
    r.add(id, KernelId::Cslc,
          tracedCell<M, kernels::CslcOutput>(
              rec, id, KernelId::Cslc,
              [](M &m, const StudyConfig &cfg, const Workloads &work,
                 kernels::CslcOutput &out, RunResult &res) {
                  res.cycles = imagine::cslcImagine(
                      m, cfg.cslc, work.cslcIn, work.weights, out);
                  return res.cycles;
              },
              cslcMatches<kernels::FftAlgo::Mixed128>));
    r.add(id, KernelId::BeamSteering,
          tracedCell<M, std::vector<std::int32_t>>(
              rec, id, KernelId::BeamSteering,
              [](M &m, const StudyConfig &cfg, const Workloads &work,
                 std::vector<std::int32_t> &out, RunResult &res) {
                  res.cycles = imagine::beamSteeringImagine(
                      m, cfg.beam, work.tables, out);
                  return res.cycles;
              },
              beamMatches));
}

void
addRaw(study::MappingRegistry &r, SpanRecorder &rec)
{
    using M = raw::RawMachine;
    const MachineId id = MachineId::Raw;
    r.add(id, KernelId::CornerTurn,
          tracedCell<M, kernels::WordMatrix>(
              rec, id, KernelId::CornerTurn,
              [](M &m, const StudyConfig &, const Workloads &work,
                 kernels::WordMatrix &dst, RunResult &res) {
                  res.cycles = raw::cornerTurnRaw(m, work.matrix, dst);
                  return res.cycles;
              },
              transposed));
    r.add(id, KernelId::Cslc,
          tracedCell<M, kernels::CslcOutput>(
              rec, id, KernelId::Cslc,
              [](M &m, const StudyConfig &cfg, const Workloads &work,
                 kernels::CslcOutput &out, RunResult &res) {
                  const raw::RawCslcResult r2 = raw::cslcRaw(
                      m, cfg.cslc, work.cslcIn, work.weights, out);
                  // Reported cycles are the load-balanced
                  // extrapolation; the model simulated r2.cycles.
                  res.cycles = r2.balancedCycles;
                  res.measuredUnbalanced = r2.cycles;
                  return r2.cycles;
              },
              cslcMatches<kernels::FftAlgo::Radix2>));
    r.add(id, KernelId::BeamSteering,
          tracedCell<M, std::vector<std::int32_t>>(
              rec, id, KernelId::BeamSteering,
              [](M &m, const StudyConfig &cfg, const Workloads &work,
                 std::vector<std::int32_t> &out, RunResult &res) {
                  res.cycles =
                      raw::beamSteeringRaw(m, cfg.beam, work.tables, out);
                  return res.cycles;
              },
              beamMatches));
}

} // namespace

study::MappingRegistry
tracedRegistry(SpanRecorder &rec)
{
    study::MappingRegistry r;
    addPpc(r, rec, MachineId::PpcScalar, false);
    addPpc(r, rec, MachineId::PpcAltivec, true);
    addViram(r, rec);
    addImagine(r, rec);
    addRaw(r, rec);
    return r;
}

} // namespace perfbench
