#include "report.hh"

#include <cmath>

#include "sim/logging.hh"

namespace triarch::study
{

const RunResult &
findResult(const std::vector<RunResult> &results, MachineId machine,
           KernelId kernel)
{
    for (const auto &r : results) {
        if (r.machine == machine && r.kernel == kernel)
            return r;
    }
    triarch_panic("missing result for ", machineName(machine), " / ",
                  kernelName(kernel));
}

Table
buildTable1()
{
    Table t("Table 1. Peak throughput (32-bit words per cycle)");
    std::vector<std::string> head = {""};
    for (MachineId id : researchMachines())
        head.push_back(machineName(id));
    t.header(head);

    auto row = [&](const std::string &label, auto get) {
        std::vector<std::string> cells = {label};
        for (MachineId id : researchMachines()) {
            const auto &info = machineInfo(id);
            cells.push_back(get(info));
        }
        t.row(cells);
    };
    row("On-chip Read/Write", [](const MachineInfo &info) {
        std::string s = Table::num(info.onchipWordsPerCycle, 0);
        if (!info.onchipNote.empty())
            s += " (" + info.onchipNote + ")";
        return s;
    });
    row("Off-chip DRAM Read/Write", [](const MachineInfo &info) {
        std::string s = Table::num(info.offchipWordsPerCycle, 0);
        if (!info.offchipNote.empty())
            s += " (" + info.offchipNote + ")";
        return s;
    });
    row("Computation", [](const MachineInfo &info) {
        return Table::num(info.computeWordsPerCycle, 0);
    });
    return t;
}

Table
buildTable2()
{
    Table t("Table 2. Processor Parameters");
    std::vector<MachineId> cols = {MachineId::PpcScalar,
                                   MachineId::Viram, MachineId::Imagine,
                                   MachineId::Raw};
    std::vector<std::string> head = {""};
    for (MachineId id : cols) {
        head.push_back(id == MachineId::PpcScalar
                           ? "PPC G4"
                           : machineName(id));
    }
    t.header(head);

    std::vector<std::string> clock = {"Clock (MHz)"};
    std::vector<std::string> alus = {"# of ALUs"};
    std::vector<std::string> gflops = {"Peak GFLOPS"};
    for (MachineId id : cols) {
        const auto &info = machineInfo(id);
        clock.push_back(Table::num(std::uint64_t{info.clockMhz}));
        alus.push_back(std::to_string(info.numAlus));
        gflops.push_back(Table::num(info.peakGflops, 2));
    }
    t.row(clock);
    t.row(alus);
    t.row(gflops);
    return t;
}

Table
buildTable3(const std::vector<RunResult> &results,
            const std::vector<MachineId> &machines,
            const std::vector<KernelId> &kernels)
{
    Table t("Table 3. Experimental results (cycles in 10^3)");
    std::vector<std::string> head = {""};
    for (KernelId k : kernels)
        head.push_back(kernelName(k));
    t.header(head);

    for (MachineId machine : machines) {
        std::vector<std::string> cells = {machineName(machine)};
        for (KernelId kernel : kernels) {
            const auto &r = findResult(results, machine, kernel);
            triarch_assert(r.validated, machineName(machine), " ",
                           kernelName(kernel),
                           " produced an invalid result");
            cells.push_back(Table::num(r.cycles / 1000));
        }
        t.row(cells);
    }
    return t;
}

Table
buildTable4(const StudyConfig &cfg,
            const std::vector<RunResult> &results)
{
    Table t("Table 4. Performance-model bounds vs measured cycles "
            "(10^3)");
    t.header({"Machine", "Kernel", "Model bound", "Measured",
              "Bound/Measured", "Binding resource"});

    for (MachineId machine : allMachines()) {
        for (KernelId kernel : allKernels()) {
            Bound bound;
            switch (kernel) {
              case KernelId::CornerTurn:
                bound = cornerTurnBound(machine, cfg.matrixSize);
                break;
              case KernelId::Cslc:
                bound = cslcBound(machine, cfg.cslc);
                break;
              case KernelId::BeamSteering:
                bound = beamSteeringBound(machine, cfg.beam);
                break;
            }
            const auto &r = findResult(results, machine, kernel);
            t.row({machineName(machine), kernelName(kernel),
                   Table::num(bound.cycles / 1000),
                   Table::num(r.cycles / 1000),
                   Table::num(static_cast<double>(bound.cycles)
                                  / static_cast<double>(r.cycles),
                              2),
                   bound.resource});
        }
    }
    return t;
}

double
speedupVsAltivec(const std::vector<RunResult> &results,
                 MachineId machine, KernelId kernel, bool perTime)
{
    const auto &base =
        findResult(results, MachineId::PpcAltivec, kernel);
    const auto &r = findResult(results, machine, kernel);
    double speedup = static_cast<double>(base.cycles)
                     / static_cast<double>(r.cycles);
    if (perTime) {
        speedup *= static_cast<double>(machineInfo(machine).clockMhz)
                   / machineInfo(MachineId::PpcAltivec).clockMhz;
    }
    return speedup;
}

namespace
{

BarChart
buildSpeedupFigure(const std::vector<RunResult> &results,
                   const std::string &title, bool perTime)
{
    BarChart chart(title, true);
    std::vector<MachineId> bars = {MachineId::PpcScalar,
                                   MachineId::Viram, MachineId::Imagine,
                                   MachineId::Raw};
    for (KernelId kernel : allKernels()) {
        chart.group(kernelName(kernel));
        for (MachineId machine : bars) {
            chart.bar(machineName(machine),
                      speedupVsAltivec(results, machine, kernel,
                                       perTime));
        }
    }
    return chart;
}

} // namespace

BarChart
buildFigure8(const std::vector<RunResult> &results)
{
    return buildSpeedupFigure(
        results, "Figure 8. Speedup vs PPC with AltiVec (cycles)",
        false);
}

BarChart
buildFigure9(const std::vector<RunResult> &results)
{
    return buildSpeedupFigure(
        results,
        "Figure 9. Speedup vs PPC with AltiVec (execution time; "
        "PPC 1 GHz, VIRAM 200 MHz, Imagine 300 MHz, Raw 300 MHz)",
        true);
}

} // namespace triarch::study
