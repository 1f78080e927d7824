/**
 * @file
 * Radar pipeline demo: the full coherent side-lobe canceller
 * scenario from the paper, end to end — synthesize a jammed
 * four-channel interval, estimate cancellation weights, run the
 * timed CSLC kernel on a chosen architecture, and report both the
 * signal-processing outcome (jammer cancellation in dB) and the
 * architectural outcome (cycles, with the machine's explanatory
 * statistics).
 *
 *   $ ./radar_pipeline [viram|imagine|raw|ppc|altivec]
 */

#include <cmath>
#include <iostream>
#include <string>

#include "study/parallel.hh"
#include "study/report.hh"

using namespace triarch;
using namespace triarch::study;

namespace
{

MachineId
parseMachine(const std::string &name)
{
    if (name == "viram")
        return MachineId::Viram;
    if (name == "imagine")
        return MachineId::Imagine;
    if (name == "raw")
        return MachineId::Raw;
    if (name == "ppc")
        return MachineId::PpcScalar;
    if (name == "altivec")
        return MachineId::PpcAltivec;
    std::cerr << "unknown machine '" << name
              << "' (want viram|imagine|raw|ppc|altivec)\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    const MachineId machine =
        argc > 1 ? parseMachine(argv[1]) : MachineId::Imagine;

    // The paper's CSLC interval: 2 main + 2 aux channels, 8K complex
    // samples, 73 overlapping 128-point sub-bands. Three jammer
    // tones land across the band.
    StudyConfig cfg;
    std::cout << "CSLC radar pipeline on " << machineName(machine)
              << "\n  channels: " << cfg.cslc.mainChannels << " main + "
              << cfg.cslc.auxChannels << " aux, " << cfg.cslc.samples
              << " samples, " << cfg.cslc.subBands << " x "
              << cfg.cslc.subBandLen << "-point sub-bands\n"
              << "  jammer tones at interval bins 300, 1700, 4090\n\n";

    // Measure the jammer-dominated input power first.
    auto in = kernels::makeJammedInput(cfg.cslc, cfg.jammerBins,
                                       cfg.seed);
    double inputPower = 0.0;
    for (const auto &v : in.main[0])
        inputPower += std::norm(v);
    inputPower /= cfg.cslc.samples;
    std::cout << "main-channel input power (jammer + signal): "
              << Table::num(10.0 * std::log10(inputPower), 1)
              << " dB re unit signal\n";

    ParallelRunner runner(cfg, 1);
    auto result = runner.run(machine, KernelId::Cslc);

    // Re-derive the cancellation depth from the same workload.
    auto weights = kernels::estimateWeights(cfg.cslc, in);
    auto algo = machine == MachineId::Imagine
                    ? kernels::FftAlgo::Mixed128
                    : kernels::FftAlgo::Radix2;
    auto out = kernels::cslcReference(cfg.cslc, in, weights, algo);
    const double depth =
        kernels::cancellationDepthDb(cfg.cslc, in, out);

    std::cout << "jammer cancellation depth: " << Table::num(depth, 1)
              << " dB\n\n";
    std::cout << "kernel cycles: " << Table::num(result.cycles) << " ("
              << Table::num(result.milliseconds(), 3) << " ms at "
              << machineInfo(machine).clockMhz << " MHz)\n";
    std::cout << "output " << (result.validated ? "verified" : "WRONG")
              << " against the reference pipeline\n";
    if (result.measuredUnbalanced) {
        std::cout << "load-imbalanced wall clock: "
                  << Table::num(*result.measuredUnbalanced)
                  << " cycles (73 sub-bands on 16 tiles)\n";
    }
    for (const auto &[key, value] : result.notes)
        std::cout << "  " << key << " = " << Table::num(value, 3)
                  << "\n";
    return 0;
}
