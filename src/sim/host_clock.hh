/**
 * @file
 * Host-time measurement: where does *wall-clock* time go, as opposed
 * to the simulated cycles the rest of sim/ accounts for. Three
 * pieces:
 *
 *  - HostTimer / nowNs(): a steady-clock stopwatch with nanosecond
 *    reads, the one clock every host-time instrumentation site uses;
 *  - RepeatedMeasurement (measureRepeated + summarizeSamples): the
 *    measurement contract from ROADMAP item 2 — configurable warmup
 *    iterations, 30+ repetitions, min/median/P95/stddev summary,
 *    optional core pinning via sched_setaffinity, and peak-RSS
 *    sampling — so every reported host number is a robust statistic,
 *    never a single noisy sample;
 *  - a process-wide profiling gate (setProfiling/profilingEnabled)
 *    and the HostPhases/PhaseSplit helpers behind the coarse
 *    setup/run/readback split every machine model records.
 *
 * The gate matters for determinism: triarch.stats.v1 documents are
 * bit-identical across thread counts *because* they carry only
 * simulated counts. Host-time histograms are therefore recorded only
 * while profiling is enabled (--host-stats), and an empty
 * histogram is invisible in every rendering, so profiling-off output
 * stays byte-identical to the pre-host-clock repo.
 */

#ifndef TRIARCH_SIM_HOST_CLOCK_HH
#define TRIARCH_SIM_HOST_CLOCK_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/stats.hh"

namespace triarch::host
{

/** Turn host-time profiling on or off process-wide. */
void setProfiling(bool on);

/** The compiled-in fast path at every sample site: one relaxed
 *  atomic load. */
bool profilingEnabled();

/** Monotonic nanoseconds (steady clock, arbitrary epoch). */
std::uint64_t nowNs();

/** A steady-clock stopwatch. */
class HostTimer
{
  public:
    HostTimer() : startNs(nowNs()) {}

    void reset() { startNs = nowNs(); }

    /** Nanoseconds since construction or the last reset(). */
    std::uint64_t ns() const { return nowNs() - startNs; }

    double us() const { return static_cast<double>(ns()) / 1e3; }
    double ms() const { return static_cast<double>(ns()) / 1e6; }

  private:
    std::uint64_t startNs;
};

/** Robust summary of repeated wall-clock samples (nanoseconds). */
struct MeasurementStats
{
    std::uint64_t repetitions = 0;
    double minNs = 0.0;
    double maxNs = 0.0;
    double meanNs = 0.0;
    double medianNs = 0.0;
    double p95Ns = 0.0;
    double stddevNs = 0.0;

    friend bool operator==(const MeasurementStats &,
                           const MeasurementStats &) = default;
};

/**
 * Order statistics over @p samples_ns (copied and sorted): median
 * and P95 by linear interpolation between order statistics, stddev
 * as the population standard deviation. Empty input yields zeros.
 */
MeasurementStats summarizeSamples(std::vector<double> samples_ns);

/** The measurement contract's knobs. */
struct MeasureOptions
{
    unsigned warmup = 3;          //!< unmeasured priming iterations
    unsigned repetitions = 30;    //!< measured iterations (min 1)
    int pinCpu = -1;              //!< >= 0: pin the thread to this core
};

/** One repeated measurement: statistics plus run metadata. */
struct Measurement
{
    MeasurementStats stats;
    bool pinned = false;          //!< pin requested and it succeeded
    std::size_t peakRssBytes = 0; //!< process peak RSS after the run
};

/**
 * Run @p fn opts.warmup times unmeasured, then opts.repetitions
 * times with one HostTimer sample each, and summarize. When
 * opts.pinCpu >= 0 the calling thread is pinned first (best effort;
 * Measurement::pinned reports whether it took).
 */
Measurement measureRepeated(const MeasureOptions &opts,
                            const std::function<void()> &fn);

/** Pin the calling thread to @p cpu; false when unsupported or the
 *  core does not exist. */
bool pinToCpu(int cpu);

/** Peak resident set size of this process in bytes (0 if unknown). */
std::size_t peakRssBytes();

/**
 * The coarse setup/run/readback host-time split every machine model
 * carries in its StatGroup: three log-bucketed histograms fed once
 * per cell by the registry mappings (via PhaseSplit).
 */
struct HostPhases
{
    stats::Histogram setupNs;
    stats::Histogram runNs;
    stats::Histogram readbackNs;

    /** Register the three histograms (host_setup_ns / host_run_ns /
     *  host_readback_ns) in @p group. */
    void addTo(stats::StatGroup &group);
};

/**
 * Phase marker for one cell execution: setup runs from construction
 * to startRun(), the kernel from startRun() to startReadback(), and
 * readback from startReadback() to record(). When profiling is off
 * every call is a no-op (construction is one atomic load).
 */
class PhaseSplit
{
  public:
    PhaseSplit();

    void startRun();
    void startReadback();

    /** Sample all three phase durations into @p phases. */
    void record(HostPhases &phases);

  private:
    bool on;
    std::uint64_t setupStartNs = 0;
    std::uint64_t runStartNs = 0;
    std::uint64_t readbackStartNs = 0;
};

} // namespace triarch::host

#endif // TRIARCH_SIM_HOST_CLOCK_HH
