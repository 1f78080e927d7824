#include "host_clock.hh"

#include <algorithm>
#include <atomic>
#include <cmath>

#if defined(__linux__)
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "sim/logging.hh"

namespace triarch::host
{

namespace
{

std::atomic<bool> profilingOn{false};

} // namespace

void
setProfiling(bool on)
{
    profilingOn.store(on, std::memory_order_relaxed);
}

bool
profilingEnabled()
{
    return profilingOn.load(std::memory_order_relaxed);
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace
{

/** Linear-interpolated quantile of an already-sorted sample set. */
double
sortedQuantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    if (sorted.size() == 1)
        return sorted.front();
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto below = static_cast<std::size_t>(pos);
    if (below + 1 >= sorted.size())
        return sorted.back();
    const double frac = pos - static_cast<double>(below);
    return sorted[below] + (sorted[below + 1] - sorted[below]) * frac;
}

} // namespace

MeasurementStats
summarizeSamples(std::vector<double> samples_ns)
{
    MeasurementStats out;
    if (samples_ns.empty())
        return out;
    std::sort(samples_ns.begin(), samples_ns.end());
    out.repetitions = samples_ns.size();
    out.minNs = samples_ns.front();
    out.maxNs = samples_ns.back();
    double sum = 0.0;
    for (double v : samples_ns)
        sum += v;
    out.meanNs = sum / static_cast<double>(samples_ns.size());
    out.medianNs = sortedQuantile(samples_ns, 0.5);
    out.p95Ns = sortedQuantile(samples_ns, 0.95);
    double var = 0.0;
    for (double v : samples_ns)
        var += (v - out.meanNs) * (v - out.meanNs);
    out.stddevNs =
        std::sqrt(var / static_cast<double>(samples_ns.size()));
    return out;
}

bool
pinToCpu(int cpu)
{
    if (cpu < 0)
        return false;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(cpu), &set);
    return ::sched_setaffinity(0, sizeof(set), &set) == 0;
#else
    return false;
#endif
}

std::size_t
peakRssBytes()
{
#if defined(__linux__)
    rusage usage{};
    if (::getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    // ru_maxrss is kilobytes on Linux.
    return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#else
    return 0;
#endif
}

Measurement
measureRepeated(const MeasureOptions &opts,
                const std::function<void()> &fn)
{
    triarch_assert(fn != nullptr, "null measurement body");
    Measurement out;
    if (opts.pinCpu >= 0)
        out.pinned = pinToCpu(opts.pinCpu);

    for (unsigned i = 0; i < opts.warmup; ++i)
        fn();

    const unsigned reps = std::max(opts.repetitions, 1u);
    std::vector<double> samples;
    samples.reserve(reps);
    for (unsigned i = 0; i < reps; ++i) {
        HostTimer timer;
        fn();
        samples.push_back(static_cast<double>(timer.ns()));
    }
    out.stats = summarizeSamples(std::move(samples));
    out.peakRssBytes = peakRssBytes();
    return out;
}

PhaseSplit::PhaseSplit() : on(profilingEnabled())
{
    if (on)
        setupStartNs = nowNs();
}

void
PhaseSplit::startRun()
{
    if (on)
        runStartNs = nowNs();
}

void
PhaseSplit::startReadback()
{
    if (on)
        readbackStartNs = nowNs();
}

std::optional<PhaseNs>
PhaseSplit::finish() const
{
    if (!on)
        return std::nullopt;
    const std::uint64_t end = nowNs();
    // Unmarked phases get zero-length samples, not garbage: a
    // mapping that never called startReadback() simply charges
    // everything after startRun() to the run phase.
    const std::uint64_t runAt =
        std::max(runStartNs ? runStartNs : end, setupStartNs);
    const std::uint64_t backAt =
        std::max(readbackStartNs ? readbackStartNs : end, runAt);
    return PhaseNs{runAt - setupStartNs, backAt - runAt, end - backAt};
}

} // namespace triarch::host
