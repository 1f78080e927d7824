#include "parallel.hh"

#include <atomic>
#include <string>
#include <thread>

#include "sim/host_clock.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "study/machine_info.hh"
#include "study/registry.hh"

namespace triarch::study
{

std::vector<Cell>
allCells()
{
    return selectCells({}, {});
}

std::vector<Cell>
selectCells(const std::vector<MachineId> &machines,
            const std::vector<KernelId> &kernels)
{
    const auto &ms = machines.empty() ? allMachines() : machines;
    const auto &ks = kernels.empty() ? allKernels() : kernels;
    std::vector<Cell> cells;
    cells.reserve(ms.size() * ks.size());
    for (MachineId machine : ms) {
        for (KernelId kernel : ks)
            cells.push_back({machine, kernel});
    }
    return cells;
}

ParallelRunner::ParallelRunner(StudyConfig run_config,
                               unsigned num_threads,
                               const MappingRegistry *mappings,
                               ResultCache *cache)
    : cfg(std::move(run_config)),
      cfgHash(studyConfigHash(cfg)),
      nthreads(num_threads),
      mappings(mappings ? mappings : &MappingRegistry::builtin()),
      cache(cache),
      work(buildWorkloads(cfg)),
      hostOn(host::profilingEnabled())
{
    schedGroup.addAtomicScalar("batches", &nBatches,
                               "cell batches submitted");
    schedGroup.addAtomicScalar("cells_run", &nCellsRun,
                               "cells executed by workers");
    schedGroup.addAtomicScalar("cells_cached", &nCellsCached,
                               "cells served from the result cache");
    if (hostOn) {
        schedGroup.addAtomicScalar("cell_host_ns", &cellHostNs,
                                   "host ns in executed cell mappings");
        schedGroup.addAtomicScalar("queue_wait_ns", &queueWaitNs,
                                   "host ns cells waited for a worker");
    }
}

ParallelRunner::~ParallelRunner()
{
    // Keep the final counts visible in --stats documents written
    // after the runner is gone.
    metrics::MetricsRegistry::global().capture(schedGroup,
                                               "scheduler");
}

RunResult
ParallelRunner::run(MachineId machine, KernelId kernel)
{
    return runCells({{machine, kernel}}).front();
}

std::vector<RunResult>
ParallelRunner::runAll()
{
    return runCells(allCells());
}

std::vector<RunResult>
ParallelRunner::runCells(const std::vector<Cell> &cells)
{
    std::vector<RunResult> results(cells.size());

    // Grab the session once so every event in this batch goes to the
    // same place even if tracing stops mid-batch.
    trace::TraceSession *ts = trace::TraceSession::active();
    const double batchStartUs = ts ? ts->nowUs() : 0.0;
    // Host totals use their own clock so queue_wait survives in
    // --stats documents even when no trace session is attached.
    const std::uint64_t batchStartNs = hostOn ? host::nowNs() : 0;
    ++nBatches;

    auto cellLabel = [](const Cell &cell) {
        return machineToken(cell.machine) + "/"
               + kernelToken(cell.kernel);
    };

    // Serve what the cache already has; queue the rest with its
    // mapping, resolved here so an unmapped pair dies on the caller.
    struct Pending
    {
        std::size_t slot;
        const KernelMapping *mapping;
    };
    std::vector<Pending> pending;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cache) {
            const double lookupUs = ts ? ts->nowUs() : 0.0;
            if (auto hit = cache->get(cells[i].machine,
                                      cells[i].kernel, cfgHash)) {
                results[i] = std::move(*hit);
                ++nCellsCached;
                if (ts) {
                    ts->span(cellLabel(cells[i]), "cell", lookupUs,
                             ts->nowUs() - lookupUs,
                             {{"cached", 1.0}});
                }
                continue;
            }
        }
        pending.push_back(
            {i, &mappings->at(cells[i].machine, cells[i].kernel)});
    }
    if (ts && cache) {
        ts->counter("cache.hits",
                    static_cast<double>(cache->hits()));
        ts->counter("cache.misses",
                    static_cast<double>(cache->misses()));
    }
    if (pending.empty())
        return results;

    // Each worker claims queue slots with an atomic ticket; results
    // land in the result slot of their cell, so the output order is
    // scheduling-independent. When tracing, each executed cell gets
    // a span on its worker's lane from the moment the ticket was
    // claimed, carrying the queue wait as an arg and the raw mapping
    // execution as a nested "execute" span.
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t ticket =
                next.fetch_add(1, std::memory_order_relaxed);
            if (ticket >= pending.size())
                return;
            const std::size_t slot = pending[ticket].slot;
            const Cell &cell = cells[slot];
            const double pickUs = ts ? ts->nowUs() : 0.0;
            const std::uint64_t pickNs = hostOn ? host::nowNs() : 0;
            const double execUs = ts ? ts->nowUs() : 0.0;
            RunResult result = (*pending[ticket].mapping)(cfg, *work);
            if (hostOn) {
                const std::uint64_t doneNs = host::nowNs();
                cellHostNs += doneNs - pickNs;
                queueWaitNs += pickNs - batchStartNs;
            }
            if (ts) {
                ts->span("execute", "cell", execUs,
                         ts->nowUs() - execUs);
            }
            if (cache)
                cache->put(result, cfgHash);
            results[slot] = std::move(result);
            ++nCellsRun;
            if (ts) {
                ts->span(cellLabel(cell), "cell", pickUs,
                         ts->nowUs() - pickUs,
                         {{"queue_wait_us", pickUs - batchStartUs}});
                ts->counter(
                    "scheduler.cells_done",
                    static_cast<double>(nCellsRun.value()
                                        + nCellsCached.value()));
            }
        }
    };

    unsigned n = nthreads;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 4;
    }
    if (n > pending.size())
        n = static_cast<unsigned>(pending.size());

    if (n <= 1) {
        worker();
        return results;
    }

    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t) {
        pool.emplace_back([&, t]() {
            if (ts)
                ts->nameThread("worker-" + std::to_string(t));
            worker();
        });
    }
    for (std::thread &t : pool)
        t.join();
    return results;
}

} // namespace triarch::study
