/**
 * @file
 * The paper's prose claims as gated data. Sections 2-4 back half of
 * their argument with numbers stated in words ("~21% precharge +
 * TLB", "about six"); each such statement, and each sweep behind one,
 * is a row: an id, the paper section and wording, the machines and
 * kernel it runs, and a measure() that returns one number. One rule,
 * bandFromWording(), turns the wording into the band the number is
 * held to.
 *
 * A row's paper-config half is the Table-3 cell itself (runner.run:
 * cached, and validated by the registry). Only mutated runs (ideal
 * DRAM, a wider network, a swept block size) call kernels directly,
 * on the runner's workloads, checked against its golden outputs; a
 * wrong output is fatal and names the row.
 */

#ifndef TRIARCH_STUDY_CLAIMS_HH
#define TRIARCH_STUDY_CLAIMS_HH

#include <any>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "study/parallel.hh"
#include "study/result_sink.hh"

namespace triarch::study
{

/** The range a claim is held to, in the row's display units. */
struct Band
{
    double lo = 0.0;
    double hi = 0.0;
    bool open = false;  //!< both ends exclusive

    bool contains(double v) const;
};

/**
 * "~v" or "about v" gives [0.75v, 1.25v], as does a bare figure the
 * paper measured on its own hardware; "a-b" (or "a–b") gives [a, b];
 * "<v" gives (0, v). Units after the number are ignored. nullopt
 * when the wording holds no number: the row is pinned only.
 */
std::optional<Band> bandFromWording(const std::string &wording);

enum class ClaimUnit { Percent, Ratio, CycleCount, CyclesPerWord };

/**
 * One claims run: the runner its rows read, and the mutated runs
 * (ideal DRAM, a wider network, a swept size) that several rows
 * share, each executed once in this run and dropped with it. Another
 * run, on the same config or not, executes them again; only the
 * runner's cache carries Table-3 cells over.
 */
class ClaimRun
{
  public:
    explicit ClaimRun(ParallelRunner &claim_runner) : runner(claim_runner) {}
    ClaimRun(const ClaimRun &) = delete;
    ClaimRun &operator=(const ClaimRun &) = delete;

    ParallelRunner &runner;

    const StudyConfig &config() const { return runner.config(); }
    const std::shared_ptr<const Workloads> &workloads() const
    {
        return runner.workloads();
    }

    /** What @p make() returns, made on this run's first call with
     *  @p key; a key always names values of one type. */
    template <typename F>
    const std::invoke_result_t<F> &
    once(const std::string &key, F make)
    {
        std::lock_guard lock(mu);
        auto it = memo.find(key);
        if (it == memo.end())
            it = memo.emplace(key, make()).first;
        return std::any_cast<const std::invoke_result_t<F> &>(it->second);
    }

  private:
    std::mutex mu;
    std::map<std::string, std::any> memo;
};

struct Claim
{
    std::string id;       //!< e.g. "viram.ct.precharge_tlb"
    std::string section;  //!< paper section, e.g. "4.2"
    std::string paper;    //!< the paper's wording; empty = no figure
    ClaimUnit unit;
    std::vector<MachineId> machines;
    std::optional<KernelId> kernel;
    std::function<double(ClaimRun &)> measure;
    /** Why the value sits outside its band; empty = in band. */
    std::string deviation = {};
};

/** Every row, in print order. */
const std::vector<Claim> &claims();

/** Run @p claim's measure() in @p run, naming it in any fatal
 *  error. */
double measureClaim(const Claim &claim, ClaimRun &run);

enum class ClaimStatus
{
    Pinned,          //!< no paper figure; only the test pins it
    InBand,
    KnownDeviation,  //!< outside its band, with a recorded reason
    OutOfBand,       //!< failure: a model regression
    StaleDeviation,  //!< failure: back in band, reason out of date
};

ClaimStatus claimStatus(const Claim &claim, double value);

/** @p value as printed: "24.2%", "1.49x", "519,037", "0.495". */
std::string formatClaimValue(const Claim &claim, double value);

/** Every machine the row runs is selected, and its kernel if any. */
bool claimSelected(const Claim &claim,
                   const std::vector<MachineId> &machines,
                   const std::vector<KernelId> &kernels);

/**
 * The bench/claims body: run the Table-3 cells behind the selected
 * rows concurrently (recorded in @p sink), measure the rows in one
 * ClaimRun and print
 * them (as CSV with @p csv), then each known deviation's reason.
 * Returns 1 if a row failed, 2 if the selection matches no row.
 */
int runClaims(ParallelRunner &runner,
              const std::vector<MachineId> &machines,
              const std::vector<KernelId> &kernels, bool csv,
              ResultSink &sink, std::ostream &os);

} // namespace triarch::study

#endif // TRIARCH_STUDY_CLAIMS_HH
