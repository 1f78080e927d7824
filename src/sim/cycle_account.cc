#include "cycle_account.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace triarch::stats
{

const std::array<CycleCategory, kNumCycleCategories> &
allCycleCategories()
{
    static const std::array<CycleCategory, kNumCycleCategories> all = {
        CycleCategory::Compute,       CycleCategory::CacheStall,
        CycleCategory::DramDma,       CycleCategory::NetworkSync,
        CycleCategory::SetupReadback,
    };
    return all;
}

const std::string &
cycleCategoryToken(CycleCategory c)
{
    static const std::array<std::string, kNumCycleCategories> tokens = {
        "compute", "cache_stall", "dram_dma", "network_sync",
        "setup_readback",
    };
    const auto i = static_cast<unsigned>(c);
    triarch_assert(i < kNumCycleCategories, "bad cycle category ", i);
    return tokens[i];
}

const std::string &
cycleCategoryDesc(CycleCategory c)
{
    static const std::array<std::string, kNumCycleCategories> descs = {
        "issue/compute cycles (incl. dependency latency)",
        "cycles stalled on cache misses",
        "DRAM access / DMA or stream transfer cycles",
        "network waits, load-imbalance and sync idle",
        "host issue, setup and readback overhead",
    };
    const auto i = static_cast<unsigned>(c);
    triarch_assert(i < kNumCycleCategories, "bad cycle category ", i);
    return descs[i];
}

std::uint64_t
CycleBreakdown::categorySum() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t c : cycles)
        sum += c;
    return sum;
}

double
CycleBreakdown::fraction(CycleCategory c) const
{
    return total ? static_cast<double>((*this)[c])
                       / static_cast<double>(total)
                 : 0.0;
}

void
CycleAccount::negativeCharge(CycleCategory c, double cycles)
{
    triarch_panic("negative cycle charge ", cycles, " to ",
                  cycleCategoryToken(c));
}

double
CycleAccount::charged(CycleCategory c) const
{
    return acc[static_cast<unsigned>(c)];
}

double
CycleAccount::chargedTotal() const
{
    double sum = 0.0;
    for (double a : acc)
        sum += a;
    return sum;
}

void
CycleAccount::reset()
{
    acc.fill(0.0);
}

namespace
{

/**
 * Turn non-negative per-category quotas (summing to ~total) into an
 * integer partition summing exactly to @p total: floor each, then
 * distribute the leftover cycles by largest fractional remainder
 * (ties broken by category order for determinism).
 */
CycleBreakdown
integerize(const std::array<double, kNumCycleCategories> &quota,
           std::uint64_t total)
{
    CycleBreakdown b;
    b.total = total;

    std::uint64_t assigned = 0;
    std::array<double, kNumCycleCategories> frac{};
    for (unsigned i = 0; i < kNumCycleCategories; ++i) {
        const double q = std::max(0.0, quota[i]);
        const auto whole = static_cast<std::uint64_t>(q);
        b.cycles[i] = whole;
        frac[i] = q - static_cast<double>(whole);
        assigned += whole;
    }
    // Floating-point error can overshoot by a cycle or two; trim from
    // the largest categories first.
    while (assigned > total) {
        const auto largest = static_cast<unsigned>(
            std::max_element(b.cycles.begin(), b.cycles.end())
            - b.cycles.begin());
        triarch_assert(b.cycles[largest] > 0,
                       "cycle integerization underflow");
        --b.cycles[largest];
        --assigned;
    }
    while (assigned < total) {
        unsigned pick = 0;
        for (unsigned i = 1; i < kNumCycleCategories; ++i) {
            if (frac[i] > frac[pick])
                pick = i;
        }
        ++b.cycles[pick];
        frac[pick] = -1.0;
        ++assigned;
    }
    triarch_assert(b.categorySum() == b.total,
                   "cycle breakdown does not sum to total");
    return b;
}

} // namespace

CycleBreakdown
CycleAccount::finalize(std::uint64_t total, CycleCategory residual) const
{
    const double charged = chargedTotal();
    const double slack =
        std::max(2.0, 1e-6 * static_cast<double>(total));
    triarch_assert(charged <= static_cast<double>(total) + slack,
                   "cycle account over-attributed: charged ", charged,
                   " of ", total, " total cycles");

    std::array<double, kNumCycleCategories> quota = acc;
    const double leftover = static_cast<double>(total) - charged;
    if (leftover > 0.0)
        quota[static_cast<unsigned>(residual)] += leftover;
    return integerize(quota, total);
}

CycleBreakdown
CycleAccount::finalizeScaled(std::uint64_t total) const
{
    const double charged = chargedTotal();
    if (charged <= 0.0 || total == 0)
        return integerize({}, total);
    const double scale = static_cast<double>(total) / charged;
    std::array<double, kNumCycleCategories> quota{};
    for (unsigned i = 0; i < kNumCycleCategories; ++i)
        quota[i] = acc[i] * scale;
    return integerize(quota, total);
}

void
CycleTimeline::clear()
{
    intervals.clear();
    lastIdx.fill(SIZE_MAX);
    recorded = 0;
}

CycleBreakdown
CycleTimeline::resolve(std::uint64_t total, CycleCategory gap) const
{
    // Sweep sorted open/close events; between two consecutive event
    // positions the covering set is constant, so the whole segment
    // goes to the best active category. Events pack into one 64-bit
    // key — (position << 4) | (category << 1) | is_close — so the
    // sort runs over flat integers (positions stay far below 2^60;
    // the order of same-position events is irrelevant because every
    // event at a position applies before the next segment is
    // credited).
    std::vector<std::uint64_t> events;
    events.reserve(intervals.size() * 2);
    for (const Interval &iv : intervals) {
        const Cycles s = std::min<Cycles>(iv.start, total);
        const Cycles e = std::min<Cycles>(iv.end, total);
        if (e <= s)
            continue;
        events.push_back((s << 4) | (iv.cat << 1));
        events.push_back((e << 4) | (iv.cat << 1) | 1);
    }
    std::sort(events.begin(), events.end());

    CycleBreakdown b;
    b.total = total;
    std::array<std::int64_t, kNumCycleCategories> active{};
    auto credit = [&](Cycles from, Cycles to) {
        if (to <= from)
            return;
        unsigned winner = static_cast<unsigned>(gap);
        for (unsigned c = 0; c < kNumCycleCategories; ++c) {
            if (active[c] > 0) {
                winner = c;
                break;
            }
        }
        b.cycles[winner] += to - from;
    };

    Cycles prev = 0;
    std::size_t i = 0;
    while (i < events.size()) {
        const Cycles pos = events[i] >> 4;
        credit(prev, pos);
        while (i < events.size() && (events[i] >> 4) == pos) {
            const unsigned cat = (events[i] >> 1) & 0x7;
            active[cat] += (events[i] & 1) ? -1 : 1;
            ++i;
        }
        prev = pos;
    }
    credit(prev, total);
    triarch_assert(b.categorySum() == b.total,
                   "timeline resolution does not sum to total");
    return b;
}

void
BreakdownStats::registerIn(StatGroup &group)
{
    for (CycleCategory c : allCycleCategories()) {
        group.addScalar("account_" + cycleCategoryToken(c),
                        &cats[static_cast<unsigned>(c)],
                        cycleCategoryDesc(c));
    }
    group.addScalar("account_total", &total,
                    "total cycles the account partitions");
}

void
BreakdownStats::record(const CycleBreakdown &b)
{
    for (CycleCategory c : allCycleCategories())
        cats[static_cast<unsigned>(c)].set(b[c]);
    total.set(b.total);
}

} // namespace triarch::stats
