/**
 * @file
 * Pins every row of the claims table (study/claims.hh) exactly:
 * simulation is deterministic, so a model change that moves any
 * Section-2/3/4 number fails here by row id (cycle rows as integers,
 * the rest with EXPECT_DOUBLE_EQ). Also pins each row's band status,
 * checks the one band rule against the paper's wording forms, and
 * checks that EXPERIMENTS.md's claims tables list every row id with
 * the value bench/claims prints.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "sim/trace.hh"
#include "study/claims.hh"

namespace triarch::study
{
namespace
{

constexpr ClaimStatus Pinned = ClaimStatus::Pinned;
constexpr ClaimStatus InBand = ClaimStatus::InBand;
constexpr ClaimStatus Deviation = ClaimStatus::KnownDeviation;

struct Pin
{
    const char *id;
    double value;     //!< exact; integral for cycle rows
    ClaimStatus status;
};

/** Every row in print order, with its value at the paper config. */
const Pin pins[] = {
    {"viram.ct.precharge_tlb", 24.240275741421133, InBand},
    {"viram.ct.addr_gen_penalty", 15.793479077599477, Deviation},
    {"imagine.cslc.comm", 18.397140221402214, Deviation},
    {"imagine.cslc.alu_utilization", 24.13130381303813, InBand},
    {"imagine.cslc.ideal_comm.alu_utilization", 29.571639864718463, Pinned},
    {"imagine.bs.memory_fraction", 74.553099978879061, InBand},
    {"imagine.bs.srf_resident_gain", 3.6430470061555682, Deviation},
    {"raw.cslc.radix_op_ratio", 1.3461538461538463, InBand},
    {"raw.cslc.idle_fraction", 8.7602707439142389, InBand},
    {"raw.cslc.cache_stall_fraction", 8.0510452871297407, InBand},
    {"raw.cslc.subbands64.idle_fraction", 0.00028170680519129298, Pinned},
    {"raw.cslc.subbands73.idle_fraction", 8.7602707439142389, Pinned},
    {"raw.cslc.subbands80.idle_fraction", 0.00022534957352593208, Pinned},
    {"altivec.cslc.gain", 5.3464143937865423, InBand},
    {"altivec.bs.gain", 1.6751054852320675, InBand},
    {"altivec.ct.gain", 1.4852776963785195, Deviation},
    {"viram.ct.vl8.cycles", 2297381, Pinned},
    {"viram.ct.vl16.cycles", 1346597, Pinned},
    {"viram.ct.vl32.cycles", 740325, Pinned},
    {"viram.ct.vl64.cycles", 519037, Pinned},
    {"ppc.ct.block8.cycles", 18528704, Pinned},
    {"ppc.ct.block16.cycles", 25296038, Pinned},
    {"ppc.ct.block32.cycles", 25261710, Pinned},
    {"ppc.ct.block64.cycles", 25191354, Pinned},
    {"ppc.ct.block128.cycles", 22388361, Pinned},
    {"raw.cslc.stream_gain", 1.113411821689426, Deviation},
    {"raw.cslc.stream.cache_stall_cycles", 0, Pinned},
    {"imagine.cslc.independent.saving", 18.583948339483396, Pinned},
    {"imagine.cslc.independent.alu_utilization", 29.639491624648272, Pinned},
    {"imagine.cslc.independent.memory_fraction", 70.520083847940626, Pinned},
    {"viram.ct.n512.cycles_per_word", 0.47578811645507812, Pinned},
    {"raw.ct.n512.cycles_per_word", 0.30100631713867188, Pinned},
    {"viram.ct.n512.vs_raw", 1.5806582432483811, Pinned},
    {"viram.ct.n1024.cycles_per_word", 0.49499225616455078, Pinned},
    {"raw.ct.n1024.cycles_per_word", 0.15156936645507812, Pinned},
    {"viram.ct.n1024.vs_raw", 3.2657803337276321, Pinned},
    {"viram.ct.n1536.cycles_per_word", 1.0444831848144531, Pinned},
    {"raw.ct.n1536.cycles_per_word", 0.20121426052517363, Pinned},
    {"viram.ct.n1536.vs_raw", 5.1909003968621761, Pinned},
    {"viram.ct.n2048.cycles_per_word", 1.6293585300445557, Pinned},
    {"raw.ct.n2048.cycles_per_word", 0.15082836151123047, Pinned},
    {"viram.ct.n2048.vs_raw", 10.802733078309254, Pinned},
    {"raw.cslc.intervals1.idle_fraction", 8.7602707439142389, Pinned},
    {"raw.cslc.intervals1.cycles_per_interval", 443371, Pinned},
    {"raw.cslc.intervals2.idle_fraction", 8.7576592878201112, Pinned},
    {"raw.cslc.intervals2.cycles_per_interval", 443497, Pinned},
    {"raw.cslc.intervals4.idle_fraction", 3.9506927163199874, Pinned},
    {"raw.cslc.intervals4.cycles_per_interval", 421438, Pinned},
    {"raw.cslc.intervals8.idle_fraction", 1.3533692611548576, Pinned},
    {"raw.cslc.intervals8.cycles_per_interval", 410429, Pinned},
    {"raw.matmul.tile_speedup", 15.167601443092687, InBand},
    {"imagine.media.alu_utilization", 89.005235602094245, InBand},
};

TEST(Claims, PinTableListsEveryRowInOrder)
{
    const auto &rows = claims();
    ASSERT_EQ(rows.size(), std::size(pins));
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].id, pins[i].id) << "row " << i;
}

/** The row with @p id. */
const Claim &
row(const std::string &id)
{
    const auto it = std::ranges::find(claims(), id, &Claim::id);
    if (it == claims().end())
        ADD_FAILURE() << "no claim row " << id;
    return it == claims().end() ? claims().front() : *it;
}

TEST(Claims, EveryValueAndStatusIsPinned)
{
    ResultCache cache;          // rows re-ask for Table-3 cells
    ParallelRunner runner({}, 0, nullptr, &cache);
    ClaimRun run(runner);
    for (const Pin &pin : pins) {
        const Claim &claim = row(pin.id);
        const double value = measureClaim(claim, run);
        if (claim.unit == ClaimUnit::CycleCount) {
            EXPECT_EQ(static_cast<Cycles>(value),
                      static_cast<Cycles>(pin.value))
                << pin.id;
            EXPECT_EQ(value, static_cast<double>(
                                 static_cast<Cycles>(value)))
                << pin.id;
        } else {
            EXPECT_DOUBLE_EQ(value, pin.value) << pin.id;
        }
        EXPECT_EQ(claimStatus(claim, value), pin.status) << pin.id;
    }
}

/** How many "imagine.load_stream" spans @p session has recorded. */
std::size_t
imagineStreamLoads(const trace::TraceSession &session)
{
    std::ostringstream os;
    session.writeJson(os);
    const std::string text = os.str();
    const std::string name = "\"name\": \"imagine.load_stream\"";
    std::size_t n = 0;
    for (auto at = text.find(name); at != std::string::npos;
         at = text.find(name, at + 1)) {
        ++n;
    }
    return n;
}

TEST(Claims, EachRunExecutesItsOwnMutatedRuns)
{
    // Two claims runs of the Imagine CSLC rows on one runner and one
    // config: the second finds its Table-3 cell in the runner's
    // cache, but executes the ideal-network and independent-FFT
    // variants again rather than reading the first run's results,
    // and prints the same table.
    ResultCache cache;
    ParallelRunner runner({}, 1, nullptr, &cache);
    trace::TraceSession session;
    session.start();
    std::string tables[2];
    std::size_t loads[2];
    for (int i = 0; i < 2; ++i) {
        ResultSink sink;
        std::ostringstream os;
        EXPECT_EQ(runClaims(runner, {MachineId::Imagine},
                            {KernelId::Cslc}, true, sink, os),
                  0);
        tables[i] = os.str();
        loads[i] = imagineStreamLoads(session);
    }
    session.stop();
    // The two variants make two thirds of the first run's transfers,
    // the Table-3 cell the rest.
    const std::size_t second = loads[1] - loads[0];
    EXPECT_GT(second, loads[0] / 2);
    EXPECT_LT(second, loads[0]);
    EXPECT_EQ(tables[0], tables[1]);
}

TEST(ClaimBands, DerivedFromThePapersWording)
{
    const auto band = [](const std::string &wording) {
        const auto b = bandFromWording(wording);
        EXPECT_TRUE(b.has_value()) << wording;
        return b.value_or(Band{});
    };
    EXPECT_DOUBLE_EQ(band("~21%").lo, 15.75);
    EXPECT_DOUBLE_EQ(band("~21%").hi, 26.25);
    EXPECT_DOUBLE_EQ(band("about 6x").lo, 4.5);
    EXPECT_DOUBLE_EQ(band("about 6x").hi, 7.5);
    EXPECT_DOUBLE_EQ(band("25.5%").hi, 1.25 * 25.5);  // a bare figure
    EXPECT_DOUBLE_EQ(band("84–95%").lo, 84.0);
    EXPECT_DOUBLE_EQ(band("84-95%").hi, 95.0);
    const Band below = band("<10%");
    EXPECT_TRUE(below.open);
    EXPECT_TRUE(below.contains(8.1));
    EXPECT_FALSE(below.contains(10.0));
    EXPECT_FALSE(below.contains(0.0));
    EXPECT_FALSE(bandFromWording("").has_value());
    EXPECT_FALSE(bandFromWording("not significant").has_value());
}

TEST(ClaimBands, FailuresAreOutOfBandOrStaleDeviations)
{
    Claim claim = row("viram.ct.precharge_tlb");  // ~21%
    EXPECT_EQ(claimStatus(claim, 21.0), ClaimStatus::InBand);
    EXPECT_EQ(claimStatus(claim, 30.0), ClaimStatus::OutOfBand);
    claim.deviation = "a recorded reason";
    EXPECT_EQ(claimStatus(claim, 30.0), ClaimStatus::KnownDeviation);
    EXPECT_EQ(claimStatus(claim, 21.0), ClaimStatus::StaleDeviation);
}

TEST(Claims, SelectionNeedsEveryMachineAndTheKernel)
{
    const Claim &gain = row("altivec.cslc.gain");
    EXPECT_TRUE(claimSelected(gain, allMachines(), allKernels()));
    EXPECT_FALSE(claimSelected(gain, {MachineId::PpcAltivec},
                               allKernels()));
    EXPECT_FALSE(claimSelected(gain, allMachines(),
                               {KernelId::CornerTurn}));
    // Rows with no Table-3 kernel follow the machine selection only.
    const Claim &media = row("imagine.media.alu_utilization");
    EXPECT_TRUE(claimSelected(media, {MachineId::Imagine},
                              {KernelId::CornerTurn}));
}

TEST(Claims, ExperimentsTablesShowEveryRowAsPrinted)
{
    // The pinned values are what bench/claims prints (the test above
    // holds them to the measurement), so the doc is checked against
    // them without re-running the simulations.
    std::ifstream in(std::string(TRIARCH_SOURCE_DIR) + "/EXPERIMENTS.md");
    ASSERT_TRUE(in.good());
    std::map<std::string, std::string> lines;
    for (std::string line; std::getline(in, line);) {
        if (!line.starts_with("| `"))
            continue;
        const auto close = line.find("` |", 3);
        if (close != std::string::npos)
            lines[line.substr(3, close - 3)] = line;
    }
    for (const Pin &pin : pins) {
        const auto it = lines.find(pin.id);
        if (it == lines.end()) {
            ADD_FAILURE() << "EXPERIMENTS.md has no claims row " << pin.id;
            continue;
        }
        const std::string shown =
            formatClaimValue(row(pin.id), pin.value);
        EXPECT_NE(it->second.find("| " + shown + " |"), std::string::npos)
            << pin.id << " should show " << shown << ": " << it->second;
    }
}

} // namespace
} // namespace triarch::study
