/**
 * @file
 * Hierarchical metrics: tree construction, distributions, dotted-path
 * lookup, the versioned JSON export (golden-file checked), and the
 * stable legacy names.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"

namespace memfwd::obs
{
namespace
{

TEST(Distribution, RecordsMoments)
{
    Distribution d;
    EXPECT_EQ(d.count, 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);

    d.record(3);
    d.record(1, 2); // two samples of value 1
    d.record(5);
    EXPECT_EQ(d.count, 4u);
    EXPECT_EQ(d.sum, 10u);
    EXPECT_EQ(d.min, 1u);
    EXPECT_EQ(d.max, 5u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    ASSERT_GE(d.buckets.size(), 6u);
    EXPECT_EQ(d.buckets[1], 2u);
    EXPECT_EQ(d.buckets[3], 1u);
    EXPECT_EQ(d.buckets[5], 1u);
}

TEST(MetricsNode, TreeConstruction)
{
    MetricsNode root;
    EXPECT_TRUE(root.empty());

    root.counter("a", 1);
    root.addCounter("a", 2);
    root.gauge("rate", 0.5);
    root.child("sub").counter("b", 7);
    root.distribution("hist").record(4);

    EXPECT_FALSE(root.empty());
    EXPECT_EQ(root.counterValue("a"), 3u);
    EXPECT_EQ(root.counterValue("missing"), 0u);
    ASSERT_NE(root.findChild("sub"), nullptr);
    EXPECT_EQ(root.findChild("sub")->counterValue("b"), 7u);
    EXPECT_EQ(root.findChild("nope"), nullptr);
}

TEST(MetricsNode, DottedPathsReachNestedValues)
{
    MetricsNode root;
    root.counter("cycles", 100);
    root.gauge("ipc", 2.0);
    root.child("l1d").counter("load_hits", 5);
    root.child("l1d").gauge("miss_rate", 0.25);
    root.child("analysis").child("diagnostics").counter("error", 3);
    root.child("fwd").distribution("hop_hist").record(2, 3);

    EXPECT_EQ(root.counterAt("cycles"), 100u);
    EXPECT_EQ(root.counterAt("l1d.load_hits"), 5u);
    EXPECT_EQ(root.counterAt("analysis.diagnostics.error"), 3u);
    EXPECT_DOUBLE_EQ(root.gaugeAt("ipc"), 2.0);
    EXPECT_DOUBLE_EQ(root.gaugeAt("l1d.miss_rate"), 0.25);

    const Distribution &hops =
        root.findChild("fwd")->distributions().at("hop_hist");
    EXPECT_EQ(hops.count, 3u);
    EXPECT_EQ(hops.sum, 6u);
}

TEST(MetricsNode, DottedPathLookupThrowsOnMissingOrWrongKind)
{
    MetricsNode root;
    root.counter("cycles", 100);
    root.child("l1d").counter("load_hits", 5);
    root.child("l1d").gauge("miss_rate", 0.25);
    root.child("fwd").distribution("hop_hist").record(2);

    // A typo names nothing: it throws instead of reading as zero.
    EXPECT_THROW(root.counterAt("l1d.load_hit"), std::out_of_range);
    EXPECT_THROW(root.counterAt("l2.load_hits"), std::out_of_range);
    EXPECT_THROW(root.counterAt("cycles.busy"), std::out_of_range);
    EXPECT_THROW(root.counterAt(""), std::out_of_range);
    EXPECT_THROW(root.gaugeAt("l1d.miss_rat"), std::out_of_range);
    // The right name read as the wrong kind throws too.
    EXPECT_THROW(root.counterAt("l1d.miss_rate"), std::out_of_range);
    EXPECT_THROW(root.gaugeAt("l1d.load_hits"), std::out_of_range);
    EXPECT_THROW(root.counterAt("l1d"), std::out_of_range);
    EXPECT_THROW(root.counterAt("fwd.hop_hist"), std::out_of_range);

    // The message names the path.
    std::string what;
    try {
        root.counterAt("audit.inconsitencies");
    } catch (const std::out_of_range &e) {
        what = e.what();
    }
    EXPECT_NE(what.find("'audit.inconsitencies'"), std::string::npos);
}

TEST(MetricsDocument, VersionedEnvelope)
{
    MetricsNode root;
    root.counter("x", 1);
    const Json doc = metricsDocument(root, "unit-test");
    EXPECT_EQ(doc.find("schema")->asString(), metrics_schema);
    EXPECT_EQ(doc.find("version")->asU64(), metrics_schema_version);
    EXPECT_EQ(doc.find("source")->asString(), "unit-test");
    ASSERT_NE(doc.find("metrics"), nullptr);
}

/** The deterministic mini-program behind the golden export. */
MetricsNode
goldenMachineMetrics()
{
    Machine m;
    for (unsigned i = 0; i < 16; ++i)
        m.access(Access::store(0x1000 + i * 8, 8, i + 1));
    relocate(m, 0x1000, 0x8000, 16);
    Cycles dep = 0;
    for (unsigned i = 0; i < 16; ++i)
        dep = m.access(Access::load(0x1000 + i * 8, 8, dep)).ready;
    return m.metrics();
}

/**
 * Golden file: the full machine metrics document for a fixed
 * mini-program.  Regenerate deliberately (schema/name changes only!)
 * with MEMFWD_UPDATE_GOLDEN=1; docs/METRICS.md explains the name
 * stability policy this test enforces.
 */
TEST(MetricsDocument, MachineExportMatchesGolden)
{
    const std::string path =
        std::string(MEMFWD_OBS_DATA_DIR) + "/machine_metrics_golden.json";
    const std::string actual =
        metricsDocument(goldenMachineMetrics(), "golden").str(2) + "\n";

    if (std::getenv("MEMFWD_UPDATE_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden file regenerated";
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run with MEMFWD_UPDATE_GOLDEN=1 to create)";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << "machine metrics drifted from the golden export; if the "
           "change is intentional, bump docs/METRICS.md and regenerate "
           "with MEMFWD_UPDATE_GOLDEN=1";
}

TEST(MetricsNames, KeepsLegacyDottedNames)
{
    // The dotted names the pre-observability registry exposed must
    // keep resolving in the machine tree — downstream scripts key on
    // them (docs/METRICS.md name-stability policy).
    Machine m;
    m.access(Access::store(0x3000, 8, 1));
    relocate(m, 0x3000, 0xa000, 1);
    m.access(Access::load(0x3000, 8));

    const MetricsNode metrics = m.metrics();
    for (const char *name :
         {"cycles", "instructions", "slots.busy", "slots.load_stall",
          "slots.store_stall", "slots.inst_stall", "l1d.load_hits",
          "l1d.load_partial_misses", "l1d.load_full_misses",
          "l1d.store_hits", "l1d.writebacks", "traffic.l1_l2_bytes",
          "traffic.l2_mem_bytes", "fwd.walks", "fwd.hops",
          "fwd.false_alarms", "fwd.cycles_detected", "fwd.ftc_hits",
          "fwd.ftc_misses", "fwd.ftc_invalidations",
          "fwd.chains_collapsed", "refs.loads", "refs.stores",
          "refs.loads_forwarded", "lsq.speculations",
          "lsq.violations"}) {
        EXPECT_NO_THROW(metrics.counterAt(name))
            << "legacy stat lost: " << name;
    }
    EXPECT_EQ(metrics.counterAt("refs.loads"), 1u);
    EXPECT_EQ(metrics.counterAt("fwd.walks"), 1u);
    EXPECT_EQ(metrics.counterAt("fwd.hops"), 1u);
}

TEST(FtcMetrics, CountersExportAndRoundTrip)
{
    // A 3-hop chain referenced twice: the first load walks (FTC miss +
    // collapse), the second is an FTC hit.  The counters must appear in
    // the JSON export exactly.
    Machine m(MachineConfig{}.ftcGeometry(16, 2).collapseThreshold(2));
    m.access(Access::store(0x1000, 8, 42));
    relocate(m, 0x1000, 0x2000, 1);
    relocate(m, 0x2000, 0x3000, 1);
    relocate(m, 0x3000, 0x4000, 1);
    EXPECT_EQ(m.access(Access::load(0x1000, 8)).value, 42u);
    EXPECT_EQ(m.access(Access::load(0x1000, 8)).value, 42u);

    const MetricsNode root = m.metrics();
    const MetricsNode *fwd = root.findChild("fwd");
    ASSERT_NE(fwd, nullptr);
    EXPECT_EQ(fwd->counterValue("ftc_hits"), 1u);
    EXPECT_GE(fwd->counterValue("ftc_misses"), 1u);
    EXPECT_EQ(fwd->counterValue("chains_collapsed"), 1u);
    // Each relocation appends at a chain tail; the tail-append
    // invalidations are counted (they may be zero only if nothing was
    // cached yet, which the hit above rules out for the final state).
    EXPECT_TRUE(fwd->counters().count("ftc_invalidations"));

    // The exported document carries the FTC counters.
    const Json doc = metricsDocument(root, "ftc-test");
    const Json *fwd_json = doc.find("metrics")->find("children")
                               ->find("fwd")->find("counters");
    ASSERT_NE(fwd_json, nullptr);
    EXPECT_EQ(fwd_json->find("ftc_hits")->asU64(), 1u);
    EXPECT_EQ(fwd_json->find("chains_collapsed")->asU64(), 1u);
}

TEST(SubsystemMetrics, MachineTreeComposesComponents)
{
    Machine m;
    m.access(Access::store(0x4000, 8, 5));
    relocate(m, 0x4000, 0xb000, 1);
    m.access(Access::load(0x4000, 8));

    const MetricsNode root = m.metrics();
    ASSERT_NE(root.findChild("fwd"), nullptr);
    ASSERT_NE(root.findChild("refs"), nullptr);
    ASSERT_NE(root.findChild("l1d"), nullptr);
    EXPECT_EQ(root.findChild("fwd")->counterValue("walks"), 1u);
    EXPECT_EQ(root.findChild("refs")->counterValue("loads"), 1u);
    EXPECT_GT(root.counterValue("cycles"), 0u);

    // The hop histogram rides along as a real distribution: one sample
    // per resolved reference (0-hop references included), so the
    // single 1-hop load shows up as the lone sample above zero.
    const auto &dists = root.findChild("fwd")->distributions();
    ASSERT_TRUE(dists.count("hop_hist"));
    const Distribution &hist = dists.at("hop_hist");
    EXPECT_GE(hist.count, 1u);
    EXPECT_EQ(hist.max, 1u);
    ASSERT_EQ(hist.buckets.size(), 2u);
    EXPECT_EQ(hist.buckets[1], 1u);
}

} // namespace
} // namespace memfwd::obs
