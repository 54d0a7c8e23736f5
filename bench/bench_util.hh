/**
 * @file
 * Shared harness for the figure/table reproduction benches.
 *
 * Beyond the original helpers (common machine configuration and
 * paper-style bar printing), every bench now runs through a small
 * measurement harness:
 *
 *  - each case is one timed run (the simulator is deterministic, so
 *    there is nothing to warm up or repeat);
 *  - each case's full hierarchical metrics tree is captured, and its
 *    `refs.executed` counter is the case's host.refs;
 *  - a `Report` declared in main() writes a schema-tagged
 *    `BENCH_<name>.json` (docs/METRICS.md) into MEMFWD_BENCH_OUT (or
 *    the working directory) when it goes out of scope.  The simulated
 *    cycle counts in the report are deterministic, which is what makes
 *    the committed bench/baseline/ comparable across machines —
 *    scripts/bench_diff.py is the regression gate.
 */

#ifndef MEMFWD_BENCH_BENCH_UTIL_HH
#define MEMFWD_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "workloads/driver.hh"

namespace memfwd::bench
{

/**
 * Benchmark scale: 1.0 = the sizes in DESIGN.md (MEMFWD_BENCH_SCALE;
 * empty means unset, and a value that is not a positive number is
 * fatal).
 */
double benchScale();

/** Default machine config at the given line size. */
MachineConfig machineAt(unsigned line_bytes);

/**
 * The N case of @p workload on @p machine at benchScale() *
 * @p scale_factor — the RunConfig every grid bench starts from.
 */
RunConfig benchConfig(const std::string &workload,
                      const MachineConfig &machine,
                      double scale_factor = 1.0);

/**
 * The per-binary JSON result file.  Declare one at the top of main():
 *
 *   bench::Report report("fig5_exec_breakdown");
 *
 * While it is alive, runCase()/run() record every case into it; its
 * destructor (or an explicit write()) emits BENCH_<name>.json.
 */
class Report
{
  public:
    explicit Report(const std::string &name);
    ~Report();

    Report(const Report &) = delete;
    Report &operator=(const Report &) = delete;

    /** Record one case measured as a full workload run. */
    void add(const std::string &label, const RunResult &r, double wall_ms);

    /**
     * Record a case for benches built on custom machinery.  Pass the
     * machine's metrics() as @p metrics when there is a machine: its
     * `refs.executed` counter is the case's host.refs, and an empty
     * tree records the host.refs_per_sec gauge as 0.  @p reps is the
     * iteration count of a case timed by repetition (google-benchmark).
     * @p extra_fields become top-level numeric fields on the case, where
     * scripts/bench_diff.py --require-metric can see them (e.g. a
     * detection_rate the diff gate asserts on).
     */
    void addCase(const std::string &label, std::uint64_t cycles,
                 std::uint64_t instructions, std::uint64_t checksum,
                 const obs::MetricsNode &metrics, double wall_ms = 0.0,
                 unsigned reps = 1,
                 const std::vector<std::pair<std::string, double>>
                     &extra_fields = {});

    /** Cases recorded so far. */
    std::size_t cases() const { return cases_.size(); }

    /** The whole report as a schema-tagged JSON document. */
    obs::Json toJson() const;

    /**
     * Write BENCH_<name>.json into $MEMFWD_BENCH_OUT (or the working
     * directory).  Idempotent; the destructor calls it.  A report that
     * cannot be written ends the process with exit status 1.
     */
    void write();

    const std::string &name() const { return name_; }

    /** The report declared in main(), or nullptr outside its lifetime. */
    static Report *current();

  private:
    std::string name_;
    std::vector<obs::Json> cases_;
    bool written_ = false;
};

/**
 * Host wall clock of one case, running from construction.  Start it
 * just before the first simulated work the case's tree counts (for a
 * whole machine's tree, before the machine is built) and read ms() just
 * after the last, so the case's host.refs_per_sec divides exactly that
 * work's references by exactly its time.
 */
class Stopwatch
{
  public:
    /** Milliseconds since construction. */
    double ms() const;

  private:
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/**
 * Run one configuration through the harness: one timed run, recorded
 * into the current Report (if any) under @p label.
 */
RunResult runCase(const std::string &label, const RunConfig &cfg);

/**
 * runBestPrefetch() of @p cfg over prefetchBlocks(), recorded into the
 * current Report (if any) under @p label with the wall time of the
 * winning block size's run alone.
 */
RunResult runBestCase(const std::string &label, const RunConfig &cfg);

/** The unoptimized (N) and layout-optimized (L) runs of one config. */
struct RunPair
{
    RunResult n;
    RunResult l;

    /** N cycles over L cycles. */
    double speedup() const;
};

/**
 * Run @p cfg as `<label>/N` then `<label>/L` through runCase(); fatal,
 * naming @p label, if the two checksums differ.
 */
RunPair runPair(const std::string &label, RunConfig cfg);

/** runCase() of benchConfig(@p workload, machineAt(@p line_bytes)),
 *  labelled `<workload>/<line_bytes>B/<N|L>`. */
RunResult run(const std::string &workload, unsigned line_bytes,
              bool layout_opt);

/** The prefetch block sizes swept (in lines), as in Section 5.2. */
const std::vector<unsigned> &prefetchBlocks();

/** Print a section header. */
void header(const std::string &title, const std::string &subtitle);

/**
 * Print one Figure-5-style stacked bar: the four graduation-slot
 * sections normalized so the N@first-line-size bar is 100.
 */
void printBar(const std::string &label, const RunResult &r,
              double norm_cycles);

/** Format a count with thousands separators. */
std::string withCommas(std::uint64_t v);

} // namespace memfwd::bench

#endif // MEMFWD_BENCH_BENCH_UTIL_HH
