/**
 * @file
 * Hierarchical metrics: the one record of a run's simulated results.
 *
 * Every observable component exposes `metrics()` returning a
 * MetricsNode — a tree of named counters (64-bit, monotonic within a
 * run), gauges (derived ratios/averages) and distributions (hop
 * counts, chain lengths, trap latencies).  The Machine composes its
 * components' trees into one machine tree; a value's dotted path
 * ("l1d.load_hits", "fwd.walks", ...) is its stable name, and
 * counterAt()/gaugeAt() read it back.
 *
 * The JSON export is versioned; docs/METRICS.md documents the schema
 * and the name-stability policy.
 */

#ifndef MEMFWD_OBS_METRICS_HH
#define MEMFWD_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hh"

namespace memfwd::obs
{

/** Schema identifier carried by every metrics export. */
inline constexpr const char *metrics_schema = "memfwd.metrics";

/** Bumped on any incompatible rename/retyping (docs/METRICS.md). */
inline constexpr unsigned metrics_schema_version = 2;

/** A value distribution: summary moments plus exact small-value buckets. */
struct Distribution
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;

    /** buckets[v] = number of samples with value v (grown on demand). */
    std::vector<std::uint64_t> buckets;

    /** Record @p n samples of @p value. */
    void record(std::uint64_t value, std::uint64_t n = 1);

    double
    mean() const
    {
        return count ? double(sum) / double(count) : 0.0;
    }

    Json toJson() const;

    bool operator==(const Distribution &) const = default;
};

/** One node of the metrics tree. */
class MetricsNode
{
  public:
    // ----- building ----------------------------------------------------

    /** Child node @p name, created empty on first use. */
    MetricsNode &child(const std::string &name);

    /** Set counter @p name to @p value. */
    void counter(const std::string &name, std::uint64_t value);

    /** Add @p delta to counter @p name (created at zero). */
    void addCounter(const std::string &name, std::uint64_t delta);

    /** Set gauge @p name. */
    void gauge(const std::string &name, double value);

    /** Distribution @p name, created empty on first use. */
    Distribution &distribution(const std::string &name);

    // ----- reading -----------------------------------------------------

    /** Counter value (0 if absent). */
    std::uint64_t counterValue(const std::string &name) const;

    /** Child lookup without creation; nullptr if absent. */
    const MetricsNode *findChild(const std::string &name) const;

    /**
     * Counter at dotted path @p dotted ("l1d.load_full_misses"): every
     * segment but the last names a child, the last names a counter.
     * Throws std::out_of_range naming the path if there is none.
     */
    std::uint64_t counterAt(std::string_view dotted) const;

    /** Gauge at dotted path @p dotted; throws like counterAt(). */
    double gaugeAt(std::string_view dotted) const;

    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, double> &gauges() const { return gauges_; }
    const std::map<std::string, Distribution> &distributions() const
    {
        return dists_;
    }
    const std::map<std::string, MetricsNode> &children() const
    {
        return children_;
    }

    bool empty() const;

    void clear();

    // ----- export ------------------------------------------------------

    /** This node (and subtree) as a JSON object. */
    Json toJson() const;

    bool operator==(const MetricsNode &) const = default;

  private:
    /**
     * The node named by all but the last segment of @p dotted (nullptr
     * if a child is missing); @p leaf receives the last segment.
     */
    const MetricsNode *parentOf(std::string_view dotted,
                                std::string &leaf) const;

    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, Distribution> dists_;
    std::map<std::string, MetricsNode> children_;
};

/**
 * Wrap @p root in the versioned export envelope:
 * `{"schema": "memfwd.metrics", "version": metrics_schema_version,
 * "source": ..., "metrics": {...}}`.
 */
Json metricsDocument(const MetricsNode &root, const std::string &source);

} // namespace memfwd::obs

#endif // MEMFWD_OBS_METRICS_HH
