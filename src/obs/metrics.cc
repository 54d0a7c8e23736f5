#include "obs/metrics.hh"

#include <stdexcept>

namespace memfwd::obs
{

void
Distribution::record(std::uint64_t value, std::uint64_t n)
{
    if (n == 0)
        return;
    if (count == 0 || value < min)
        min = value;
    if (count == 0 || value > max)
        max = value;
    count += n;
    sum += value * n;
    if (buckets.size() <= value)
        buckets.resize(value + 1, 0);
    buckets[value] += n;
}

Json
Distribution::toJson() const
{
    Json j = Json::object();
    j["count"] = Json::number(count);
    j["sum"] = Json::number(sum);
    j["min"] = Json::number(min);
    j["max"] = Json::number(max);
    j["mean"] = Json::real(mean());
    Json b = Json::array();
    for (std::uint64_t v : buckets)
        b.push(Json::number(v));
    j["buckets"] = std::move(b);
    return j;
}

MetricsNode &
MetricsNode::child(const std::string &name)
{
    return children_[name];
}

void
MetricsNode::counter(const std::string &name, std::uint64_t value)
{
    counters_[name] = value;
}

void
MetricsNode::addCounter(const std::string &name, std::uint64_t delta)
{
    counters_[name] += delta;
}

void
MetricsNode::gauge(const std::string &name, double value)
{
    gauges_[name] = value;
}

Distribution &
MetricsNode::distribution(const std::string &name)
{
    return dists_[name];
}

std::uint64_t
MetricsNode::counterValue(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

const MetricsNode *
MetricsNode::findChild(const std::string &name) const
{
    auto it = children_.find(name);
    return it == children_.end() ? nullptr : &it->second;
}

const MetricsNode *
MetricsNode::parentOf(std::string_view dotted, std::string &leaf) const
{
    const MetricsNode *node = this;
    std::size_t dot;
    while (node && (dot = dotted.find('.')) != std::string_view::npos) {
        node = node->findChild(std::string(dotted.substr(0, dot)));
        dotted.remove_prefix(dot + 1);
    }
    leaf = dotted;
    return node;
}

std::uint64_t
MetricsNode::counterAt(std::string_view dotted) const
{
    std::string leaf;
    if (const MetricsNode *node = parentOf(dotted, leaf)) {
        auto it = node->counters_.find(leaf);
        if (it != node->counters_.end())
            return it->second;
    }
    throw std::out_of_range("no counter at metrics path '" +
                            std::string(dotted) + "'");
}

double
MetricsNode::gaugeAt(std::string_view dotted) const
{
    std::string leaf;
    if (const MetricsNode *node = parentOf(dotted, leaf)) {
        auto it = node->gauges_.find(leaf);
        if (it != node->gauges_.end())
            return it->second;
    }
    throw std::out_of_range("no gauge at metrics path '" +
                            std::string(dotted) + "'");
}

bool
MetricsNode::empty() const
{
    return counters_.empty() && gauges_.empty() && dists_.empty() &&
           children_.empty();
}

void
MetricsNode::clear()
{
    counters_.clear();
    gauges_.clear();
    dists_.clear();
    children_.clear();
}

Json
MetricsNode::toJson() const
{
    Json j = Json::object();
    if (!counters_.empty()) {
        Json c = Json::object();
        for (const auto &[name, value] : counters_)
            c[name] = Json::number(value);
        j["counters"] = std::move(c);
    }
    if (!gauges_.empty()) {
        Json g = Json::object();
        for (const auto &[name, value] : gauges_)
            g[name] = Json::real(value);
        j["gauges"] = std::move(g);
    }
    if (!dists_.empty()) {
        Json d = Json::object();
        for (const auto &[name, dist] : dists_)
            d[name] = dist.toJson();
        j["distributions"] = std::move(d);
    }
    if (!children_.empty()) {
        Json c = Json::object();
        for (const auto &[name, node] : children_)
            c[name] = node.toJson();
        j["children"] = std::move(c);
    }
    return j;
}

Json
metricsDocument(const MetricsNode &root, const std::string &source)
{
    Json doc = Json::object();
    doc["schema"] = Json::string(metrics_schema);
    doc["version"] = Json::number(metrics_schema_version);
    doc["source"] = Json::string(source);
    doc["metrics"] = root.toJson();
    return doc;
}

} // namespace memfwd::obs
