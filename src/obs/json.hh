/**
 * @file
 * A minimal JSON document model for the observability layer.
 *
 * Every machine-readable artifact the runtime emits — the versioned
 * metrics export, `BENCH_<name>.json` results, chrome-trace files, the
 * lint summary — is built through this one class, so the schemas
 * documented in docs/METRICS.md have a single point of truth for
 * formatting.  It is deliberately small: objects keep their keys
 * sorted (std::map) so serialization is deterministic and golden tests
 * are stable.  It only writes: nothing in the simulator reads an
 * artifact back, and the `json_artifacts` test checks real tool output
 * with an independent parser (python3's json module).
 */

#ifndef MEMFWD_OBS_JSON_HH
#define MEMFWD_OBS_JSON_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace memfwd::obs
{

/** One JSON value: scalar, array or object. */
class Json
{
  public:
    enum class Kind
    {
        null,
        boolean,
        number, ///< unsigned 64-bit integer (counters, addresses, cycles)
        real,   ///< double (rates, averages, wall-clock times)
        string,
        array,
        object
    };

    Json() = default;

    static Json boolean(bool b);
    static Json number(std::uint64_t v);
    static Json real(double v);
    static Json string(std::string s);
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::null; }
    bool isArray() const { return kind_ == Kind::array; }

    /** Scalar accessors; each panics if the kind does not match. */
    bool asBool() const;
    std::uint64_t asU64() const;
    double asDouble() const; ///< valid for both number and real
    const std::string &asString() const;

    const std::vector<Json> &items() const;
    const std::map<std::string, Json> &fields() const;

    /** Object field access, creating the field (and objectness) on use. */
    Json &operator[](const std::string &key);

    /** Append to an array (a null value becomes an empty array first). */
    void push(Json v);

    bool has(const std::string &key) const;

    /** Field lookup without creation; nullptr if absent or not object. */
    const Json *find(const std::string &key) const;

    /**
     * Serialize.  @p indent = 0 emits one compact line (the
     * chrome-trace form); > 0 pretty-prints with that step (the
     * metrics/bench form).
     */
    void write(std::ostream &os, int indent = 0, int depth = 0) const;
    std::string str(int indent = 0) const;

  private:
    Kind kind_ = Kind::null;
    bool bool_ = false;
    std::uint64_t u64_ = 0;
    double real_ = 0.0;
    std::string str_;
    std::vector<Json> items_;
    std::map<std::string, Json> fields_;
};

} // namespace memfwd::obs

#endif // MEMFWD_OBS_JSON_HH
