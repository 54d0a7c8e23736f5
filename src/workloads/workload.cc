#include "workloads/workload.hh"

#include "common/logging.hh"

namespace memfwd
{

// Factory functions defined by the individual workload files.
std::unique_ptr<Workload> makeHealth(const WorkloadParams &);
std::unique_ptr<Workload> makeMst(const WorkloadParams &);
std::unique_ptr<Workload> makeBh(const WorkloadParams &);
std::unique_ptr<Workload> makeRadiosity(const WorkloadParams &);
std::unique_ptr<Workload> makeVis(const WorkloadParams &);
std::unique_ptr<Workload> makeEqntott(const WorkloadParams &);
std::unique_ptr<Workload> makeCompress(const WorkloadParams &);
std::unique_ptr<Workload> makeSmv(const WorkloadParams &);
std::unique_ptr<Workload> makeKvServer(const WorkloadParams &);

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadParams &params)
{
    if (name == "health")
        return makeHealth(params);
    if (name == "mst")
        return makeMst(params);
    if (name == "bh")
        return makeBh(params);
    if (name == "radiosity")
        return makeRadiosity(params);
    if (name == "vis")
        return makeVis(params);
    if (name == "eqntott")
        return makeEqntott(params);
    if (name == "compress")
        return makeCompress(params);
    if (name == "smv")
        return makeSmv(params);
    if (name == "kv_server")
        return makeKvServer(params);
    memfwd_fatal("unknown workload '%s'", name.c_str());
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "bh", "compress", "eqntott", "health",
        "mst", "radiosity", "smv", "vis",
    };
    return names;
}

const std::vector<std::string> &
extendedWorkloadNames()
{
    static const std::vector<std::string> names = {
        "bh", "compress", "eqntott", "health",
        "mst", "radiosity", "smv", "vis",
        "kv_server",
    };
    return names;
}

const std::vector<std::string> &
figure5Workloads()
{
    static const std::vector<std::string> names = {
        "bh", "compress", "eqntott", "health", "mst", "radiosity", "vis",
    };
    return names;
}

const std::vector<std::string> &
fastForwardRegions()
{
    static const std::vector<std::string> names = {
        "all", "build", "opt", "kernel",
    };
    return names;
}

} // namespace memfwd
