/**
 * @file
 * Host-time spans around calls into the simulator's layers.
 *
 * The traced build of the driver links interpose.cc with
 * `-Wl,--wrap=<symbol>` for every layer entry point it wraps.  Each
 * wrapper records a span (layer, start, end, parent layer) around the
 * real call.  Spans are aggregated in memory per (layer, parent); the
 * last few thousand raw spans are kept in a ring for a Chrome trace.
 * Nothing in the simulator itself is changed or rebuilt.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <string>

#include "obs/json.hh"

namespace perfbench
{

/**
 * Calibrate the cost of an empty span, then open the recording window:
 * every aggregate, counter and the raw-span ring start empty.
 * @p run_id tags the raw spans written by spansEnd().
 */
void spansBegin(const std::string &run_id);

/**
 * Close the window and return its per-layer report: for each layer the
 * call count, self time (span time minus child spans minus the
 * calibrated wrapper cost) and self time per call, the residual
 * `workload` self time, the per-(layer, parent) aggregates, and the
 * boundary counters.  When @p trace_path is non-empty, also write the
 * raw-span sample there as a Chrome trace ("ph":"X", host time).
 */
memfwd::obs::Json spansEnd(const std::string &trace_path);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
