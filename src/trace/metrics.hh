/**
 * @file
 * MetricsRegistry: one named counter/gauge/histogram interface over
 * the engine's counter islands.
 *
 * Four generations of instrumentation accumulated their own
 * snapshot calls — KernelStats (per-kernel invocations/nanos/
 * elements), EvalOpStats (executed Table-II ops + modUp/modDown
 * conversions), the Workspace arena's alloc/reuse/lease stats, and
 * the resilience retry/checkpoint/integrity counters. The registry
 * reads ALL of them into one flat name -> value snapshot with a
 * stable dotted naming scheme (docs/OBSERVABILITY.md):
 *
 *   kernel.<Kind>.invocations|nanos|elements
 *   evalop.<OP>.count, evalop.modups, evalop.moddowns
 *   workspace.allocs|reuses|returns|reuse_rate|evictions|
 *             pooled_bytes|peak_leased_bytes   (summed over live
 *                                               arenas)
 *   resilience.retries|transient_faults|integrity_failures|
 *              checkpoints_taken|checkpoints_resumed
 *   trace.spans_recorded|spans_dropped
 *
 * plus registry-owned custom counters, gauges and log2 histograms
 * (custom.<name>...). snapshotJson() nests the dotted names into one
 * JSON object — the single machine-readable metrics dump every
 * bench emits behind --metrics (bench_util.hh).
 */

#ifndef TENSORFHE_TRACE_METRICS_HH
#define TENSORFHE_TRACE_METRICS_HH

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hh"

namespace tensorfhe::exec
{
class Workspace;
}

namespace tensorfhe::trace
{

/** A registry-owned named counter (relaxed atomic). */
class Counter
{
  public:
    void
    add(u64 n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    u64
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void
    reset()
    {
        value_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<u64> value_{0};
};

/**
 * Power-of-two bucket histogram: observe(v) lands in bucket
 * floor(log2(v)) (v = 0 in bucket 0). Lock-free; fine-grained
 * distributions (span durations, batch sizes) without per-observe
 * allocation.
 */
class Histogram
{
  public:
    static constexpr std::size_t kBuckets = 64;

    void observe(u64 v);
    u64 count() const;
    u64 sum() const;
    /** Observations in bucket b, i.e. v in [2^b, 2^(b+1)). */
    u64 bucket(std::size_t b) const;
    void reset();

  private:
    std::atomic<u64> buckets_[kBuckets] = {};
    std::atomic<u64> count_{0};
    std::atomic<u64> sum_{0};
};

/** Flat snapshot: dotted metric name -> value. */
using MetricsSnapshot = std::map<std::string, double>;

class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** Registry-owned counter, created on first use (named
        custom.<name> in snapshots). */
    Counter &counter(const std::string &name);

    /** Set a gauge to an absolute value (custom.<name>). */
    void setGauge(const std::string &name, double value);

    /** Registry-owned histogram (custom.<name>.count|sum|p_bucket). */
    Histogram &histogram(const std::string &name);

    /**
     * Workspace arenas report per-instance; the registry aggregates
     * every live arena into the workspace.* metrics. Registration is
     * handled by exec::Dispatcher's ctor/dtor.
     */
    void registerWorkspace(const exec::Workspace *ws);
    void unregisterWorkspace(const exec::Workspace *ws);

    /** Read every island + the registry's own metrics. */
    MetricsSnapshot snapshot() const;

    /** snapshot() nested by dotted name as one JSON object. */
    std::string snapshotJson() const;

    /** snapshotJson() to a file; false on I/O failure. */
    bool writeSnapshotJson(const std::string &path) const;

    /** Clear custom counters/gauges/histograms (the islands have
        their own reset() calls; benches reset them directly). */
    void resetCustom();

  private:
    MetricsRegistry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::vector<const exec::Workspace *> workspaces_;
};

} // namespace tensorfhe::trace

#endif // TENSORFHE_TRACE_METRICS_HH
