/**
 * @file
 * GraphExecutor: runs a scheduled graph, one batch::BatchedEvaluator
 * / exec::Dispatcher call per node. It is the only executor: layers
 * (nn::Layer::apply), models (nn::Sequential::run) and the LSTM cell
 * step all run their lowered graphs here. A fused and an unfused
 * schedule of one graph are bit-identical by construction, not by
 * tolerance (the tests compare raw residue limbs):
 *
 *   - FusedEle nodes run one exec::Dispatcher::fusedElementwise span
 *     pass instead of N member launches (fewer kernel launches, same
 *     bits, same EvalOpStats);
 *   - every node's kernel launches are captured (KernelStats queue)
 *     and tagged with the scheduler's stream plus explicit
 *     dependencies, producing the gpu::ScheduledLaunch queue that
 *     gpu::replayScheduledQueue overlaps on the GPU model;
 *   - each value is released after its last consumer runs, so a
 *     run holds only the live frontier, not every intermediate;
 *   - prestageWorkspace() walks the graph's scratch demand once and
 *     seeds the exec::Workspace arena, so even the first run of a
 *     compiled graph hits steady-state (>90%) buffer reuse.
 *
 * Resilience (this layer is where the fault story composes):
 *
 *   - a node that raises TransientFault — or IntegrityError on its
 *     own freshly produced output — is retried up to
 *     RetryPolicy::maxAttempts with backoff. The graph is SSA and
 *     the node kinds are pure (inputs are read, never mutated), so a
 *     successful retry is bit-identical to an uninterrupted run; the
 *     failed attempt's EvalOpStats are rolled back and its captured
 *     launches discarded, so the accounting is identical too.
 *   - every node output is checked against its compiled ValueMeta
 *     (level count and scale) in every mode: drift raises
 *     IntegrityError with the node attached;
 *   - paranoid mode also validates residues (< q_i) at every node
 *     boundary and keeps per-chunk checksums, re-verified when a
 *     value is consumed: at-rest corruption raises IntegrityError
 *     instead of decrypting to a silently wrong logit.
 *   - nodes stamped with a named step (Graph::steps) run inside one
 *     "nn"/<step name> trace span per contiguous run.
 *   - checkpointEvery > 0 snapshots the live value set at
 *     scheduler-chosen minimum-footprint cuts; resumeFrom() verifies
 *     the snapshot's checksums and re-executes only the nodes
 *     downstream of the cut.
 *   - strong exception safety: a failed run leaves the engine
 *     reusable — pooled leases return via RAII unwinding, the
 *     kernel-queue capture is closed by its guard, and the failed
 *     node's EvalOpStats contribution is rolled back.
 */

#ifndef TENSORFHE_GRAPH_EXECUTOR_HH
#define TENSORFHE_GRAPH_EXECUTOR_HH

#include "gpu/pipeline.hh"
#include "graph/schedule.hh"
#include "resilience/checkpoint.hh"
#include "resilience/retry.hh"

namespace tensorfhe::graph
{

struct ExecOptions
{
    /** Capture the per-node kernel launches into a scheduled queue
        (KernelStats queue capture; modest overhead). */
    bool captureSchedule = false;

    /** Validate + checksum every value at node boundaries; consumed
        values are re-verified against their stored digest. */
    bool paranoid = false;

    /** Per-node retry of transient faults (maxAttempts = 1 disables). */
    resilience::RetryPolicy retry;

    /** Snapshot the live value set roughly every N executed nodes at
        the cheapest cut in each window (0 disables). */
    std::size_t checkpointEvery = 0;

    /** Where checkpoints are appended (required when
        checkpointEvery > 0). */
    std::vector<resilience::Checkpoint> *checkpointLog = nullptr;
};

struct ExecResult
{
    /** One batch per graph output, in Graph::outputs order. */
    std::vector<Cts> outputs;
    /** Stream- and dependency-tagged launch queue (when captured). */
    std::vector<gpu::ScheduledLaunch> schedule;
    std::size_t launchCount = 0;
    /** Node re-executions that recovered a transient failure. */
    std::size_t retriesUsed = 0;
    std::size_t checkpointsTaken = 0;
};

class GraphExecutor
{
  public:
    GraphExecutor(const Graph &g, Schedule sched)
        : g_(&g), sched_(std::move(sched)),
          lastUse_(resilience::valueLastUse(g, sched_))
    {}

    /**
     * Execute over one batch per graph input (Graph::inputs order);
     * every input must hold meta.chunkCount * B ciphertexts for one
     * common batch size B, laid out sample-major.
     */
    ExecResult run(const nn::NnEngine &engine,
                   std::vector<Cts> inputs,
                   const ExecOptions &opt = {}) const;

    /**
     * Resume a failed run from a checkpoint this executor's graph
     * wrote: verifies the snapshot's per-chunk checksums (a corrupted
     * checkpoint raises IntegrityError, never resumes into garbage),
     * restores the live values, and executes only the schedule suffix
     * from the cut. Bit-identical to a straight-through run. The
     * checkpoint is read, not consumed — a second resume works.
     */
    ExecResult resumeFrom(const nn::NnEngine &engine,
                          const resilience::Checkpoint &cp,
                          const ExecOptions &opt = {}) const;

    /**
     * Seed the engine's workspace arena with the largest scratch
     * shape the tower admits (the key-switch union basis), enough
     * buffers for the graph's widest value: via the arena's best-fit
     * scan every smaller checkout is then served from the pool.
     */
    void prestageWorkspace(const nn::NnEngine &engine,
                           std::size_t batch) const;

    const Schedule &schedule() const { return sched_; }
    const Graph &graph() const { return *g_; }

  private:
    ExecResult runSchedule(const nn::NnEngine &engine,
                           std::vector<Cts> &vals,
                           std::vector<std::vector<u64>> &sums,
                           std::vector<Cts> inputs,
                           std::size_t startPos,
                           const ExecOptions &opt) const;

    const Graph *g_;
    Schedule sched_;
    /// Schedule position of each value's last consumer: a value is
    /// released once it has run.
    std::vector<std::size_t> lastUse_;
};

} // namespace tensorfhe::graph

#endif // TENSORFHE_GRAPH_EXECUTOR_HH
