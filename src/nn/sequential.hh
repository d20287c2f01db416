/**
 * @file
 * Sequential: the nn model runner. Owns a layer stack, compiles it
 * against an input TensorMeta (propagating shape/layout/level/scale
 * and validating the whole multiplicative budget up front, before
 * any key is generated or ciphertext touched), surfaces the union
 * rotation-key requirement of every layer, lowers the compiled stack
 * once into a fused, scheduled graph::Graph, and runs encrypted
 * batches through graph::GraphExecutor, every node output checked
 * against its compiled level and scale.
 */

#ifndef TENSORFHE_NN_SEQUENTIAL_HH
#define TENSORFHE_NN_SEQUENTIAL_HH

#include <memory>

#include "nn/layers.hh"
#include "plan/planner.hh"

namespace tensorfhe::graph
{
struct Graph;
class GraphExecutor;
} // namespace tensorfhe::graph

namespace tensorfhe::nn
{

class Sequential
{
  public:
    Sequential();
    ~Sequential();
    Sequential(Sequential &&) noexcept;
    Sequential &operator=(Sequential &&) noexcept;

    /** Append a layer (before compile). */
    void add(std::unique_ptr<Layer> layer);

    /**
     * Let compile() insert nn::Bootstrap layers wherever the level
     * ledger would go negative: before any layer whose cost (plus
     * the >= 1 terminal reserve, plus the >= 2 floor a later
     * bootstrap itself needs) exceeds the running budget, a
     * bootstrap refresh is spliced in and the walk continues at the
     * refreshed level. The inserted layers join the stack — their
     * rotation/conjugation key needs surface through
     * requiredRotations()/requiredConjRotations(), their ops through
     * modeledOps(), and run() batches them like any other layer.
     * Must be called before compile().
     */
    void enableAutoBootstrap(boot::SineConfig sine = {});

    /**
     * Let compile() run the GLOBAL execution planner instead of the
     * greedy splice: plan::planSequential searches bootstrap
     * placement, level drops and per-layer levels against
     * perf::CostModel, rebuilds the stack at the planned levels
     * (matvec strides re-chosen per level, root-pattern key
     * restriction lifted — run the net on an on-demand
     * ckks::KeyStore, or generate exactly requiredRotations()), and
     * run() consumes the resulting immutable ExecutionPlan. Subsumes
     * enableAutoBootstrap. Must be called before compile().
     */
    void enablePlanner(plan::PlannerOptions opts = {});

    /** Construct-and-append convenience; returns the layer. */
    template <typename L, typename... Args>
    L &
    emplace(Args &&...args)
    {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L &ref = *layer;
        add(std::move(layer));
        return ref;
    }

    /**
     * Compile every layer against the propagated metas, then lower
     * the stack to one graph (graph::compileSequential) and schedule
     * it with the default fused schedule. Throws
     * std::invalid_argument with the per-layer level ledger when the
     * input's multiplicative budget cannot cover the stack — the
     * whole-model validation happens here, up front.
     */
    TensorMeta compile(const ckks::CkksContext &ctx,
                       const TensorMeta &input);

    /**
     * Union rotation-key set of every layer (deduplicated via the
     * shared step-set helper): generate exactly these keys and every
     * layer can run, with no Galois key duplicated across layers.
     */
    std::vector<s64> requiredRotations() const;

    /** Union conjugate-rotation key set (bootstrap layers' fused C2S
        split steps; empty when no bootstrap is present). */
    std::vector<s64> requiredConjRotations() const;

    /** Total multiplicative levels the stack consumes (bootstrap
        layers count 0 — they restore the budget). */
    std::size_t levelCost() const;

    /** Bootstrap layers in the compiled stack (inserted + manual). */
    std::size_t bootstrapCount() const;

    /**
     * Encrypted inference over a batch: flattens it sample-major and
     * runs the compiled graph. Each sample must match the compiled
     * input meta; every node output is checked against its compiled
     * level and scale (drift raises IntegrityError).
     */
    std::vector<CipherTensor>
    run(const NnEngine &engine,
        const std::vector<CipherTensor> &batch) const;

    /** Single-sample convenience. */
    CipherTensor run(const NnEngine &engine,
                     const CipherTensor &input) const;

    /** Plaintext reference with the same layer arithmetic. */
    std::vector<double> runPlain(std::vector<double> values) const;

    /** Executed ops of one sample: graph::modeledOps over the
        compiled graph. */
    EvalOpCounts modeledOps() const;

    const std::vector<std::unique_ptr<Layer>> &layers() const
    {
        return layers_;
    }
    const TensorMeta &inputMeta() const;
    const TensorMeta &outputMeta() const;
    bool compiled() const { return compiled_; }

    /**
     * The immutable schedule run() replays (valid after compile).
     * Both compile paths build one: the greedy path records its
     * splice walk (greedyWork == plannedWork), the planner path its
     * searched schedule (plannedWork <= greedyWork).
     */
    const plan::ExecutionPlan &executionPlan() const;

  private:
    /** Lower the compiled stack and schedule it (end of compile). */
    void lowerStack(const ckks::CkksContext &ctx);

    std::vector<std::unique_ptr<Layer>> layers_;
    TensorMeta input_;
    TensorMeta output_;
    bool compiled_ = false;
    bool autoBoot_ = false;
    bool planner_ = false;
    boot::SineConfig sine_;
    plan::PlannerOptions plannerOpts_;
    plan::ExecutionPlan plan_;
    /// Heap-held so the executor's graph pointer survives a move.
    std::unique_ptr<graph::Graph> graph_;
    std::unique_ptr<graph::GraphExecutor> exec_;
};

} // namespace tensorfhe::nn

#endif // TENSORFHE_NN_SEQUENTIAL_HH
