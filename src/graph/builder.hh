/**
 * @file
 * GraphBuilder: records an op stream into a graph::Graph.
 *
 * Every builder method mirrors one batch::BatchedEvaluator call and
 * propagates the value meta (level count, scale) with the SAME
 * double arithmetic the evaluator performs at runtime, so the
 * scheduler's legality checks see the scales execution will see.
 * The builder does NOT reject ct-ct scale mismatches — the evaluator
 * does that at runtime, and the scheduler must refuse to fuse across
 * such an edge (tests build deliberately-mismatched graphs to pin
 * that refusal down without executing anything).
 *
 * Layers write their schedule once, as nn::Layer::lower() calls on a
 * builder: matvec layers record per-out-chunk BsgsSum nodes
 * (independent branches the scheduler can overlap), activations
 * their power-ladder node chains, Bootstrap one opaque node. Running
 * a layer (nn::Layer::apply, nn::Sequential::run) executes the
 * lowered graph, and its op model is graph::modeledOps over the same
 * nodes. compileSequential() lowers a compiled model step by step.
 */

#ifndef TENSORFHE_GRAPH_BUILDER_HH
#define TENSORFHE_GRAPH_BUILDER_HH

#include "graph/ir.hh"
#include "nn/sequential.hh"

namespace tensorfhe::graph
{

class GraphBuilder
{
  public:
    explicit GraphBuilder(const ckks::CkksContext &ctx) : ctx_(&ctx) {}

    /** Declare one caller-supplied input batch. */
    ValueId input(std::size_t chunk_count, std::size_t level_count,
                  double scale);

    ValueId add(ValueId a, ValueId b);
    ValueId sub(ValueId a, ValueId b);
    ValueId addPlain(ValueId a, const ckks::Plaintext &pt);
    ValueId mulPlain(ValueId a, const ckks::Plaintext &pt);
    ValueId mulConstToScale(ValueId a, double c, double target_scale);
    ValueId addConst(ValueId a, double c);
    ValueId rescale(ValueId a);
    ValueId multiply(ValueId a, ValueId b);
    std::vector<ValueId> rotateMany(ValueId a,
                                    std::vector<s64> steps);
    ValueId
    rotate(ValueId a, s64 step)
    {
        return rotateMany(a, {step})[0];
    }
    /** No-op when `a` is already at `level_count`. */
    ValueId drop(ValueId a, std::size_t level_count);
    /** Exact metadata scale reset (the LSTM combine's trick). */
    ValueId setScale(ValueId a, double scale);
    /** Flat value of k chunks -> k per-chunk values (identity for
        k == 1: returns {a} without a node). */
    std::vector<ValueId> unpack(ValueId a);
    /** Per-chunk values -> one flat value (identity for 1 chunk). */
    ValueId pack(const std::vector<ValueId> &chunks);
    /** One applyBsgsSum: term t runs plans[t] over term_inputs[t]
        (each a 1-chunk value), all terms accumulating on QP into one
        output chunk. */
    ValueId bsgsSum(
        std::vector<const boot::LinearTransformPlan *> plans,
        const std::vector<ValueId> &term_inputs);
    /** Opaque bootstrap refresh (nn::Bootstrap::refresh). */
    ValueId bootstrap(const nn::Bootstrap &layer, ValueId a);

    /** Stamp every node recorded from here on with a new named step
        (Graph::steps), until endStep(). */
    void beginStep(std::string name);
    /** Close the open step at its result value. */
    void endStep(ValueId out);

    /** Mark a graph output (kept alive, never fused away). */
    void output(ValueId v);

    const ValueMeta &meta(ValueId v) const { return g_.values[v]; }
    const ckks::CkksContext &ctx() const { return *ctx_; }

    /** Finish: moves the graph out; the builder is spent. */
    Graph take() { return std::move(g_); }

  private:
    ValueId newValue(std::size_t chunk_count, std::size_t level_count,
                     double scale, NodeId producer);
    NodeId newNode(NodeKind kind, std::vector<ValueId> inputs);

    const ckks::CkksContext *ctx_;
    Graph g_;
    std::size_t step_ = kNoStep;
};

/**
 * Lower a compiled nn::Sequential into a one-input, one-output graph:
 * one named step per ExecutionPlan step, each the step's layer
 * lower(). Sequential::compile schedules one of these and run()
 * executes it. The model's layers must outlive the graph.
 */
Graph compileSequential(const ckks::CkksContext &ctx,
                        const nn::Sequential &seq);

} // namespace tensorfhe::graph

#endif // TENSORFHE_GRAPH_BUILDER_HH
