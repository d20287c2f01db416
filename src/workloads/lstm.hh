/**
 * @file
 * Functional encrypted LSTM cell step — the scaled-down, fully
 * runnable counterpart of the paper's LSTM workload [54]. One step
 * computes, entirely on ciphertexts:
 *
 *   z = W_x x + W_h h + b          (two packed BSGS matvecs: the
 *                                   four gates' weights are stacked
 *                                   row-wise, so one matvec per
 *                                   operand covers i, f, o, g)
 *   s = sigmoid(z), t = tanh(z)    (power-ladder polynomials over
 *                                   the whole gate vector)
 *   gates = mask_ifo*s + mask_g*t  (one masked combine selects the
 *                                   right nonlinearity per gate)
 *   c' = f (had) c + i (had) g     (Hadamard gates, aligned by one
 *                                   hoisted multi-rotation)
 *   h' = o (had) tanh(c')
 *
 * Slots outside the logical ranges carry junk after the polynomial
 * stages; since every consumer is slot-local (Hadamard) or reads
 * only the logical slots (matvec columns, decryption), the junk
 * never reaches a logical value — no cleanup masks are spent on it.
 *
 * The step is written once, as buildStepGraph(). The cell keeps one
 * fused, scheduled copy of that graph: step() runs it and
 * modeledOps() folds it.
 */

#ifndef TENSORFHE_WORKLOADS_LSTM_HH
#define TENSORFHE_WORKLOADS_LSTM_HH

#include "graph/builder.hh"
#include "graph/executor.hh"
#include "nn/layers.hh"
#include "workloads/models.hh"

namespace tensorfhe::workloads
{

struct LstmConfig
{
    std::size_t dim = 8;       ///< embedding/state dimension
    std::size_t actDegree = 3; ///< sigmoid/tanh approximant degree
    u64 seed = 0x57ef;         ///< synthetic weight seed
};

class EncryptedLstmCell
{
  public:
    /** Builds and compiles the gate layers and the step graph;
        throws if over budget. */
    EncryptedLstmCell(const ckks::CkksContext &ctx, LstmConfig cfg = {});

    /** The step graph points into the cell's layers and masks. */
    EncryptedLstmCell(const EncryptedLstmCell &) = delete;
    EncryptedLstmCell &operator=(const EncryptedLstmCell &) = delete;

    /**
     * The functional parameter set the default config runs at:
     * N = 2^10 with a chain deep enough for the full gate pipeline
     * (matvec + degree-3 gates + combine + Hadamard + cell tanh).
     */
    static ckks::CkksParams recommendedParams();

    const LstmConfig &config() const { return cfg_; }

    /** Meta x, h and c must be encrypted at (contiguous, top level). */
    const nn::TensorMeta &inputMeta() const { return input_; }

    /** Rotation keys one step needs (deduplicated union). */
    std::vector<s64> requiredRotations() const;

    struct State
    {
        nn::CipherTensor h;
        nn::CipherTensor c;
    };

    struct PlainState
    {
        std::vector<double> h;
        std::vector<double> c;
    };

    /** One encrypted cell step (runs the step graph). x, h and c
        must sit at the cell's input meta. */
    State step(const nn::NnEngine &engine, const nn::CipherTensor &x,
               const State &prev) const;

    /**
     * Record one cell step as a kernel dataflow graph — the only
     * description of the step's schedule. Inputs bind in order
     * {x, h, c}, all at the cell's input meta (i.e. the first step
     * from fresh encryptions); outputs are {h', c'}. The two gate
     * matvecs and the masked combine are the graph's overlap/fusion
     * showcases. The cell must outlive the graph.
     */
    graph::Graph buildStepGraph(const ckks::CkksContext &ctx) const;

    /** Plaintext reference with the same polynomial gates. */
    PlainState stepPlain(const std::vector<double> &x,
                         const PlainState &prev) const;

    /** Executed ops of one step: graph::modeledOps over the step
        graph. */
    EvalOpCounts modeledOps() const;
    /** Same, in the op-count-model vocabulary. */
    OpCounts modeledCounts() const { return toOpCounts(modeledOps()); }

  private:
    LstmConfig cfg_;
    nn::TensorMeta input_;
    nn::Dense wx_;   ///< stacked (4d x d) input weights + bias
    nn::Dense wh_;   ///< stacked (4d x d) recurrent weights
    nn::PolyActivation sig_;
    nn::PolyActivation tanhGate_;
    nn::PolyActivation tanhCell_;
    ckks::Plaintext maskIfo_; ///< 1 on [0, 3d), scale q_last
    ckks::Plaintext maskG_;   ///< 1 on [3d, 4d), scale q_last
    double combScale_ = 0;    ///< exact scale after the combine
    std::size_t combLevel_ = 0;
    graph::Graph stepGraph_;   ///< fused and scheduled once
    std::unique_ptr<graph::GraphExecutor> stepExec_;
};

} // namespace tensorfhe::workloads

#endif // TENSORFHE_WORKLOADS_LSTM_HH
