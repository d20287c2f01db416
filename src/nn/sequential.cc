#include "nn/sequential.hh"

#include <cmath>
#include <sstream>

#include "ckks/rotations.hh"
#include "common/errors.hh"
#include "common/logging.hh"
#include "graph/builder.hh"
#include "graph/executor.hh"
#include "trace/trace.hh"

namespace tensorfhe::nn
{

Sequential::Sequential() = default;
Sequential::~Sequential() = default;
Sequential::Sequential(Sequential &&) noexcept = default;
Sequential &Sequential::operator=(Sequential &&) noexcept = default;

void
Sequential::add(std::unique_ptr<Layer> layer)
{
    requireArg(!compiled_, "cannot add layers after compile()");
    requireArg(layer != nullptr, "null layer");
    layers_.push_back(std::move(layer));
}

void
Sequential::enableAutoBootstrap(boot::SineConfig sine)
{
    requireArg(!compiled_,
               "enableAutoBootstrap must precede compile()");
    autoBoot_ = true;
    sine_ = sine;
}

void
Sequential::enablePlanner(plan::PlannerOptions opts)
{
    requireArg(!compiled_, "enablePlanner must precede compile()");
    planner_ = true;
    plannerOpts_ = std::move(opts);
}

TensorMeta
Sequential::compile(const ckks::CkksContext &ctx,
                    const TensorMeta &input)
{
    requireArg(!compiled_, "model compiled twice");
    requireArg(!layers_.empty(), "empty model");

    if (planner_) {
        auto res = plan::planSequential(ctx, std::move(layers_),
                                        input, plannerOpts_);
        layers_ = std::move(res.stack);
        plan_ = std::move(res.plan);
        input_ = input;
        output_ = res.output;
        compiled_ = true;
        lowerStack(ctx);
        return output_;
    }

    if (!autoBoot_) {
        // Whole-model budget validation up front: walk the level
        // ledger before any layer builds plans, so a model that
        // cannot fit the chain fails with the full per-layer picture
        // instead of dying midway through an inference.
        std::size_t need = 0;
        std::ostringstream ledger;
        for (const auto &l : layers_) {
            need += l->levelCost();
            ledger << "\n  " << l->name() << ": " << l->levelCost();
        }
        requireBudget(input.levelCount >= need + 1,
                      "nn/sequential-compile",
                      "level budget exhausted: input has ",
                      input.levelCount, " level counts, the stack "
                                        "consumes ",
                      need, " and must leave >= 1; per-layer costs:",
                      ledger.str());
    }

    // Bootstrap-aware walk: before each layer, if the running budget
    // cannot cover its cost plus the terminal reserve (>= 1 after
    // the last layer) plus the >= 2 floor any LATER bootstrap's
    // SlotToCoeff needs, splice in a refresh and continue at the
    // predicted level. The spliced layers become part of the stack.
    // The walk also records the greedy ExecutionPlan run() replays.
    perf::CostModel model(ctx.params());
    std::vector<plan::PlanStep> steps;
    std::vector<std::unique_ptr<Layer>> compiled;
    compiled.reserve(layers_.size());
    TensorMeta meta = input;
    std::ostringstream walked; // post-splice ledger for error paths
    auto record = [&](plan::PlanStep::Kind kind, const Layer &l,
                      const TensorMeta &in) {
        plan::PlanStep st;
        st.kind = kind;
        st.layerIndex = compiled.size();
        st.name = l.name();
        st.in = in;
        st.out = l.outputMeta();
        st.work = perf::CostModel::work(
            l.costAt(model, in.levelCount));
        steps.push_back(std::move(st));
        walked << "\n  " << l.name() << ": level " << in.levelCount
               << " -> " << l.outputMeta().levelCount;
    };
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        auto &l = layers_[i];
        bool last = i + 1 == layers_.size();
        std::size_t need = l->levelCost() + (last ? 1 : 2);
        if (autoBoot_ && meta.levelCount < need) {
            auto b = std::make_unique<Bootstrap>(sine_);
            TensorMeta pre = meta;
            meta = b->compile(ctx, meta);
            // The error must show the ledger INCLUDING the splices
            // walked so far (the post-splice ledger) — the pre-splice
            // ledger hid where refreshes actually landed.
            requireBudget(meta.levelCount >= need,
                          "nn/sequential-compile",
                          "layer ", l->name(), " needs ", need,
                          " level counts but a bootstrap refreshes "
                          "only to ",
                          meta.levelCount,
                          " — the layer cannot fit this chain even "
                          "after bootstrapping; layers compiled so "
                          "far:",
                          walked.str(), "\n  Bootstrap: level ",
                          pre.levelCount, " -> ", meta.levelCount);
            record(plan::PlanStep::Kind::Bootstrap, *b, pre);
            compiled.push_back(std::move(b));
        }
        TensorMeta in = meta;
        meta = l->compile(ctx, meta);
        record(dynamic_cast<const Bootstrap *>(l.get())
                   ? plan::PlanStep::Kind::Bootstrap
                   : (dynamic_cast<const LevelDrop *>(l.get())
                          ? plan::PlanStep::Kind::LevelDrop
                          : plan::PlanStep::Kind::Layer),
               *l, in);
        compiled.push_back(std::move(l));
    }
    layers_ = std::move(compiled);
    double greedy = 0;
    for (const auto &s : steps)
        greedy += s.work;
    plan_ = plan::ExecutionPlan(std::move(steps), greedy);
    input_ = input;
    output_ = meta;
    compiled_ = true;
    lowerStack(ctx);
    return output_;
}

void
Sequential::lowerStack(const ckks::CkksContext &ctx)
{
    graph_ = std::make_unique<graph::Graph>(
        graph::compileSequential(ctx, *this));
    exec_ = std::make_unique<graph::GraphExecutor>(
        *graph_, graph::scheduleGraph(*graph_));
}

const plan::ExecutionPlan &
Sequential::executionPlan() const
{
    requireState(compiled_, "model used before compile()");
    return plan_;
}

std::vector<s64>
Sequential::requiredRotations() const
{
    requireState(compiled_, "model used before compile()");
    std::vector<std::vector<s64>> lists;
    lists.reserve(layers_.size());
    for (const auto &l : layers_)
        lists.push_back(l->requiredRotations());
    return ckks::unionRotationSteps(lists);
}

std::vector<s64>
Sequential::requiredConjRotations() const
{
    requireState(compiled_, "model used before compile()");
    std::vector<std::vector<s64>> lists;
    lists.reserve(layers_.size());
    for (const auto &l : layers_)
        lists.push_back(l->requiredConjRotations());
    return ckks::unionRotationSteps(lists);
}

std::size_t
Sequential::levelCost() const
{
    std::size_t total = 0;
    for (const auto &l : layers_)
        total += l->levelCost();
    return total;
}

std::size_t
Sequential::bootstrapCount() const
{
    std::size_t count = 0;
    for (const auto &l : layers_)
        if (dynamic_cast<const Bootstrap *>(l.get()) != nullptr)
            ++count;
    return count;
}

namespace
{

void
requireMetaMatch(const TensorMeta &got, const TensorMeta &want,
                 const std::string &where)
{
    requireArg(got.shape == want.shape && got.layout == want.layout
                   && got.chunkCount == want.chunkCount,
               where, ": tensor packing does not match the compiled "
                      "meta");
    requireArg(got.levelCount == want.levelCount,
               where, ": level count ", got.levelCount,
               " != compiled ", want.levelCount);
    requireArg(std::abs(got.scale - want.scale) <= 1e-6 * want.scale,
               where, ": scale ", got.scale, " != compiled ",
               want.scale);
}

} // namespace

std::vector<CipherTensor>
Sequential::run(const NnEngine &engine,
                const std::vector<CipherTensor> &batch) const
{
    requireState(compiled_, "model used before compile()");
    requireArg(!batch.empty(), "empty batch");
    for (const auto &t : batch)
        requireMetaMatch(t.meta(), input_, "input");

    // Flatten to (sample x chunk): the graph's input batch.
    Cts flat;
    flat.reserve(batch.size() * input_.chunkCount);
    for (const auto &t : batch)
        for (const auto &ct : t.chunks())
            flat.push_back(ct);

    trace::TraceSpan runSpan("nn", "sequential-run");
    runSpan.arg("batch", static_cast<s64>(batch.size()))
        .arg("layers", static_cast<s64>(layers_.size()));
    auto res = exec_->run(engine, {std::move(flat)});
    flat = std::move(res.outputs[0]);

    std::size_t out_chunks = output_.chunkCount;
    std::vector<CipherTensor> out;
    out.reserve(batch.size());
    for (std::size_t s = 0; s < batch.size(); ++s) {
        std::vector<ckks::Ciphertext> cts(
            std::make_move_iterator(flat.begin()
                                    + static_cast<std::ptrdiff_t>(
                                        s * out_chunks)),
            std::make_move_iterator(flat.begin()
                                    + static_cast<std::ptrdiff_t>(
                                        (s + 1) * out_chunks)));
        out.emplace_back(output_.shape, output_.layout,
                         std::move(cts));
    }
    return out;
}

CipherTensor
Sequential::run(const NnEngine &engine, const CipherTensor &input) const
{
    auto out = run(engine, std::vector<CipherTensor>{input});
    return std::move(out[0]);
}

std::vector<double>
Sequential::runPlain(std::vector<double> values) const
{
    requireState(compiled_, "model used before compile()");
    for (const auto &l : layers_)
        values = l->applyPlain(values);
    return values;
}

EvalOpCounts
Sequential::modeledOps() const
{
    requireState(compiled_, "model used before compile()");
    return graph::modeledOps(*graph_);
}

const TensorMeta &
Sequential::inputMeta() const
{
    requireState(compiled_, "model used before compile()");
    return input_;
}

const TensorMeta &
Sequential::outputMeta() const
{
    requireState(compiled_, "model used before compile()");
    return output_;
}

} // namespace tensorfhe::nn
