/**
 * @file
 * Wall-clock benchmark harness: runs one workload on real ciphertexts
 * as a closed loop with one client, checks every decrypted result
 * against the plaintext reference, and streams one JSON object per
 * line on stdout so a supervising process (perfbench/run.py) keeps
 * every finished request even if this process crashes or hangs.
 *
 * Usage: perfbench_harness --workload ops_setc|deep_cnn|lstm_graph
 *                          --seed S --requests N --setups K
 *                          [--trace 0|1]
 *
 * Lines, in order:
 *   {"type":"setup","s":...}   one per set-up (K of them)
 *   {"type":"info",...}        CPU, pool lanes, dispatch, SIMD backend,
 *                              params
 *   {"type":"req","i":..,"ms":..,"ok":..,"err":..,"hmult":..,
 *    "hrotate":..,"t":{layer timers}}   one per request, i = 1..N
 *   {"type":"end","layers":{...}}       per-layer metrics
 *
 * The process pins itself to one CPU before the first library call:
 * the library's ThreadPool races when its lanes run on several CPUs,
 * and pinned runs do not crash. On that one CPU every library dispatch
 * runs inline on the request thread (see InlineDispatch), so the run
 * measures the program and not the scheduler time-slicing pool lanes.
 * Spans are recorded only from this file (around the calls into each
 * layer) and read from the spans the library already emits; nothing is
 * added inside src/.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <future>
#include <thread>
#include <vector>

#include "batch/executor.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "graph/executor.hh"
#include "simd/simd.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"
#include "workloads/cnn.hh"
#include "workloads/lstm.hh"

namespace
{

using namespace tensorfhe;
using Clock = std::chrono::steady_clock;
using Cts = std::vector<ckks::Ciphertext>;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** One JSON object per line; flushed so a crash loses nothing. */
class Line
{
  public:
    explicit Line(const char *type)
    {
        os_.precision(17);
        os_ << "{\"type\":\"" << type << '"';
    }

    Line &
    num(const std::string &key, double v)
    {
        os_ << ",\"" << key << "\":";
        if (std::isfinite(v))
            os_ << v;
        else
            os_ << "null";
        return *this;
    }

    Line &
    str(const std::string &key, const std::string &v)
    {
        os_ << ",\"" << key << "\":\"" << v << '"';
        return *this;
    }

    Line &
    obj(const std::string &key, const std::map<std::string, double> &m)
    {
        os_ << ",\"" << key << "\":{";
        bool first = true;
        for (const auto &[k, v] : m) {
            os_ << (first ? "" : ",") << '"' << k << "\":"
                << (std::isfinite(v) ? v : 0.0);
            first = false;
        }
        os_ << '}';
        return *this;
    }

    void
    emit()
    {
        os_ << "}\n";
        std::fputs(os_.str().c_str(), stdout);
        std::fflush(stdout);
    }

  private:
    std::ostringstream os_;
};

/**
 * Harness-side timers around public calls into one layer, summed
 * over a run (name -> ms). Each timed call is also a "harness" span,
 * so the traced run can tell covered time from unexplained time.
 */
struct LayerTimers
{
    std::map<std::string, double> ms;

    template <class F>
    auto
    time(const char *name, F &&f)
    {
        trace::TraceSpan sp("harness", name);
        auto t0 = Clock::now();
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            ms[name] += msSince(t0);
        } else {
            auto r = f();
            ms[name] += msSince(t0);
            return r;
        }
    }
};

/** Result of checking one request against the plaintext reference. */
struct Check
{
    bool ok = false;
    double maxErr = 0; ///< largest absolute error over checked values
};

/** Largest |got - want| over the common prefix; inf on size mismatch. */
double
maxAbsErr(const std::vector<double> &got, const std::vector<double> &want)
{
    if (got.size() != want.size())
        return INFINITY;
    double e = 0;
    for (std::size_t i = 0; i < got.size(); ++i)
        e = std::max(e, std::abs(got[i] - want[i]));
    return e;
}

std::vector<double>
uniformVector(Rng &rng, std::size_t n, double lo, double hi)
{
    std::vector<double> v(n);
    for (auto &x : v)
        x = lo + (hi - lo) * rng.uniformReal();
    return v;
}

/**
 * One workload, built by its constructor with inputs for requests
 * 0..n; request 0 is the set-up's warm-up.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** The timed part of request i (encrypt/run/decrypt or the ops). */
    virtual void request(std::size_t i, LayerTimers &t) = 0;
    /** Check request i's output (outside the request timer). */
    virtual Check check(std::size_t i) = 0;
    virtual const ckks::CkksParams &params() const = 0;

    /** Set-up phase timers (keygen, compile), ms. */
    LayerTimers setup;
};

constexpr double kTolerance = 1e-2;

/**
 * Key material is fixed (one client, one key pair, as in deployment);
 * --seed drives the inputs and the encryption randomness. At Set C the
 * rotation error is a key-dependent constant (4.6 to 8.2 bits over ten
 * keys), which would otherwise dominate precision_bits' spread.
 */
constexpr u64 kKeySeed = 0x6b65797365656400ull;

// ---------------------------------------------------------------------
// ops_setc: B = 4 ciphertext pairs at HEAX Set C through
// multiply -> rescaleInPlace -> rotate(1). Large ring, working set well
// beyond L2, no nn/graph/boot/plan: kernel- and key-switch-bound.

class OpsSetC : public Workload
{
  public:
    static constexpr std::size_t kBatch = 4;
    static constexpr std::size_t kBatches = 2; ///< input pool, cycled
    /**
     * Looser than kTolerance: at Set C (27-bit scale, N = 2^14,
     * dnum = 8) a fresh encryption already errs by ~2e-3 and one
     * rotation by ~2e-2 (key-switch noise grows with dnum). A wrong
     * result errs by ~1; precision_bits reports the actual error.
     */
    static constexpr double kSetCTolerance = 1e-1;

    explicit OpsSetC(u64 seed)
        : ctx_(ckks::Presets::heaxSetC()), rng_(seed ^ 0x5e7c),
          sk_(ctx_.generateSecretKey(keyRng_)),
          keys_(setup.time("ckks.keygen",
                           [&] { return ctx_.generateKeys(sk_, keyRng_, {1}); })),
          enc_(ctx_, keys_.pk), dec_(ctx_, sk_), eval_(ctx_, keys_)
    {
        std::size_t slots = ctx_.slots();
        std::size_t lc = ctx_.tower().numQ();
        double scale = ctx_.params().scale();
        Rng data(seed);
        for (std::size_t b = 0; b < kBatches; ++b) {
            Cts a, c;
            for (std::size_t k = 0; k < kBatch; ++k) {
                auto va = uniformVector(data, slots, -1, 1);
                auto vb = uniformVector(data, slots, -1, 1);
                a.push_back(encrypt(va, scale, lc));
                c.push_back(encrypt(vb, scale, lc));
                std::vector<double> want(slots);
                for (std::size_t j = 0; j < slots; ++j)
                    want[j] = va[(j + 1) % slots] * vb[(j + 1) % slots];
                want_.push_back(std::move(want));
            }
            a_.push_back(std::move(a));
            b_.push_back(std::move(c));
        }
    }

    void
    request(std::size_t i, LayerTimers &t) override
    {
        const auto &a = a_[i % kBatches];
        const auto &b = b_[i % kBatches];
        auto prod = t.time("batch.hmult", [&] { return eval_.multiply(a, b); });
        t.time("batch.rescale", [&] { eval_.rescaleInPlace(prod); });
        out_ = t.time("batch.rotate", [&] { return eval_.rotate(prod, 1); });
    }

    Check
    check(std::size_t i) override
    {
        // One output of the batch, rotating through its positions.
        std::size_t k = i % kBatch;
        auto got = dec_.decryptAndDecode(out_.at(k));
        std::vector<double> re(got.size());
        for (std::size_t j = 0; j < got.size(); ++j)
            re[j] = got[j].real();
        Check c;
        c.maxErr = maxAbsErr(re, want_[(i % kBatches) * kBatch + k]);
        c.ok = c.maxErr < kSetCTolerance;
        return c;
    }

    const ckks::CkksParams &params() const override { return ctx_.params(); }

  private:
    ckks::Ciphertext
    encrypt(const std::vector<double> &v, double scale, std::size_t lc)
    {
        std::vector<ckks::Complex> z(v.begin(), v.end());
        return enc_.encrypt(ctx_.encoder().encode(z, scale, lc), rng_);
    }

    ckks::CkksContext ctx_;
    Rng rng_;
    Rng keyRng_{kKeySeed};
    ckks::SecretKey sk_;
    ckks::KeyBundle keys_;
    ckks::Encryptor enc_;
    ckks::Decryptor dec_;
    batch::BatchedEvaluator eval_;
    std::vector<Cts> a_, b_;
    std::vector<std::vector<double>> want_; ///< per (batch, slot)
    Cts out_;
};

// ---------------------------------------------------------------------
// deep_cnn: one image per request through the planner-compiled deep
// CNN (N = 2^8, 21 limbs, one mid-network bootstrap). Small
// ciphertexts: dispatch-, bootstrap- and BSGS-bound.

class DeepCnn : public Workload
{
  public:
    DeepCnn(u64 seed, std::size_t requests)
        : ctx_(workloads::EncryptedCnnClassifier::recommendedDeepParams()),
          cnn_(setup.time("plan.compile", [&] {
              auto cfg = workloads::EncryptedCnnClassifier::deepConfig();
              cfg.usePlanner = true;
              return std::make_unique<workloads::EncryptedCnnClassifier>(
                  ctx_, cfg);
          })),
          rng_(seed ^ 0xc44),
          sk_(ctx_.generateSecretKey(keyRng_)),
          keys_(setup.time("ckks.keygen", [&] {
              return ctx_.generateKeys(sk_, keyRng_, cnn_->requiredRotations(),
                                       cnn_->requiredConjRotations());
          })),
          enc_(ctx_, keys_.pk), dec_(ctx_, sk_), engine_(ctx_, keys_)
    {
        const auto &c = cnn_->config();
        Rng data(seed);
        for (std::size_t i = 0; i <= requests; ++i)
            images_.push_back(uniformVector(
                data, c.inChannels * c.height * c.width, 0, 1));
    }

    void
    request(std::size_t idx, LayerTimers &t) override
    {
        const auto &meta = cnn_->inputMeta();
        auto x = t.time("ckks.encrypt", [&] {
            return nn::encryptTensor(ctx_, enc_, rng_, images_.at(idx),
                                     meta.shape, meta.levelCount);
        });
        auto y = t.time("nn.run", [&] { return cnn_->net().run(engine_, x); });
        logits_ = t.time("ckks.decrypt",
                         [&] { return nn::decryptTensor(ctx_, dec_, y); });
    }

    Check
    check(std::size_t idx) override
    {
        auto plain = cnn_->classifyPlain(images_.at(idx));
        Check c;
        c.maxErr = maxAbsErr(logits_, plain.logits);
        std::size_t argmax = static_cast<std::size_t>(
            std::max_element(logits_.begin(), logits_.end())
            - logits_.begin());
        c.ok = c.maxErr < kTolerance && argmax == plain.argmax;
        return c;
    }

    const ckks::CkksParams &params() const override { return ctx_.params(); }

  private:
    ckks::CkksContext ctx_;
    std::unique_ptr<workloads::EncryptedCnnClassifier> cnn_;
    Rng rng_;
    Rng keyRng_{kKeySeed};
    ckks::SecretKey sk_;
    ckks::KeyBundle keys_;
    ckks::Encryptor enc_;
    ckks::Decryptor dec_;
    nn::NnEngine engine_;
    std::vector<std::vector<double>> images_;
    std::vector<double> logits_;
};

// ---------------------------------------------------------------------
// lstm_graph: B = 4 sequences per request through the compiled and
// fused LSTM step graph at N = 2^10, fresh x/h/c each request. The only
// workload through the graph layer.

class LstmGraph : public Workload
{
  public:
    static constexpr std::size_t kBatch = 4;

    LstmGraph(u64 seed, std::size_t requests)
        : ctx_(workloads::EncryptedLstmCell::recommendedParams()), cell_(ctx_),
          rng_(seed ^ 0x157),
          sk_(ctx_.generateSecretKey(keyRng_)),
          keys_(setup.time("ckks.keygen", [&] {
              return ctx_.generateKeys(sk_, keyRng_, cell_.requiredRotations());
          })),
          enc_(ctx_, keys_.pk), dec_(ctx_, sk_), engine_(ctx_, keys_),
          graph_(cell_.buildStepGraph(ctx_)),
          exec_(graph_, setup.time("graph.compile",
                                   [&] { return graph::scheduleGraph(graph_); }))
    {
        std::size_t d = cell_.config().dim;
        Rng data(seed);
        // Request i runs sequences [i B, (i + 1) B).
        for (std::size_t s = 0; s < (requests + 1) * kBatch; ++s)
            inputs_.push_back({uniformVector(data, d, -1, 1),
                               uniformVector(data, d, -1, 1),
                               uniformVector(data, d, -1, 1)});
    }

    void
    request(std::size_t b, LayerTimers &t) override
    {
        const auto &meta = cell_.inputMeta();
        std::vector<Cts> in(3);
        t.time("ckks.encrypt", [&] {
            for (std::size_t s = 0; s < kBatch; ++s) {
                const auto &q = inputs_.at(b * kBatch + s);
                for (int k = 0; k < 3; ++k) {
                    const auto &v = k == 0 ? q.x : k == 1 ? q.h : q.c;
                    auto ct = nn::encryptTensor(ctx_, enc_, rng_, v, meta.shape,
                                                meta.levelCount);
                    in[k].push_back(ct.chunks().at(0));
                }
            }
        });
        auto res = t.time("graph.run", [&] {
            return exec_.run(engine_, std::move(in));
        });
        got_.clear();
        t.time("ckks.decrypt", [&] {
            for (std::size_t s = 0; s < kBatch; ++s)
                for (int k = 0; k < 2; ++k)
                    got_.push_back(nn::decryptTensor(
                        ctx_, dec_,
                        nn::CipherTensor(meta.shape, meta.layout,
                                         {res.outputs.at(k).at(s)})));
        });
    }

    Check
    check(std::size_t b) override
    {
        Check c;
        c.ok = got_.size() == 2 * kBatch;
        for (std::size_t s = 0; c.ok && s < kBatch; ++s) {
            const auto &q = inputs_.at(b * kBatch + s);
            auto want = cell_.stepPlain(q.x, {q.h, q.c});
            c.maxErr = std::max({c.maxErr, maxAbsErr(got_[2 * s], want.h),
                                 maxAbsErr(got_[2 * s + 1], want.c)});
        }
        c.ok = c.ok && c.maxErr < kTolerance;
        return c;
    }

    const ckks::CkksParams &params() const override { return ctx_.params(); }

  private:
    struct Sequence
    {
        std::vector<double> x, h, c;
    };

    ckks::CkksContext ctx_;
    workloads::EncryptedLstmCell cell_;
    Rng rng_;
    Rng keyRng_{kKeySeed};
    ckks::SecretKey sk_;
    ckks::KeyBundle keys_;
    ckks::Encryptor enc_;
    ckks::Decryptor dec_;
    nn::NnEngine engine_;
    graph::Graph graph_;
    graph::GraphExecutor exec_;
    std::vector<Sequence> inputs_;
    std::vector<std::vector<double>> got_; ///< h', c' per sequence
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, u64 seed, std::size_t requests)
{
    if (name == "ops_setc")
        return std::make_unique<OpsSetC>(seed);
    if (name == "deep_cnn")
        return std::make_unique<DeepCnn>(seed, requests);
    if (name == "lstm_graph")
        return std::make_unique<LstmGraph>(seed, requests);
    return nullptr;
}

// ---------------------------------------------------------------------
// Span self times.

/** Metric name of a span's self time: "<cat>.<name>_ms", with nn layer
    names cut at '(' and a few library span names shortened. */
std::string
spanMetric(const trace::SpanRecord &r)
{
    std::string name = r.displayName();
    auto paren = name.find('(');
    if (paren != std::string::npos)
        name.resize(paren);
    std::string key = std::string(r.cat) + "." + name;
    static const std::map<std::string, std::string> kAlias = {
        {"exec.ks-hoist", "exec.ks_hoist"},
        {"exec.ks-tail", "exec.ks_tail"},
        {"exec.applyBsgs", "exec.bsgs"},
        {"exec.applyBsgsSum", "exec.bsgs"},
        {"exec.applyBsgsFanout", "exec.bsgs"},
        {"boot.c2s-split", "boot.c2s"},
    };
    auto it = kAlias.find(key);
    return (it != kAlias.end() ? it->second : key) + "_ms";
}

/** Span totals of one captured request (or set-up). */
struct SelfTimes
{
    /** Self time per span metric on the request thread. */
    std::map<std::string, double> ms;
    double coveredMs = 0;     ///< request-thread time inside any span
    double unexplainedMs = 0; ///< harness span self time (no library span)
    u64 dropped = 0;

    void
    add(const SelfTimes &o)
    {
        for (const auto &[k, v] : o.ms)
            ms[k] += v;
        coveredMs += o.coveredMs;
        unexplainedMs += o.unexplainedMs;
        dropped += o.dropped;
    }
};

/**
 * Self time of each span (ms) = its duration minus its direct
 * children's, children found by interval containment (kernel timers
 * emit their spans at the enclosing depth, so depth alone cannot
 * place them). `recs` is sorted by start, longest first on ties.
 * `covered` receives the total duration of the top-level spans.
 */
std::vector<double>
selfMs(const std::vector<const trace::SpanRecord *> &recs, double &covered)
{
    std::vector<double> self(recs.size());
    std::vector<std::size_t> stack;
    covered = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        u64 end = recs[i]->startNs + recs[i]->durNs;
        while (!stack.empty()
               && end > recs[stack.back()]->startNs
                       + recs[stack.back()]->durNs)
            stack.pop_back();
        double dur = static_cast<double>(recs[i]->durNs) * 1e-6;
        self[i] += dur;
        if (stack.empty())
            covered += dur;
        else
            self[stack.back()] -= dur;
        stack.push_back(i);
    }
    return self;
}

/**
 * Layer self times are taken on the request thread (the one that
 * recorded the harness spans); with every dispatch inline, they
 * partition the request's wall time by layer.
 */
SelfTimes
selfTimes(const std::vector<trace::Tracer::ThreadRecords> &threads)
{
    SelfTimes out;
    for (const auto &tr : threads) {
        out.dropped += tr.dropped;
        std::vector<const trace::SpanRecord *> all;
        for (const auto &r : tr.records)
            if (r.phase == 'X')
                all.push_back(&r);
        std::sort(all.begin(), all.end(), [](auto *a, auto *b) {
            return a->startNs != b->startNs ? a->startNs < b->startNs
                                            : a->durNs > b->durNs;
        });
        bool requestThread = std::any_of(all.begin(), all.end(), [](auto *r) {
            return std::strcmp(r->cat, "harness") == 0;
        });
        if (!requestThread)
            continue;
        double covered = 0;
        auto self = selfMs(all, covered);
        out.coveredMs += covered;
        for (std::size_t i = 0; i < all.size(); ++i) {
            if (std::strcmp(all[i]->cat, "harness") == 0)
                out.unexplainedMs += self[i];
            else
                out.ms[spanMetric(*all[i])] += self[i];
        }
    }
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Pin the process to the highest-numbered CPU it may run on (CPU 0
 * usually takes most interrupts); returns it.
 */
int
pinToOneCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return -1;
    for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
        if (!CPU_ISSET(c, &set))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        return sched_setaffinity(0, sizeof(one), &one) == 0 ? c : -1;
    }
    return -1;
}

/**
 * Runs every dispatch of the global pool inline on its caller, for the
 * lifetime of this object. A parked thread holds one dispatch of the
 * pool open; ThreadPool::parallelFor runs any call made while another
 * thread drives the pool sequentially on the caller (its documented
 * fallback). Pinned to one CPU, the pool's lanes could only time-share
 * that CPU: inline, a dispatch costs no wake-ups or context switches,
 * whose cost and spread belong to the host's scheduler.
 */
class InlineDispatch
{
  public:
    InlineDispatch()
    {
        auto parked = held_.get_future();
        std::shared_future<void> release = release_.get_future().share();
        thread_ = std::thread([this, release] {
            // The lane that takes index 0 parks inside the dispatch,
            // and this thread, its driver, waits for that lane: the
            // dispatch stays open until release.
            ThreadPool::global().parallelFor(0, 2, [&](std::size_t i) {
                if (i == 0) {
                    held_.set_value();
                    release.wait();
                }
            });
        });
        parked.wait();
    }

    ~InlineDispatch()
    {
        release_.set_value();
        thread_.join();
    }

    InlineDispatch(const InlineDispatch &) = delete;
    InlineDispatch &operator=(const InlineDispatch &) = delete;

  private:
    std::promise<void> held_, release_;
    std::thread thread_;
};

constexpr std::size_t kTraceCapacity = std::size_t(1) << 22;

/** Per-request means of the registry counters the benchmark reports. */
std::map<std::string, double>
registryMetrics(const trace::MetricsSnapshot &before,
                const trace::MetricsSnapshot &after, double requests)
{
    auto d = [&](const std::string &k) {
        auto a = after.find(k);
        auto b = before.find(k);
        return (a == after.end() ? 0.0 : a->second)
            - (b == before.end() ? 0.0 : b->second);
    };
    std::map<std::string, double> m;
    auto per = [&](const std::string &k) { return d(k) / requests; };
    m["ntt.fwd_calls"] = per("kernel.NTT.invocations");
    m["ntt.fwd_ms"] = per("kernel.NTT.nanos") * 1e-6;
    m["ntt.inv_calls"] = per("kernel.INTT.invocations");
    m["ntt.inv_ms"] = per("kernel.INTT.nanos") * 1e-6;
    m["rns.conv_ms"] = per("kernel.Conv.nanos") * 1e-6;
    m["rns.modups"] = per("evalop.modups");
    m["rns.moddowns"] = per("evalop.moddowns");
    m["exec.hada_ms"] = per("kernel.Hada-Mult.nanos") * 1e-6;
    m["exec.ele_ms"] = (per("kernel.Ele-Add.nanos")
                        + per("kernel.Ele-Sub.nanos")) * 1e-6;
    m["exec.frobenius_ms"] = per("kernel.FrobeniusMap.nanos") * 1e-6;
    m["exec.fused_ele_ms"] = per("kernel.Fused-Ele.nanos") * 1e-6;
    m["ckks.hmult"] = per("evalop.HMULT.count");
    m["ckks.cmult"] = per("evalop.CMULT.count");
    m["ckks.hadd"] = per("evalop.HADD.count");
    m["ckks.hrotate"] = per("evalop.HROTATE.count");
    m["ckks.rescale"] = per("evalop.RESCALE.count");
    m["ckks.ks_hoist"] = per("evalop.KS-hoist.count");
    m["ckks.ks_tail"] = per("evalop.KS-tail.count");
    double allocs = d("workspace.allocs");
    double reuses = d("workspace.reuses");
    m["exec.ws_allocs"] = allocs / requests;
    m["exec.ws_reuse_rate"] =
        allocs + reuses > 0 ? reuses / (allocs + reuses) : 0;
    m["exec.ws_free_growth"] =
        (d("workspace.returns") - allocs - reuses) / requests;
    return m;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload NAME --seed S "
                 "--requests N --setups K [--trace 0|1]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    int cpu = pinToOneCpu();
    InlineDispatch inlineDispatch;

    std::string workload;
    u64 seed = 0;
    long requests = 0;
    long setups = 1;
    bool traced = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            workload = v;
        else if (k == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (k == "--requests")
            requests = std::atol(v);
        else if (k == "--setups")
            setups = std::atol(v);
        else if (k == "--trace")
            traced = std::atoi(v) != 0;
        else
            return usage();
    }
    if (workload.empty() || requests < 1 || setups < 1)
        return usage();
    std::size_t n = static_cast<std::size_t>(requests);

    // Set up K times and keep the last; setup_s is their median. A
    // set-up ends with one untimed warm-up request that must pass.
    std::unique_ptr<Workload> w;
    SelfTimes setupSpans;
    for (long k = 0; k < setups; ++k) {
        w.reset();
        bool last = k + 1 == setups;
        if (traced && last)
            trace::Tracer::instance().arm(kTraceCapacity);
        auto t0 = Clock::now();
        w = makeWorkload(workload, seed, n);
        if (!w)
            return usage();
        LayerTimers warm;
        w->request(0, warm);
        Check c = w->check(0);
        double s = msSince(t0) * 1e-3;
        if (!c.ok) {
            std::fprintf(stderr, "warm-up failed its check (error %g)\n",
                         c.maxErr);
            return 1;
        }
        if (traced && last) {
            trace::Tracer::instance().disarm();
            setupSpans = selfTimes(trace::Tracer::instance().collect());
        }
        Line("setup").num("s", s).emit();
    }

    const auto &p = w->params();
    Line("info")
        .str("workload", workload)
        .num("cpu", cpu)
        .num("pool_lanes", static_cast<double>(ThreadPool::global().lanes()))
        .str("dispatch", "inline")
        .str("simd_backend", simd::backendName(simd::activeBackend()))
        .num("log2_n", std::log2(static_cast<double>(p.n)))
        .num("levels", p.levels)
        .num("special", p.special)
        .num("dnum", p.effectiveDnum())
        .num("scale_bits", p.scaleBits)
        .num("requests", static_cast<double>(n))
        .emit();

    // Timed loop: every request is timed and checked. In the traced
    // run, even requests are captured and odd ones are not, so both
    // halves see the same process age and their p50s give the
    // tracing overhead.
    auto &reg = trace::MetricsRegistry::instance();
    auto before = reg.snapshot();
    LayerTimers timers;
    auto &ops = EvalOpStats::instance();
    std::vector<double> plainMs, tracedMs;
    double totalMs = 0;
    SelfTimes spans;
    for (std::size_t i = 1; i <= n; ++i) {
        bool capture = traced && i % 2 == 0;
        if (capture)
            trace::Tracer::instance().arm(kTraceCapacity);
        auto opsBefore = ops.snapshot();
        LayerTimers reqTimers;
        auto t0 = Clock::now();
        std::string what;
        try {
            w->request(i, reqTimers);
        } catch (const std::exception &e) {
            what = e.what();
        }
        double ms = msSince(t0);
        totalMs += ms;
        auto opsAfter = ops.snapshot();
        for (const auto &[k, v] : reqTimers.ms)
            timers.ms[k] += v;
        if (capture) {
            trace::Tracer::instance().disarm();
            spans.add(selfTimes(trace::Tracer::instance().collect()));
            tracedMs.push_back(ms);
        } else {
            plainMs.push_back(ms);
        }
        Check c;
        if (what.empty()) {
            try {
                c = w->check(i);
            } catch (const std::exception &e) {
                what = e.what();
            }
        }
        if (!what.empty())
            std::fprintf(stderr, "request %zu failed: %s\n", i, what.c_str());
        Line("req")
            .num("i", static_cast<double>(i))
            .num("ms", ms)
            .num("ok", c.ok ? 1 : 0)
            .num("err", c.maxErr)
            .num("hmult", opsAfter.hmult - opsBefore.hmult)
            .num("hrotate", opsAfter.hrotate - opsBefore.hrotate)
            .obj("t", reqTimers.ms)
            .emit();
    }
    auto after = reg.snapshot();

    double dn = static_cast<double>(n);
    auto layers = registryMetrics(before, after, dn);
    for (const auto &[k, v] : timers.ms)
        layers[k + "_ms"] = v / dn;
    for (const auto &[k, v] : w->setup.ms)
        layers[k + "_ms"] = v;
    layers["run.cpu"] = cpu;
    layers["pool.lanes"] = static_cast<double>(ThreadPool::global().lanes());
    double kernelNs = 0;
    for (const auto &[k, v] : after)
        if (k.rfind("kernel.", 0) == 0 && k.size() > 6
            && k.compare(k.size() - 6, 6, ".nanos") == 0)
            kernelNs += v - before.at(k);
    layers["exec.kernel_share_pct"] =
        totalMs > 0 ? 100 * kernelNs * 1e-6 / totalMs : 0;
    if (traced) {
        double nt = std::max<double>(1, tracedMs.size());
        for (const auto &[k, v] : spans.ms)
            layers[k] = v / nt;
        for (const char *k : {"plan.survey_ms", "plan.search_ms",
                              "plan.verify_ms"})
            layers[k] = setupSpans.ms[k];
        double tracedTotal =
            std::accumulate(tracedMs.begin(), tracedMs.end(), 0.0);
        layers["trace.unexplained_pct"] = tracedTotal > 0
            ? 100
                * (tracedTotal - spans.coveredMs + spans.unexplainedMs)
                / tracedTotal
            : 0;
        double p50 = median(plainMs);
        layers["trace.overhead_pct"] =
            p50 > 0 ? 100 * (median(tracedMs) / p50 - 1) : 0;
        layers["trace.spans_dropped"] =
            static_cast<double>(spans.dropped + setupSpans.dropped);
    }

    Line("end").obj("layers", layers).emit();
    return 0;
}
