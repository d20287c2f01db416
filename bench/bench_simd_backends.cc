/**
 * @file
 * SIMD backend comparison bench: every backend the host supports runs
 * the same hot loops — the forward butterfly NTT, the span kernels of
 * the exec layer, and the lazy key-switch inner-product row — and the
 * table prints one column per backend with the speedup over the
 * bit-identical scalar fallback. The two headline metrics CI gates on
 * (scripts/roll_bench.py, BENCH_TRAJECTORY.json):
 *
 *   ntt_simd_speedup          scalar / best-backend forward NTT
 *                             (floor 2.0)
 *   ks_inner_product_speedup  scalar / best-backend lazy inner
 *                             product row (floor 1.5)
 *
 * It also prints conv_simd_speedup (floor 1.5): scalar / best-backend
 * basis conversion (BaseConvPlan::applyInto, one convAccum per target
 * limb) summed over the two HEAX Set C key-switch shapes, ModUp's
 * 1 -> 14 limbs and ModDown's 8 -> 7.
 *
 * Usage: bench_simd_backends [reps] [--json PATH]
 *                            [--trace PATH] [--metrics PATH]
 *   reps = timing repetitions (default 5; CI smoke runs fewer).
 *   --json PATH appends the machine-readable object — the CI Release
 *   job collects BENCH_PR9.json this way.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "ckks/params.hh"
#include "common/modarith.hh"
#include "common/primes.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "ntt/ntt.hh"
#include "rns/conv.hh"
#include "simd/simd.hh"

namespace
{

using namespace tensorfhe;

/** The shapes of one production-sized tower operation. */
constexpr std::size_t kN = 4096;     // polynomial length
constexpr std::size_t kBatch = 8;    // polys per NTT dispatch
constexpr std::size_t kDigits = 4;   // key-switch digit rows
constexpr int kInnerIters = 32;      // kernel loops per timed rep

std::vector<u64>
randomSpan(Rng &rng, std::size_t n, u64 q)
{
    std::vector<u64> a(n);
    for (auto &c : a)
        c = rng.uniform(q);
    return a;
}

/** Per-backend seconds for one measurement, scalar first. */
struct Column
{
    std::string name;
    double seconds = 0;
};

double
speedupVsScalar(const std::vector<Column> &cols, std::size_t i)
{
    return cols[i].seconds > 0 ? cols[0].seconds / cols[i].seconds
                               : 0.0;
}

void
printColumns(const char *what, const std::vector<Column> &cols)
{
    std::printf("  %-26s", what);
    for (std::size_t i = 0; i < cols.size(); ++i)
        std::printf("  %10s (%4.2fx)",
                    bench::fmtSeconds(cols[i].seconds).c_str(),
                    speedupVsScalar(cols, i));
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    auto obs = bench::ObsFlags::parse(argc, argv);
    int reps = 5;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else
            reps = std::atoi(argv[i]);
    }
    if (reps < 1)
        reps = 1;

    auto backends = simd::supportedBackends();
    std::string names;
    for (simd::Backend b : backends)
        names += std::string(names.empty() ? "" : ", ")
            + simd::backendName(b);
    bench::banner("bench_simd_backends — vector backends vs scalar "
                  "(host: " + names + "; reps="
                  + std::to_string(reps) + ")");

    obs.armIfRequested();

    u64 q = generateNttPrimes(30, 1, 2 * kN)[0];
    Modulus mod(q);
    ntt::NttContext ctx(kN, q);
    Rng rng(9);
    auto base = randomSpan(rng, kN * kBatch, q);

    simd::Backend saved = simd::activeBackend();
    simd::Backend best = backends.back();

    // ------------------------------------------------------------ NTT
    bench::section("forward NTT (butterfly, n=4096, batch=8)");
    std::vector<Column> ntt_cols;
    {
        std::vector<u64> work(base);
        std::vector<u64 *> ptrs(kBatch);
        for (std::size_t s = 0; s < kBatch; ++s)
            ptrs[s] = work.data() + s * kN;
        for (simd::Backend b : backends) {
            simd::setBackend(b);
            double t = bench::timeMean(reps, [&] {
                std::copy(base.begin(), base.end(), work.begin());
                ctx.forwardBatch(ptrs.data(), kBatch,
                                 ntt::NttVariant::Butterfly);
            });
            ntt_cols.push_back({simd::backendName(b), t / kBatch});
        }
    }
    printColumns("fwd NTT / poly", ntt_cols);

    // ---------------------------------------------------- span kernels
    bench::section("span kernels (n=4096 spans, per-pass mean)");
    std::vector<Column> add_cols, mul_cols, acc_cols;
    {
        auto a0 = randomSpan(rng, kN, q);
        auto b0 = randomSpan(rng, kN, q);
        for (simd::Backend b : backends) {
            simd::setBackend(b);
            const simd::Ops &v = simd::ops();
            auto a = a0;
            double ta = bench::timeMean(reps, [&] {
                for (int i = 0; i < kInnerIters; ++i)
                    v.addSpan(a.data(), b0.data(), kN, q);
            });
            add_cols.push_back(
                {simd::backendName(b), ta / kInnerIters});
            a = a0;
            double tm = bench::timeMean(reps, [&] {
                for (int i = 0; i < kInnerIters; ++i)
                    v.mulSpan(a.data(), b0.data(), kN, mod);
            });
            mul_cols.push_back(
                {simd::backendName(b), tm / kInnerIters});
            a = a0;
            double tc = bench::timeMean(reps, [&] {
                for (int i = 0; i < kInnerIters; ++i)
                    v.mulAccum(a.data(), a0.data(), b0.data(), kN,
                               mod);
            });
            acc_cols.push_back(
                {simd::backendName(b), tc / kInnerIters});
        }
    }
    printColumns("addSpan", add_cols);
    printColumns("mulSpan (Barrett)", mul_cols);
    printColumns("mulAccum", acc_cols);

    // -------------------------------------------- key-switch inner row
    bench::section("key-switch inner product (lazy 2q rows, "
                   "dnum=" + std::to_string(kDigits) + ")");
    std::vector<Column> ks_cols;
    {
        std::vector<std::vector<u64>> u, kb, ka;
        for (std::size_t d = 0; d < kDigits; ++d) {
            u.push_back(randomSpan(rng, kN, q));
            kb.push_back(randomSpan(rng, kN, q));
            ka.push_back(randomSpan(rng, kN, q));
        }
        auto acc0 = randomSpan(rng, kN, q);
        auto acc1 = randomSpan(rng, kN, q);
        for (simd::Backend b : backends) {
            simd::setBackend(b);
            const simd::Ops &v = simd::ops();
            auto c0 = acc0, c1 = acc1;
            double t = bench::timeMean(reps, [&] {
                for (int i = 0; i < kInnerIters; ++i) {
                    std::copy(acc0.begin(), acc0.end(), c0.begin());
                    std::copy(acc1.begin(), acc1.end(), c1.begin());
                    for (std::size_t d = 0; d < kDigits; ++d)
                        v.ipAccumLazy(c0.data(), c1.data(),
                                      u[d].data(), kb[d].data(),
                                      ka[d].data(), kN, mod,
                                      d + 1 == kDigits);
                }
            });
            ks_cols.push_back({simd::backendName(b),
                               t / (kInnerIters * kDigits)});
        }
    }
    printColumns("ipAccumLazy / digit row", ks_cols);

    // ------------------------------------------------- basis conversion
    bench::section("basis conversion (HEAX Set C, N=2^14, "
                   "level count 7, serial)");
    std::vector<Column> up_cols, down_cols, conv_cols;
    {
        rns::RnsTower tower(ckks::Presets::heaxSetC().towerConfig());
        ThreadPool serial(0);
        std::vector<std::size_t> qs, ps;
        for (std::size_t i = 0; i < 7; ++i)
            qs.push_back(i);
        for (std::size_t k = 0; k < tower.numP(); ++k)
            ps.push_back(tower.specialIndex(k));
        // ModUp of digit {0}: the 6 other q-limbs and all 8 p-limbs.
        std::vector<std::size_t> up_dst(qs.begin() + 1, qs.end());
        up_dst.insert(up_dst.end(), ps.begin(), ps.end());
        rns::BaseConvPlan up(tower, {0}, up_dst);
        rns::BaseConvPlan down(tower, ps, qs);
        auto digit = rns::sampleUniform(tower, {0}, rns::Domain::Coeff,
                                        rng);
        auto a_p = rns::sampleUniform(tower, ps, rns::Domain::Coeff, rng);
        // One output buffer serves both shapes (14 >= 7 limbs).
        rns::RnsPolynomial out(tower, up_dst, rns::Domain::Coeff);
        const u64 *dp0 = digit.limb(0);
        std::vector<const u64 *> sp;
        std::vector<u64 *> dp;
        for (std::size_t i = 0; i < ps.size(); ++i)
            sp.push_back(a_p.limb(i));
        for (std::size_t j = 0; j < up_dst.size(); ++j)
            dp.push_back(out.limb(j));
        for (simd::Backend b : backends) {
            simd::setBackend(b);
            double tu = bench::timeMean(reps, [&] {
                up.applyInto(&dp0, dp.data(), 1, &serial);
            });
            double td = bench::timeMean(reps, [&] {
                down.applyInto(sp.data(), dp.data(), 1, &serial);
            });
            up_cols.push_back({simd::backendName(b), tu});
            down_cols.push_back({simd::backendName(b), td});
            conv_cols.push_back({simd::backendName(b), tu + td});
        }
    }
    printColumns("Conv 1->14 (ModUp)", up_cols);
    printColumns("Conv 8->7 (ModDown)", down_cols);

    simd::setBackend(saved);

    // ------------------------------------------------------- headlines
    std::size_t best_i = backends.size() - 1;
    double ntt_speedup = speedupVsScalar(ntt_cols, best_i);
    double ks_speedup = speedupVsScalar(ks_cols, best_i);
    double conv_speedup = speedupVsScalar(conv_cols, best_i);
    bench::section("headlines");
    std::printf("  best backend:              %s\n",
                simd::backendName(best));
    std::printf("  ntt_simd_speedup:          %.2fx (floor 2.0)\n",
                ntt_speedup);
    std::printf("  ks_inner_product_speedup:  %.2fx (floor 1.5)\n",
                ks_speedup);
    std::printf("  conv_simd_speedup:         %.2fx (floor 1.5)\n",
                conv_speedup);

    if (!json_path.empty()) {
        bench::JsonWriter json("simd_backends");
        json.add("reps", static_cast<double>(reps))
            .add("n", static_cast<double>(kN))
            .add("best_backend", simd::backendName(best))
            .add("ntt_simd_speedup", ntt_speedup)
            .add("ks_inner_product_speedup", ks_speedup)
            .add("conv_simd_speedup", conv_speedup);
        for (std::size_t i = 0; i < backends.size(); ++i) {
            std::string suffix =
                std::string("_s_") + ntt_cols[i].name;
            json.add("ntt_fwd" + suffix, ntt_cols[i].seconds)
                .add("add_span" + suffix, add_cols[i].seconds)
                .add("mul_span" + suffix, mul_cols[i].seconds)
                .add("mul_accum" + suffix, acc_cols[i].seconds)
                .add("ks_ip_row" + suffix, ks_cols[i].seconds)
                .add("conv_modup" + suffix, up_cols[i].seconds)
                .add("conv_moddown" + suffix, down_cols[i].seconds);
        }
        if (!json.appendTo(json_path)) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("  wrote %s\n", json_path.c_str());
    }

    obs.finish();
    return 0;
}
