/**
 * @file
 * Tests for fast basis conversion, ModUp / ModDown, and the RESCALE
 * divide-and-round core — the machinery behind the paper's Conv
 * kernel and Alg. 1 / Alg. 6.
 *
 * The oracle tests at the end check the production paths (one
 * simd::Ops::convAccum kernel under every backend the host runs)
 * bit for bit against test-local copies of the original scalar
 * formulas — u128 accumulation with Barrett reduction for Conv, the
 * P^-1 Shoup product for ModDown, the `v % q` centred lift for
 * RESCALE — so batched-vs-one-shot agreement is not the only check.
 */

#include <gtest/gtest.h>

#include "ckks/params.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "rns/conv.hh"
#include "simd/simd.hh"

namespace tensorfhe::rns
{
namespace
{

RnsTower &
tower()
{
    static RnsTower t([] {
        TowerConfig cfg;
        cfg.n = 1 << 6;
        cfg.levels = 5;
        cfg.special = 2;
        return cfg;
    }());
    return t;
}

/** CRT-reconstruct coefficient c of `a` as a u128 (few small limbs). */
u128
crtReconstruct(const RnsPolynomial &a, std::size_t c)
{
    u128 modulus = 1;
    for (std::size_t i = 0; i < a.numLimbs(); ++i)
        modulus *= a.limbModulus(i).value();
    u128 x = 0;
    for (std::size_t i = 0; i < a.numLimbs(); ++i) {
        u64 qi = a.limbModulus(i).value();
        u128 hat = modulus / qi;
        u64 hat_mod = static_cast<u64>(hat % qi);
        u64 hat_inv = invMod(hat_mod, qi);
        u128 term = hat * hat_inv % modulus;
        x = (x + term * a.limb(i)[c]) % modulus;
    }
    return x;
}

TEST(Conv, SingleSourceLimbIsExact)
{
    Rng rng(1);
    RnsPolynomial a = sampleUniform(tower(), {0}, Domain::Coeff, rng);
    auto out = fastBaseConv(a, {1, 2, tower().specialIndex(0)});
    for (std::size_t j = 0; j < out.numLimbs(); ++j) {
        u64 t = out.limbModulus(j).value();
        for (std::size_t c = 0; c < a.n(); ++c)
            ASSERT_EQ(out.limb(j)[c], a.limb(0)[c] % t);
    }
}

TEST(Conv, MultiLimbWithinApproximationBound)
{
    // Approximate conversion returns x + u*S with 0 <= u < s (number
    // of source limbs). Verify per coefficient.
    Rng rng(2);
    RnsPolynomial a =
        sampleUniform(tower(), {0, 1, 2}, Domain::Coeff, rng);
    std::vector<std::size_t> target = {3, 4};
    auto out = fastBaseConv(a, target);
    u128 source_modulus = 1;
    for (std::size_t i = 0; i < 3; ++i)
        source_modulus *= a.limbModulus(i).value();
    for (std::size_t c = 0; c < a.n(); ++c) {
        u128 x = crtReconstruct(a, c);
        for (std::size_t j = 0; j < target.size(); ++j) {
            u64 t = out.limbModulus(j).value();
            bool matched = false;
            for (u64 u = 0; u < 3 && !matched; ++u)
                matched = out.limb(j)[c]
                    == static_cast<u64>((x + u * source_modulus) % t);
            ASSERT_TRUE(matched) << "coeff " << c;
        }
    }
}

TEST(Conv, DecomposeDigitsShapes)
{
    Rng rng(3);
    RnsPolynomial a =
        sampleUniform(tower(), {0, 1, 2, 3, 4}, Domain::Coeff, rng);
    auto digits = decomposeDigits(a, 2);
    ASSERT_EQ(digits.size(), 3u);
    EXPECT_EQ(digits[0].numLimbs(), 2u);
    EXPECT_EQ(digits[1].numLimbs(), 2u);
    EXPECT_EQ(digits[2].numLimbs(), 1u);
    EXPECT_EQ(digits[1].limbIndex(0), 2u);
    // Residues are copies of the source.
    for (std::size_t c = 0; c < a.n(); ++c) {
        ASSERT_EQ(digits[0].limb(0)[c], a.limb(0)[c]);
        ASSERT_EQ(digits[2].limb(0)[c], a.limb(4)[c]);
    }
}

TEST(Conv, ModUpKeepsDigitResiduesVerbatim)
{
    Rng rng(4);
    RnsPolynomial a =
        sampleUniform(tower(), {0, 1, 2, 3}, Domain::Coeff, rng);
    auto digits = decomposeDigits(a, 2);
    auto up = modUp(digits[1], 4); // digit limbs {2, 3}
    ASSERT_EQ(up.numLimbs(), 4 + tower().numP());
    for (std::size_t c = 0; c < a.n(); ++c) {
        ASSERT_EQ(up.limb(2)[c], a.limb(2)[c]);
        ASSERT_EQ(up.limb(3)[c], a.limb(3)[c]);
    }
}

TEST(Conv, ModDownInvertsMultiplicationByP)
{
    // Construct a = P * x over the union basis; ModDown must return
    // exactly x (the p-limbs of P*x are zero, so Conv contributes 0).
    Rng rng(5);
    std::size_t ql = 3;
    std::vector<std::size_t> q_idx = {0, 1, 2};
    RnsPolynomial x = sampleUniform(tower(), q_idx, Domain::Coeff, rng);

    std::vector<std::size_t> union_idx = q_idx;
    for (std::size_t k = 0; k < tower().numP(); ++k)
        union_idx.push_back(tower().specialIndex(k));
    RnsPolynomial a(tower(), union_idx, Domain::Coeff);
    for (std::size_t i = 0; i < ql; ++i) {
        const Modulus &mod = tower().modulus(q_idx[i]);
        u64 p_mod = tower().pModQ(q_idx[i]);
        for (std::size_t c = 0; c < x.n(); ++c)
            a.limb(i)[c] = mod.mul(x.limb(i)[c], p_mod);
    }
    // p-limbs stay zero.
    auto down = modDown(a);
    ASSERT_EQ(down.numLimbs(), ql);
    for (std::size_t i = 0; i < ql; ++i)
        for (std::size_t c = 0; c < x.n(); ++c)
            ASSERT_EQ(down.limb(i)[c], x.limb(i)[c]);
}

TEST(Conv, ModDownRoundsSmallNoise)
{
    // a = P*x + e with |e| << P: ModDown returns x with error at most
    // a small constant from the approximate conversion.
    Rng rng(6);
    std::vector<std::size_t> q_idx = {0, 1};
    RnsPolynomial x = sampleUniform(tower(), q_idx, Domain::Coeff, rng);

    std::vector<std::size_t> union_idx = q_idx;
    for (std::size_t k = 0; k < tower().numP(); ++k)
        union_idx.push_back(tower().specialIndex(k));
    std::vector<s64> noise(tower().n());
    for (auto &e : noise)
        e = rng.sampleGaussianInt(3.2);
    RnsPolynomial a = liftSigned(tower(), union_idx, noise);
    for (std::size_t i = 0; i < q_idx.size(); ++i) {
        const Modulus &mod = tower().modulus(q_idx[i]);
        u64 p_mod = tower().pModQ(q_idx[i]);
        for (std::size_t c = 0; c < x.n(); ++c) {
            a.limb(i)[c] = mod.add(a.limb(i)[c],
                                   mod.mul(x.limb(i)[c], p_mod));
        }
    }
    auto down = modDown(a);
    // Error |down - x| <= numP + 1 per limb (approx conv + rounding).
    for (std::size_t i = 0; i < q_idx.size(); ++i) {
        u64 q = tower().prime(q_idx[i]);
        for (std::size_t c = 0; c < x.n(); ++c) {
            u64 d = subMod(down.limb(i)[c], x.limb(i)[c], q);
            u64 err = std::min(d, q - d);
            ASSERT_LE(err, tower().numP() + 1) << "coeff " << c;
        }
    }
}

TEST(Conv, RescaleDividesAndRounds)
{
    // Build a two-limb poly whose coefficients are known products
    // v = k * q_last + r and check out = k (+/-1 for the rounding of
    // centered r).
    std::vector<std::size_t> idx = {0, 1};
    u64 q_last = tower().prime(1);
    RnsPolynomial a(tower(), idx, Domain::Coeff);
    std::vector<u64> expect(tower().n());
    Rng rng(7);
    for (std::size_t c = 0; c < tower().n(); ++c) {
        u64 k = rng.uniform(1 << 20);
        u64 r = rng.uniform(q_last);
        u128 v = static_cast<u128>(k) * q_last + r;
        a.limb(0)[c] = static_cast<u64>(v % tower().prime(0));
        a.limb(1)[c] = static_cast<u64>(v % q_last);
        expect[c] = r <= q_last / 2 ? k : k + 1; // round to nearest
    }
    auto out = rescaleByLastLimb(a);
    ASSERT_EQ(out.numLimbs(), 1u);
    for (std::size_t c = 0; c < tower().n(); ++c)
        ASSERT_EQ(out.limb(0)[c], expect[c] % tower().prime(0));
}


// ------------------------------------------------------------------
// Independent oracle: the original scalar formulas.

/** Conv by u128 accumulation and one Barrett reduction per cell. */
RnsPolynomial
refConv(const RnsPolynomial &a, const std::vector<std::size_t> &target)
{
    const RnsTower &tw = a.tower();
    const auto &src = a.limbIndices();
    std::size_t s = src.size();
    std::size_t n = a.n();
    std::vector<std::vector<u64>> y(s, std::vector<u64>(n));
    for (std::size_t i = 0; i < s; ++i) {
        const Modulus &mi = tw.modulus(src[i]);
        u64 prod = 1;
        for (std::size_t i2 = 0; i2 < s; ++i2)
            if (i2 != i)
                prod = mi.mul(prod, tw.prime(src[i2]) % mi.value());
        u64 hat_inv = mi.inv(prod);
        u64 hat_inv_shoup = shoupPrecompute(hat_inv, mi.value());
        for (std::size_t c = 0; c < n; ++c)
            y[i][c] = mulModShoup(a.limb(i)[c], hat_inv, hat_inv_shoup,
                                  mi.value());
    }
    RnsPolynomial out(tw, target, Domain::Coeff);
    for (std::size_t j = 0; j < target.size(); ++j) {
        const Modulus &mj = tw.modulus(target[j]);
        std::vector<u64> hat(s);
        for (std::size_t i = 0; i < s; ++i) {
            hat[i] = 1;
            for (std::size_t i2 = 0; i2 < s; ++i2)
                if (i2 != i)
                    hat[i] = mj.mul(hat[i], tw.prime(src[i2]) % mj.value());
        }
        for (std::size_t c = 0; c < n; ++c) {
            u128 acc = 0;
            for (std::size_t i = 0; i < s; ++i)
                acc += static_cast<u128>(y[i][c]) * hat[i];
            out.limb(j)[c] = mj.reduce(acc);
        }
    }
    return out;
}

RnsPolynomial
refModUp(const RnsPolynomial &digit, std::size_t level_count)
{
    const RnsTower &tw = digit.tower();
    std::vector<std::size_t> target, others;
    for (std::size_t i = 0; i < level_count; ++i)
        target.push_back(i);
    for (std::size_t k = 0; k < tw.numP(); ++k)
        target.push_back(tw.specialIndex(k));
    const auto &dl = digit.limbIndices();
    for (std::size_t idx : target)
        if (std::find(dl.begin(), dl.end(), idx) == dl.end())
            others.push_back(idx);
    RnsPolynomial conv = refConv(digit, others);
    RnsPolynomial out(tw, target, Domain::Coeff);
    for (std::size_t j = 0, oi = 0; j < target.size(); ++j) {
        auto it = std::find(dl.begin(), dl.end(), target[j]);
        const u64 *from = it != dl.end()
            ? digit.limb(static_cast<std::size_t>(it - dl.begin()))
            : conv.limb(oi++);
        std::copy(from, from + digit.n(), out.limb(j));
    }
    return out;
}

RnsPolynomial
refModDown(const RnsPolynomial &a)
{
    const RnsTower &tw = a.tower();
    std::size_t k = tw.numP();
    std::size_t ql = a.numLimbs() - k;
    std::vector<std::size_t> q_idx(a.limbIndices().begin(),
                                   a.limbIndices().begin() + ql);
    std::vector<std::size_t> p_idx(a.limbIndices().begin() + ql,
                                   a.limbIndices().end());
    RnsPolynomial a_p(tw, p_idx, Domain::Coeff);
    for (std::size_t j = 0; j < k; ++j)
        std::copy(a.limb(ql + j), a.limb(ql + j) + a.n(), a_p.limb(j));
    RnsPolynomial conv = refConv(a_p, q_idx);
    RnsPolynomial out(tw, q_idx, Domain::Coeff);
    for (std::size_t j = 0; j < ql; ++j) {
        const Modulus &mod = tw.modulus(q_idx[j]);
        u64 p_inv = tw.pInvModQ(q_idx[j]);
        u64 p_inv_shoup = shoupPrecompute(p_inv, mod.value());
        for (std::size_t c = 0; c < a.n(); ++c)
            out.limb(j)[c] = mulModShoup(
                mod.sub(a.limb(j)[c], conv.limb(j)[c]), p_inv,
                p_inv_shoup, mod.value());
    }
    return out;
}

RnsPolynomial
refRescale(const RnsPolynomial &a)
{
    const RnsTower &tw = a.tower();
    std::size_t last = a.numLimbs() - 1;
    u64 q_last = tw.prime(a.limbIndex(last));
    const u64 *pl = a.limb(last);
    std::vector<std::size_t> q_idx(a.limbIndices().begin(),
                                   a.limbIndices().begin() + last);
    RnsPolynomial out(tw, q_idx, Domain::Coeff);
    for (std::size_t j = 0; j < last; ++j) {
        const Modulus &mod = tw.modulus(q_idx[j]);
        u64 q = mod.value();
        u64 qlast_inv = mod.inv(q_last % q);
        u64 qi_shoup = shoupPrecompute(qlast_inv, q);
        for (std::size_t c = 0; c < a.n(); ++c) {
            u64 v = pl[c];
            u64 lifted = v <= q_last / 2 ? v % q
                                         : mod.sub(0, (q_last - v) % q);
            out.limb(j)[c] = mulModShoup(mod.sub(a.limb(j)[c], lifted),
                                         qlast_inv, qi_shoup, q);
        }
    }
    return out;
}

void
expectSame(const RnsPolynomial &got, const RnsPolynomial &want,
           const char *what)
{
    ASSERT_EQ(got.limbIndices(), want.limbIndices()) << what;
    ASSERT_EQ(got.domain(), want.domain()) << what;
    for (std::size_t j = 0; j < got.numLimbs(); ++j)
        for (std::size_t c = 0; c < got.n(); ++c)
            ASSERT_EQ(got.limb(j)[c], want.limb(j)[c])
                << what << " limb " << j << " coeff " << c;
}

/** Runs `body` once per backend the host supports, then restores the
    prior selection. */
template <class F>
void
forEachBackend(F body)
{
    simd::Backend saved = simd::activeBackend();
    for (simd::Backend b : simd::supportedBackends()) {
        ASSERT_TRUE(simd::setBackend(b));
        SCOPED_TRACE(simd::backendName(b));
        body();
    }
    simd::setBackend(saved);
}

std::vector<std::size_t>
iota(std::size_t first, std::size_t count)
{
    std::vector<std::size_t> v(count);
    for (std::size_t i = 0; i < count; ++i)
        v[i] = first + i;
    return v;
}

/** The HEAX Set C tower (N = 2^14, 8 q + 8 special 27-bit primes). */
RnsTower &
setCTower()
{
    static RnsTower t(ckks::Presets::heaxSetC().towerConfig());
    return t;
}

/** The deep-CNN tower (N = 2^8, 21 q-limbs, one special prime). */
RnsTower &
deepCnnTower()
{
    static RnsTower t([] {
        auto p = ckks::Presets::bootTest();
        p.levels = 20;
        return p.towerConfig();
    }());
    return t;
}

/** ModUp of every digit of `level_count` single-limb digits, one-shot
    and batched (3 slots, 2-lane pool) against the oracle. */
void
checkModUpSingleLimbDigits(const RnsTower &tw, std::size_t level_count,
                           u64 seed)
{
    Rng rng(seed);
    ThreadPool pool(2);
    for (std::size_t d : {std::size_t(0), level_count / 2,
                          level_count - 1}) {
        std::vector<RnsPolynomial> digits;
        for (int b = 0; b < 3; ++b)
            digits.push_back(sampleUniform(tw, {d}, Domain::Coeff, rng));
        std::vector<RnsPolynomial> want;
        for (const auto &g : digits)
            want.push_back(refModUp(g, level_count));
        forEachBackend([&] {
            expectSame(modUp(digits[0], level_count), want[0], "modUp");
            ModUpPlan plan(tw, {d}, level_count);
            std::vector<const RnsPolynomial *> in;
            std::vector<RnsPolynomial> outs;
            std::vector<RnsPolynomial *> out_ptrs;
            for (const auto &g : digits) {
                in.push_back(&g);
                outs.emplace_back(tw, plan.unionLimbs(), Domain::Coeff);
            }
            for (auto &o : outs)
                out_ptrs.push_back(&o);
            plan.applyBatchInto(in, out_ptrs.data(), &pool);
            for (std::size_t b = 0; b < outs.size(); ++b)
                expectSame(outs[b], want[b], "ModUpPlan batch");
        });
    }
}

/** ModDown from `level_count` q-limbs + every special limb. */
void
checkModDown(const RnsTower &tw, std::size_t level_count, u64 seed)
{
    Rng rng(seed);
    ThreadPool pool(2);
    auto union_idx = iota(0, level_count);
    for (std::size_t k = 0; k < tw.numP(); ++k)
        union_idx.push_back(tw.specialIndex(k));
    std::vector<RnsPolynomial> as;
    for (int b = 0; b < 3; ++b)
        as.push_back(sampleUniform(tw, union_idx, Domain::Coeff, rng));
    std::vector<RnsPolynomial> want;
    for (const auto &a : as)
        want.push_back(refModDown(a));
    forEachBackend([&] {
        expectSame(modDown(as[0]), want[0], "modDown");
        ModDownPlan plan(tw, union_idx);
        std::vector<const RnsPolynomial *> in;
        std::vector<RnsPolynomial> outs;
        std::vector<RnsPolynomial *> out_ptrs;
        for (const auto &a : as) {
            in.push_back(&a);
            outs.emplace_back(tw, plan.qLimbs(), Domain::Coeff);
        }
        for (auto &o : outs)
            out_ptrs.push_back(&o);
        plan.applyBatchInto(in, out_ptrs.data(), &pool);
        for (std::size_t b = 0; b < outs.size(); ++b)
            expectSame(outs[b], want[b], "ModDownPlan batch");
    });
}

TEST(ConvOracle, SetCModUpOneToFourteenLimbs)
{
    // Level count 7 (after one rescale): a one-limb digit extends to
    // 7 + 8 limbs, 14 of them converted; every hatInv is 1.
    ASSERT_EQ(setCTower().numP(), 8u);
    checkModUpSingleLimbDigits(setCTower(), 7, 21);
}

TEST(ConvOracle, SetCModDownEightToSevenLimbs)
{
    // 8 special limbs convert onto 7 q-limbs through the scale phase.
    checkModDown(setCTower(), 7, 22);
}

TEST(ConvOracle, DeepCnnTwentyOneLimbShapes)
{
    ASSERT_EQ(deepCnnTower().numQ(), 21u);
    checkModUpSingleLimbDigits(deepCnnTower(), 21, 23);
    checkModDown(deepCnnTower(), 21, 24);
}

TEST(ConvOracle, MultiLimbConvMatchesAcrossBlocks)
{
    // 5 source limbs, 11 targets, N = 2^14: the scale phase and several
    // cell blocks, one-shot and batched.
    const RnsTower &tw = setCTower();
    Rng rng(25);
    auto src = iota(0, 5);
    std::vector<std::size_t> target = iota(5, 3);
    for (std::size_t k = 0; k < tw.numP(); ++k)
        target.push_back(tw.specialIndex(k));
    RnsPolynomial a = sampleUniform(tw, src, Domain::Coeff, rng);
    RnsPolynomial b = sampleUniform(tw, src, Domain::Coeff, rng);
    auto want_a = refConv(a, target);
    auto want_b = refConv(b, target);
    forEachBackend([&] {
        expectSame(fastBaseConv(a, target), want_a, "fastBaseConv");
        auto got = fastBaseConvBatch({&a, &b}, target);
        expectSame(got[0], want_a, "batch slot 0");
        expectSame(got[1], want_b, "batch slot 1");
    });
}

TEST(ConvOracle, RescaleInPlaceMatchesAndDropsTheLastLimb)
{
    for (RnsTower *tw : {&setCTower(), &deepCnnTower()}) {
        Rng rng(26);
        std::size_t lc = tw->numQ();
        auto idx = iota(0, lc);
        u64 q_last = tw->prime(lc - 1);
        std::vector<RnsPolynomial> as;
        for (int b = 0; b < 3; ++b)
            as.push_back(sampleUniform(*tw, idx, Domain::Coeff, rng));
        // Both sides of the centred-lift boundary, and its ends.
        const u64 edges[] = {0, 1, q_last / 2, q_last / 2 + 1,
                             q_last - 1};
        for (std::size_t e = 0; e < 5; ++e)
            as[0].limb(lc - 1)[e] = edges[e];
        std::vector<RnsPolynomial> want;
        for (const auto &a : as)
            want.push_back(refRescale(a));
        forEachBackend([&] {
            ThreadPool pool(2);
            auto work = as;
            std::vector<RnsPolynomial *> ptrs;
            for (auto &p : work)
                ptrs.push_back(&p);
            rescaleByLastLimbInPlace(ptrs.data(), ptrs.size(), &pool);
            for (std::size_t b = 0; b < work.size(); ++b) {
                EXPECT_EQ(work[b].limbIndices(), iota(0, lc - 1));
                EXPECT_EQ(work[b].domain(), Domain::Coeff);
                expectSame(work[b], want[b], "rescale in place");
            }
            expectSame(rescaleByLastLimb(as[1]), want[1],
                       "rescaleByLastLimb");
        });
    }
}

} // namespace
} // namespace tensorfhe::rns
