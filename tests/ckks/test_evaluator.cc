/**
 * @file
 * End-to-end homomorphic operation tests: every Table II operation is
 * executed on encrypted data and checked against plaintext math.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "ckks/crypto.hh"
#include "ckks/evaluator.hh"

namespace tensorfhe::ckks
{
namespace
{

struct Fixture
{
    Fixture()
        : ctx(Presets::tiny()), rng(42), sk(ctx.generateSecretKey(rng)),
          keys(ctx.generateKeys(sk, rng, {1, 2, 4})),
          enc(ctx, keys.pk), dec(ctx, sk), eval(ctx, keys)
    {}

    std::vector<Complex>
    randomSlots(double mag, u64 seed)
    {
        Rng r(seed);
        std::vector<Complex> v(ctx.slots());
        for (auto &z : v)
            z = Complex(mag * (2 * r.uniformReal() - 1),
                        mag * (2 * r.uniformReal() - 1));
        return v;
    }

    Ciphertext
    encryptSlots(const std::vector<Complex> &z, std::size_t levels)
    {
        auto pt = ctx.encoder().encode(z, ctx.params().scale(), levels);
        return enc.encrypt(pt, rng);
    }

    double
    maxErrorVs(const Ciphertext &ct, const std::vector<Complex> &expect)
    {
        auto got = dec.decryptAndDecode(ct);
        double err = 0;
        for (std::size_t i = 0; i < expect.size(); ++i)
            err = std::max(err, std::abs(got[i] - expect[i]));
        return err;
    }

    CkksContext ctx;
    Rng rng;
    SecretKey sk;
    KeyBundle keys;
    Encryptor enc;
    Decryptor dec;
    Evaluator eval;
};

Fixture &
fx()
{
    static Fixture f;
    return f;
}

TEST(CkksEvaluator, EncryptDecryptRoundTrip)
{
    auto z = fx().randomSlots(1.0, 1);
    auto ct = fx().encryptSlots(z, 2);
    EXPECT_LT(fx().maxErrorVs(ct, z), 1e-3);
}

TEST(CkksEvaluator, EncryptionIsRandomized)
{
    auto z = fx().randomSlots(1.0, 2);
    auto pt = fx().ctx.encoder().encode(z, fx().ctx.params().scale(), 2);
    auto ct1 = fx().enc.encrypt(pt, fx().rng);
    auto ct2 = fx().enc.encrypt(pt, fx().rng);
    bool differ = false;
    for (std::size_t j = 0; j < fx().ctx.n() && !differ; ++j)
        differ = ct1.c0.limb(0)[j] != ct2.c0.limb(0)[j];
    EXPECT_TRUE(differ);
}

TEST(CkksEvaluator, HAdd)
{
    auto z1 = fx().randomSlots(1.0, 3);
    auto z2 = fx().randomSlots(1.0, 4);
    auto ct = fx().eval.add(fx().encryptSlots(z1, 2),
                            fx().encryptSlots(z2, 2));
    std::vector<Complex> expect(z1.size());
    for (std::size_t i = 0; i < z1.size(); ++i)
        expect[i] = z1[i] + z2[i];
    EXPECT_LT(fx().maxErrorVs(ct, expect), 2e-3);
}

TEST(CkksEvaluator, HSub)
{
    auto z1 = fx().randomSlots(1.0, 5);
    auto z2 = fx().randomSlots(1.0, 6);
    auto ct = fx().eval.sub(fx().encryptSlots(z1, 2),
                            fx().encryptSlots(z2, 2));
    std::vector<Complex> expect(z1.size());
    for (std::size_t i = 0; i < z1.size(); ++i)
        expect[i] = z1[i] - z2[i];
    EXPECT_LT(fx().maxErrorVs(ct, expect), 2e-3);
}

TEST(CkksEvaluator, CMultWithRescale)
{
    auto z = fx().randomSlots(1.0, 7);
    auto w = fx().randomSlots(1.0, 8);
    auto pt = fx().ctx.encoder().encode(w, fx().ctx.params().scale(), 2);
    auto ct = fx().eval.multiplyPlain(fx().encryptSlots(z, 2), pt);
    ct = fx().eval.rescale(ct);
    std::vector<Complex> expect(z.size());
    for (std::size_t i = 0; i < z.size(); ++i)
        expect[i] = z[i] * w[i];
    EXPECT_LT(fx().maxErrorVs(ct, expect), 5e-3);
}

TEST(CkksEvaluator, HMultWithRelinearization)
{
    auto z1 = fx().randomSlots(1.0, 9);
    auto z2 = fx().randomSlots(1.0, 10);
    auto ct = fx().eval.multiplyRescale(fx().encryptSlots(z1, 3),
                                        fx().encryptSlots(z2, 3));
    std::vector<Complex> expect(z1.size());
    for (std::size_t i = 0; i < z1.size(); ++i)
        expect[i] = z1[i] * z2[i];
    EXPECT_LT(fx().maxErrorVs(ct, expect), 1e-2);
}

TEST(CkksEvaluator, MultiplicationDepthTwo)
{
    auto z = fx().randomSlots(1.0, 11);
    auto ct = fx().encryptSlots(z, 3);
    auto sq = fx().eval.multiplyRescale(ct, ct);
    auto quad = fx().eval.multiplyRescale(sq, sq);
    std::vector<Complex> expect(z.size());
    for (std::size_t i = 0; i < z.size(); ++i)
        expect[i] = z[i] * z[i] * z[i] * z[i];
    EXPECT_LT(fx().maxErrorVs(quad, expect), 5e-2);
}

TEST(CkksEvaluator, HRotate)
{
    auto z = fx().randomSlots(1.0, 12);
    std::size_t slots = fx().ctx.slots();
    for (s64 step : {s64(1), s64(2), s64(4)}) {
        auto ct = fx().eval.rotate(fx().encryptSlots(z, 2), step);
        std::vector<Complex> expect(slots);
        for (std::size_t i = 0; i < slots; ++i)
            expect[i] = z[(i + static_cast<std::size_t>(step)) % slots];
        EXPECT_LT(fx().maxErrorVs(ct, expect), 5e-3) << "step " << step;
    }
}

TEST(CkksEvaluator, RotateByZeroIsIdentity)
{
    auto z = fx().randomSlots(1.0, 13);
    auto ct = fx().encryptSlots(z, 2);
    auto rot = fx().eval.rotate(ct, 0);
    EXPECT_LT(fx().maxErrorVs(rot, z), 1e-3);
}

TEST(CkksEvaluator, RotateRequiresKey)
{
    auto z = fx().randomSlots(1.0, 14);
    auto ct = fx().encryptSlots(z, 2);
    EXPECT_THROW(fx().eval.rotate(ct, 3), std::invalid_argument);
}

TEST(CkksEvaluator, Conjugate)
{
    auto z = fx().randomSlots(1.0, 15);
    auto ct = fx().eval.conjugate(fx().encryptSlots(z, 2));
    std::vector<Complex> expect(z.size());
    for (std::size_t i = 0; i < z.size(); ++i)
        expect[i] = std::conj(z[i]);
    EXPECT_LT(fx().maxErrorVs(ct, expect), 5e-3);
}

TEST(CkksEvaluator, NegateAndConstOps)
{
    auto z = fx().randomSlots(1.0, 16);
    auto ct = fx().encryptSlots(z, 2);
    std::vector<Complex> expect(z.size());

    auto neg = fx().eval.negate(ct);
    for (std::size_t i = 0; i < z.size(); ++i)
        expect[i] = -z[i];
    EXPECT_LT(fx().maxErrorVs(neg, expect), 1e-3);

    auto plus = fx().eval.addConst(ct, 1.5);
    for (std::size_t i = 0; i < z.size(); ++i)
        expect[i] = z[i] + 1.5;
    EXPECT_LT(fx().maxErrorVs(plus, expect), 1e-3);

    auto scaled = fx().eval.rescale(fx().eval.multiplyConst(ct, -2.0));
    for (std::size_t i = 0; i < z.size(); ++i)
        expect[i] = -2.0 * z[i];
    EXPECT_LT(fx().maxErrorVs(scaled, expect), 5e-3);
}

TEST(CkksEvaluator, ScaleTracksThroughRescale)
{
    auto z = fx().randomSlots(1.0, 17);
    auto ct = fx().encryptSlots(z, 3);
    double scale0 = ct.scale;
    auto prod = fx().eval.multiply(ct, ct);
    EXPECT_DOUBLE_EQ(prod.scale, scale0 * scale0);
    auto rescaled = fx().eval.rescale(prod);
    u64 q_last = fx().ctx.tower().prime(2);
    EXPECT_DOUBLE_EQ(rescaled.scale,
                     scale0 * scale0 / static_cast<double>(q_last));
    EXPECT_EQ(rescaled.levelCount(), 2u);
}

TEST(CkksEvaluator, LevelMismatchRejected)
{
    auto z = fx().randomSlots(1.0, 18);
    auto a = fx().encryptSlots(z, 3);
    auto b = fx().encryptSlots(z, 2);
    EXPECT_THROW(fx().eval.add(a, b), std::invalid_argument);
    auto dropped = fx().eval.dropToLevelCount(a, 2);
    EXPECT_NO_THROW(fx().eval.add(dropped, b));
}

TEST(CkksEvaluator, DropToLevelCountCopiesOnlyTheKeptLimbs)
{
    auto z = fx().randomSlots(1.0, 20);
    auto a = fx().encryptSlots(z, 3);
    auto dropped = fx().eval.dropToLevelCount(a, 2);

    // Bit-identical to copying every limb and then truncating.
    auto ref = a;
    ref.c0.truncateLimbs(2);
    ref.c1.truncateLimbs(2);
    ASSERT_EQ(dropped.levelCount(), 2u);
    EXPECT_EQ(dropped.scale, ref.scale);
    auto expectSame = [](const rns::RnsPolynomial &got,
                         const rns::RnsPolynomial &want) {
        EXPECT_EQ(got.limbIndices(), want.limbIndices());
        EXPECT_EQ(got.domain(), want.domain());
        for (std::size_t l = 0; l < want.numLimbs(); ++l)
            EXPECT_TRUE(std::equal(got.limb(l), got.limb(l) + got.n(),
                                   want.limb(l)))
                << "limb " << l;
    };
    expectSame(dropped.c0, ref.c0);
    expectSame(dropped.c1, ref.c1);

    // Storage holds exactly the kept limbs; copy-then-truncate keeps
    // the dropped limb's words as capacity.
    std::size_t n = a.c0.n();
    EXPECT_EQ(dropped.c0.takeStorage().capacity(), 2 * n);
    EXPECT_EQ(dropped.c1.takeStorage().capacity(), 2 * n);
    EXPECT_EQ(ref.c0.takeStorage().capacity(), 3 * n);
}

TEST(CkksEvaluator, MultiplyAtLevelZeroRejected)
{
    auto z = fx().randomSlots(1.0, 19);
    auto a = fx().encryptSlots(z, 1);
    EXPECT_THROW(fx().eval.multiply(a, a), std::invalid_argument);
}

TEST(CkksEvaluator, HomomorphicDotProductViaRotations)
{
    // Rotate-and-add reduction over 4 packed values — the primitive
    // the paper's HROTATE serves (SII-B).
    std::vector<Complex> z(fx().ctx.slots(), Complex(0, 0));
    z[0] = Complex(1, 0);
    z[1] = Complex(2, 0);
    z[2] = Complex(3, 0);
    z[3] = Complex(4, 0);
    auto ct = fx().encryptSlots(z, 2);
    auto sum = ct;
    for (s64 step : {s64(2), s64(1)})
        sum = fx().eval.add(sum, fx().eval.rotate(sum, step));
    auto got = fx().dec.decryptAndDecode(sum);
    EXPECT_NEAR(got[0].real(), 10.0, 1e-2);
}

} // namespace
} // namespace tensorfhe::ckks
