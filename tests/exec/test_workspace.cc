/**
 * @file
 * Workspace arena tests: checkout/return cycling, steady-state reuse,
 * best-fit order, detach semantics, concurrent checkout from a full
 * worker pool, and the footprint bound: least-recently-returned
 * eviction, and a pool that stays flat under donation-heavy
 * multiply -> rescale loops and repeated deep-CNN inference.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "batch/executor.hh"
#include "ckks/crypto.hh"
#include "common/thread_pool.hh"
#include "exec/workspace.hh"
#include "rns/tower.hh"
#include "workloads/cnn.hh"

namespace tensorfhe::exec
{
namespace
{

rns::RnsTower &
tower()
{
    static rns::RnsTower t([] {
        rns::TowerConfig cfg;
        cfg.n = 64;
        cfg.levels = 3;
        cfg.special = 1;
        return cfg;
    }());
    return t;
}

std::vector<std::size_t>
limbs(std::size_t count)
{
    std::vector<std::size_t> idx(count);
    for (std::size_t i = 0; i < count; ++i)
        idx[i] = i;
    return idx;
}

TEST(Workspace, CheckoutReturnsZeroedPoly)
{
    Workspace ws(tower());
    auto p = ws.zeros(limbs(2), rns::Domain::Eval);
    EXPECT_EQ(p->numLimbs(), 2u);
    EXPECT_EQ(p->domain(), rns::Domain::Eval);
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t c = 0; c < p->n(); ++c)
            ASSERT_EQ(p->limb(i)[c], 0u);
}

TEST(Workspace, SteadyStateReusesInsteadOfAllocating)
{
    Workspace ws(tower());
    // Warm-up: one allocation enters the pool on release.
    { auto p = ws.zeros(limbs(3), rns::Domain::Coeff); }
    ws.resetStats();
    for (int round = 0; round < 10; ++round) {
        auto p = ws.zeros(limbs(3), rns::Domain::Coeff);
        p->limb(0)[0] = 7; // dirty it; next checkout must re-zero
    }
    auto s = ws.stats();
    EXPECT_EQ(s.allocs, 0u);
    EXPECT_EQ(s.reuses, 10u);
    EXPECT_EQ(s.returns, 10u);
    EXPECT_DOUBLE_EQ(s.reuseRate(), 1.0);
    // Re-zeroing on checkout.
    auto p = ws.zeros(limbs(3), rns::Domain::Coeff);
    EXPECT_EQ(p->limb(0)[0], 0u);
}

TEST(Workspace, ReusedBufferServesSmallerShapes)
{
    Workspace ws(tower());
    { auto big = ws.zeros(limbs(4), rns::Domain::Coeff); }
    ws.resetStats();
    auto small = ws.zeros(limbs(1), rns::Domain::Coeff);
    EXPECT_EQ(ws.stats().reuses, 1u);
    EXPECT_EQ(ws.stats().allocs, 0u);
    EXPECT_EQ(small->numLimbs(), 1u);
}

TEST(Workspace, BestFitPrefersSmallestSufficientBuffer)
{
    Workspace ws(tower());
    // Two pooled buffers of different capacity: held live together so
    // both allocate, then both return to the pool.
    {
        auto big = ws.zeros(limbs(4), rns::Domain::Coeff);
        auto small = ws.zeros(limbs(1), rns::Domain::Coeff);
    }
    ws.resetStats();
    // A 1-limb checkout must take the 1-limb buffer, leaving the
    // 4-limb one for a later large checkout (no fresh allocation).
    auto a = ws.zeros(limbs(1), rns::Domain::Coeff);
    auto b = ws.zeros(limbs(4), rns::Domain::Coeff);
    EXPECT_EQ(ws.stats().allocs, 0u);
    EXPECT_EQ(ws.stats().reuses, 2u);
}

TEST(Workspace, DetachLeavesArenaUntouched)
{
    Workspace ws(tower());
    ws.resetStats();
    rns::RnsPolynomial kept;
    {
        auto p = ws.zeros(limbs(2), rns::Domain::Eval);
        p->limb(0)[1] = 42;
        kept = p.detach();
    }
    EXPECT_EQ(ws.stats().returns, 0u); // detached storage never returns
    EXPECT_EQ(kept.limb(0)[1], 42u);
    ws.resetStats();
    auto p = ws.zeros(limbs(2), rns::Domain::Eval);
    EXPECT_EQ(ws.stats().allocs, 1u); // nothing pooled to reuse
}

TEST(Workspace, TrimDropsPooledBuffers)
{
    Workspace ws(tower());
    { auto p = ws.zeros(limbs(2), rns::Domain::Eval); }
    EXPECT_EQ(ws.stats().pooledBytes, 2 * tower().n() * sizeof(u64));
    ws.trim();
    EXPECT_EQ(ws.stats().pooledBytes, 0u);
    ws.resetStats();
    auto p = ws.zeros(limbs(2), rns::Domain::Eval);
    EXPECT_EQ(ws.stats().allocs, 1u);
    EXPECT_EQ(ws.stats().reuses, 0u);
}

TEST(Workspace, ConcurrentCheckoutFromFullPool)
{
    // ThreadSanitizer-style stress: every lane hammers checkout /
    // write / release concurrently; counters must balance exactly and
    // no lane may observe another lane's writes (buffers are
    // exclusively owned between checkout and release).
    Workspace ws(tower());
    ThreadPool &pool = ThreadPool::global();
    constexpr std::size_t kLanes = 16;
    constexpr std::size_t kIters = 200;
    std::atomic<u64> bad{0};
    pool.parallelFor(0, kLanes, [&](std::size_t lane) {
        for (std::size_t it = 0; it < kIters; ++it) {
            auto p = ws.zeros(limbs(1 + (it % 4)), rns::Domain::Coeff);
            u64 tag = lane * 1000 + it;
            for (std::size_t i = 0; i < p->numLimbs(); ++i)
                p->limb(i)[0] = tag;
            for (std::size_t i = 0; i < p->numLimbs(); ++i)
                if (p->limb(i)[0] != tag)
                    bad.fetch_add(1);
        }
    });
    EXPECT_EQ(bad.load(), 0u);
    auto s = ws.stats();
    EXPECT_EQ(s.allocs + s.reuses, kLanes * kIters);
    EXPECT_EQ(s.returns, kLanes * kIters);
}

const u64 *
storageOf(const Workspace::Pooled &p)
{
    return p->limb(0);
}

TEST(Workspace, BestFitTakesSmallestThenOldest)
{
    Workspace ws(tower());
    const u64 *four = nullptr, *two_old = nullptr, *one = nullptr,
              *two_new = nullptr;
    {
        // Held together so each allocates; released in this order.
        auto a = ws.zeros(limbs(4), rns::Domain::Coeff);
        auto b = ws.zeros(limbs(2), rns::Domain::Coeff);
        auto c = ws.zeros(limbs(1), rns::Domain::Coeff);
        auto d = ws.zeros(limbs(2), rns::Domain::Coeff);
        four = storageOf(a);
        two_old = storageOf(b);
        one = storageOf(c);
        two_new = storageOf(d);
        a = {};
        b = {};
        c = {};
        d = {};
    }
    ws.resetStats();
    // The smallest buffer that fits, the oldest among equal ones.
    auto p = ws.zeros(limbs(2), rns::Domain::Coeff);
    auto q = ws.zeros(limbs(2), rns::Domain::Coeff);
    auto r = ws.zeros(limbs(2), rns::Domain::Coeff);
    auto t = ws.zeros(limbs(1), rns::Domain::Coeff);
    EXPECT_EQ(storageOf(p), two_old);
    EXPECT_EQ(storageOf(q), two_new);
    EXPECT_EQ(storageOf(r), four);
    EXPECT_EQ(storageOf(t), one);
    EXPECT_EQ(ws.stats().allocs, 0u);
}

TEST(Workspace, EvictsLeastRecentlyReturnedFirst)
{
    Workspace ws(tower());
    const u64 bytes = tower().n() * sizeof(u64);
    // Three one-limb leases at once set the bound to three buffers.
    auto x = ws.zeros(limbs(1), rns::Domain::Coeff);
    auto y = ws.zeros(limbs(1), rns::Domain::Coeff);
    auto z = ws.zeros(limbs(1), rns::Domain::Coeff);
    const u64 *ys = storageOf(y), *zs = storageOf(z);
    // The oldest return comes from another thread, so with distinct
    // shards the eviction must still pick it over this shard's.
    std::thread([&] { x = {}; }).join();
    y = {};
    z = {};
    EXPECT_EQ(ws.stats().peakLeasedBytes, 3 * bytes);
    EXPECT_EQ(ws.stats().pooledBytes, 3 * bytes);
    EXPECT_EQ(ws.stats().evictions, 0u);

    // A donation over the bound evicts x, the least recently returned,
    // and keeps itself.
    auto w = rns::RnsPolynomial::zeros(tower(), 1, rns::Domain::Coeff);
    const u64 *donated = w.limb(0);
    ws.donate(std::move(w));
    auto s = ws.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.pooledBytes, 3 * bytes);
    EXPECT_EQ(s.returns, 4u);

    ws.resetStats();
    auto a = ws.zeros(limbs(1), rns::Domain::Coeff);
    auto b = ws.zeros(limbs(1), rns::Domain::Coeff);
    auto c = ws.zeros(limbs(1), rns::Domain::Coeff);
    EXPECT_EQ(ws.stats().reuses, 3u);
    EXPECT_EQ(ws.stats().allocs, 0u);
    EXPECT_EQ(storageOf(a), ys);
    EXPECT_EQ(storageOf(b), zs);
    EXPECT_EQ(storageOf(c), donated);
}

TEST(Workspace, DonationHeavyLoopKeepsAFlatFootprint)
{
    // Every multiply donates the storage it replaces and detaches its
    // outputs from the arena: an unbounded pool gains buffers each
    // round. (Rescale works in place and neither donates nor leases.)
    ckks::CkksContext ctx(ckks::Presets::tiny());
    Rng rng(31);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng);
    ckks::Encryptor enc(ctx, keys.pk);
    batch::BatchedEvaluator beval(ctx, keys);
    std::vector<ckks::Complex> z(ctx.slots(), ckks::Complex(0.5, 0));
    auto ct = enc.encrypt(
        ctx.encoder().encode(z, ctx.params().scale(),
                             ctx.tower().numQ()),
        rng);
    batch::BatchedEvaluator::Cts in = {ct, ct};

    auto &ws = beval.dispatcher().workspace();
    u64 pooled_at_5 = 0;
    for (int round = 1; round <= 200; ++round) {
        auto prod = beval.multiply(in, in);
        beval.rescaleInPlace(prod);
        auto s = ws.stats();
        ASSERT_LE(s.pooledBytes, s.peakLeasedBytes) << "round " << round;
        if (round == 5)
            pooled_at_5 = s.pooledBytes;
    }
    auto s = ws.stats();
    EXPECT_GT(pooled_at_5, 0u);
    EXPECT_EQ(s.pooledBytes, pooled_at_5);
    EXPECT_GT(s.evictions, 0u);
    // Donated and evicted buffers still count as returns: a donation
    // adds a return without a lease.
    ws.donate(rns::RnsPolynomial::zeros(ctx.tower(), 1,
                                        rns::Domain::Coeff));
    auto d = ws.stats();
    EXPECT_EQ(d.returns, s.returns + 1);
    EXPECT_EQ(d.allocs + d.reuses, s.allocs + s.reuses);
}

TEST(Workspace, RepeatedDeepCnnRunsKeepPooledBytesFlat)
{
    ckks::CkksContext ctx(
        workloads::EncryptedCnnClassifier::recommendedDeepParams());
    auto cfg = workloads::EncryptedCnnClassifier::deepConfig();
    cfg.usePlanner = true;
    workloads::EncryptedCnnClassifier cnn(ctx, cfg);
    Rng rng(41);
    auto sk = ctx.generateSecretKey(rng);
    auto keys = ctx.generateKeys(sk, rng, cnn.requiredRotations(),
                                 cnn.requiredConjRotations());
    ckks::Encryptor enc(ctx, keys.pk);
    nn::NnEngine engine(ctx, keys);
    const auto &meta = cnn.inputMeta();
    std::vector<double> image(cfg.inChannels * cfg.height * cfg.width,
                              0.25);
    auto x = nn::encryptTensor(ctx, enc, rng, image, meta.shape,
                               meta.levelCount);

    auto &ws = engine.batched().dispatcher().workspace();
    u64 pooled_after_second = 0;
    for (int run = 1; run <= 10; ++run) {
        (void)cnn.net().run(engine, x);
        auto s = ws.stats();
        EXPECT_LE(s.pooledBytes, s.peakLeasedBytes) << "run " << run;
        if (run == 2) {
            pooled_after_second = s.pooledBytes;
        } else if (run > 2) {
            EXPECT_EQ(s.pooledBytes, pooled_after_second)
                << "run " << run;
        }
    }
}

} // namespace
} // namespace tensorfhe::exec
