#include "rns/conv.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "simd/simd.hh"
#include "trace/trace.hh"

namespace tensorfhe::rns
{

namespace
{

ThreadPool &
poolOrGlobal(ThreadPool *pool)
{
    return pool ? *pool : ThreadPool::global();
}

/** Cells per Conv task: the scale-phase scratch (s x block) and the
    source block stay cache-resident across the t target limbs. */
constexpr std::size_t kConvBlock = 512;

/** Cells per rescale block (two stack spans). */
constexpr std::size_t kRescaleBlock = 256;

} // namespace

// ------------------------------------------------------------------
// BaseConvPlan

BaseConvPlan::BaseConvPlan(const RnsTower &tower,
                           std::vector<std::size_t> src,
                           std::vector<std::size_t> dst)
    : n_(tower.n()), src_(std::move(src)), dst_(std::move(dst))
{
    std::size_t s = src_.size();
    std::size_t t = dst_.size();
    TFHE_ASSERT(s >= 1, "Conv needs at least one source limb");
    bool small = true;
    for (std::size_t i : src_) {
        srcQ_.push_back(tower.prime(i));
        small = small && tower.prime(i) < (u64(1) << 32);
    }
    for (std::size_t j : dst_) {
        dstQ_.push_back(tower.prime(j));
        small = small && tower.prime(j) < (u64(1) << 32);
    }

    hatInv_.resize(s);
    hatInvShoup_.resize(s);
    if (small)
        hatInvShoup32_.resize(s);
    for (std::size_t i = 0; i < s; ++i) {
        const Modulus &mi = tower.modulus(src_[i]);
        u64 prod = 1;
        for (std::size_t i2 = 0; i2 < s; ++i2) {
            if (i2 != i)
                prod = mi.mul(prod, srcQ_[i2] % mi.value());
        }
        hatInv_[i] = mi.inv(prod);
        hatInvShoup_[i] = shoupPrecompute(hatInv_[i], mi.value());
        if (small)
            hatInvShoup32_[i] =
                shoupPrecomputeBeta(hatInv_[i], mi.value(), 32);
        scale_ = scale_ || hatInv_[i] != 1;
    }
    hat_.resize(t * s);
    hatShoup64_.resize(t * s);
    if (small)
        hatShoup32_.resize(t * s);
    for (std::size_t j = 0; j < t; ++j) {
        const Modulus &mj = tower.modulus(dst_[j]);
        for (std::size_t i = 0; i < s; ++i) {
            u64 prod = 1;
            for (std::size_t i2 = 0; i2 < s; ++i2) {
                if (i2 != i)
                    prod = mj.mul(prod, srcQ_[i2] % mj.value());
            }
            std::size_t at = j * s + i;
            hat_[at] = prod;
            hatShoup64_[at] = shoupPrecompute(prod, mj.value());
            if (small)
                hatShoup32_[at] = shoupPrecomputeBeta(prod, mj.value(), 32);
        }
    }
}

void
BaseConvPlan::applyInto(const u64 *const *src, u64 *const *dst,
                        std::size_t batch, ThreadPool *pool) const
{
    if (batch == 0)
        return;
    std::size_t s = src_.size();
    std::size_t t = dst_.size();
    ScopedKernelTimer timer(KernelKind::Conv, batch * (s + t) * n_);

    const simd::Ops &ops = simd::ops();
    bool small = !hatShoup32_.empty();
    std::size_t block = std::min(n_, kConvBlock);
    std::size_t blocks = (n_ + block - 1) / block;
    poolOrGlobal(pool).parallelFor2D(batch, blocks, [&](std::size_t b,
                                                        std::size_t k) {
        thread_local std::vector<const u64 *> ys;
        thread_local std::vector<u64> scratch;
        std::size_t c0 = k * block;
        std::size_t len = std::min(block, n_ - c0);
        const u64 *const *a = src + b * s;
        ys.resize(s);
        for (std::size_t i = 0; i < s; ++i)
            ys[i] = a[i] + c0;
        if (scale_) {
            // The scale phase is a one-term conversion per source limb:
            // y_i = a_i * hatInv_i mod s_i, canonical.
            if (scratch.size() < s * block)
                scratch.resize(s * block);
            for (std::size_t i = 0; i < s; ++i) {
                u64 *y = scratch.data() + i * block;
                ops.convAccum(y, &ys[i], &hatInv_[i],
                              small ? &hatInvShoup32_[i] : nullptr,
                              &hatInvShoup_[i], 1, len, srcQ_[i]);
                ys[i] = y;
            }
        }
        for (std::size_t j = 0; j < t; ++j) {
            std::size_t row = j * s;
            ops.convAccum(dst[b * t + j] + c0, ys.data(), &hat_[row],
                          small ? &hatShoup32_[row] : nullptr,
                          &hatShoup64_[row], s, len, dstQ_[j]);
        }
    });
}

namespace
{

/** Raw limb pointers of every polynomial, slot-major. */
template <class Poly, class Ptr>
std::vector<Ptr>
limbPtrs(Poly *const *ps, std::size_t batch, std::size_t first,
         std::size_t count)
{
    std::vector<Ptr> out;
    out.reserve(batch * count);
    for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t i = first; i < first + count; ++i)
            out.push_back(ps[b]->limb(i));
    return out;
}

/** Fresh Coeff-domain outputs over `limbs` and their pointers. */
std::vector<RnsPolynomial>
freshOutputs(const RnsTower &tower, const std::vector<std::size_t> &limbs,
             std::size_t batch, std::vector<RnsPolynomial *> &ptrs)
{
    std::vector<RnsPolynomial> out;
    out.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b)
        out.emplace_back(tower, limbs, Domain::Coeff);
    ptrs.resize(batch);
    for (std::size_t b = 0; b < batch; ++b)
        ptrs[b] = &out[b];
    return out;
}

} // namespace

std::vector<RnsPolynomial>
fastBaseConvBatch(const std::vector<const RnsPolynomial *> &as,
                  const std::vector<std::size_t> &target_limbs,
                  ThreadPool *pool)
{
    std::size_t batch = as.size();
    if (batch == 0)
        return {};
    for (const RnsPolynomial *a : as) {
        TFHE_ASSERT(a->domain() == Domain::Coeff,
                    "Conv operates in coefficient domain");
        TFHE_ASSERT(a->limbIndices() == as[0]->limbIndices(),
                    "batched Conv requires a uniform limb set");
    }
    // One factor table for the whole batch (paper SIV-B data reuse).
    BaseConvPlan plan(as[0]->tower(), as[0]->limbIndices(), target_limbs);
    std::vector<RnsPolynomial *> out_ptrs;
    auto out = freshOutputs(as[0]->tower(), target_limbs, batch, out_ptrs);
    auto src = limbPtrs<const RnsPolynomial, const u64 *>(
        as.data(), batch, 0, as[0]->numLimbs());
    auto dst = limbPtrs<RnsPolynomial, u64 *>(out_ptrs.data(), batch, 0,
                                              target_limbs.size());
    plan.applyInto(src.data(), dst.data(), batch, pool);
    return out;
}

RnsPolynomial
fastBaseConv(const RnsPolynomial &a,
             const std::vector<std::size_t> &target_limbs)
{
    return std::move(fastBaseConvBatch({&a}, target_limbs)[0]);
}

std::vector<RnsPolynomial>
decomposeDigits(const RnsPolynomial &a, std::size_t alpha)
{
    TFHE_ASSERT(alpha >= 1);
    std::size_t limbs = a.numLimbs();
    std::vector<RnsPolynomial> digits;
    for (std::size_t start = 0; start < limbs; start += alpha) {
        std::size_t stop = std::min(start + alpha, limbs);
        std::vector<std::size_t> idx(a.limbIndices().begin() + start,
                                     a.limbIndices().begin() + stop);
        RnsPolynomial d(a.tower(), idx, a.domain());
        for (std::size_t i = start; i < stop; ++i) {
            std::copy(a.limb(i), a.limb(i) + a.n(),
                      d.limb(i - start));
        }
        digits.push_back(std::move(d));
    }
    return digits;
}

// ------------------------------------------------------------------
// ModUpPlan

namespace
{

std::vector<std::size_t>
unionBasis(const RnsTower &tower, std::size_t level_count)
{
    std::vector<std::size_t> target;
    for (std::size_t i = 0; i < level_count; ++i)
        target.push_back(i);
    for (std::size_t k = 0; k < tower.numP(); ++k)
        target.push_back(tower.specialIndex(k));
    return target;
}

std::vector<std::size_t>
limbsOutside(const std::vector<std::size_t> &target,
             const std::vector<std::size_t> &digit_limbs)
{
    std::vector<std::size_t> others;
    for (std::size_t idx : target) {
        if (std::find(digit_limbs.begin(), digit_limbs.end(), idx)
                == digit_limbs.end()) {
            others.push_back(idx);
        }
    }
    return others;
}

} // namespace

ModUpPlan::ModUpPlan(const RnsTower &tower,
                     std::vector<std::size_t> digit_limbs,
                     std::size_t level_count)
    : tower_(&tower), digit_limbs_(std::move(digit_limbs)),
      target_(unionBasis(tower, level_count)),
      conv_(tower, digit_limbs_, limbsOutside(target_, digit_limbs_))
{
    for (std::size_t idx : digit_limbs_) {
        auto it = std::find(target_.begin(), target_.end(), idx);
        TFHE_ASSERT(it != target_.end(),
                    "digit limb outside the union basis");
        copyPos_.push_back(static_cast<std::size_t>(it - target_.begin()));
    }
    for (std::size_t j = 0; j < target_.size(); ++j)
        if (std::find(copyPos_.begin(), copyPos_.end(), j)
                == copyPos_.end())
            convPos_.push_back(j);
}

void
ModUpPlan::applyBatchInto(const std::vector<const RnsPolynomial *> &digits,
                          RnsPolynomial *const *outs,
                          ThreadPool *pool) const
{
    std::size_t batch = digits.size();
    if (batch == 0)
        return;
    trace::TraceSpan tsp("rns", "modup");
    tsp.arg("batch", static_cast<s64>(batch))
        .arg("limbs", static_cast<s64>(target_.size()));
    std::size_t n = tower_->n();
    std::size_t dl = digit_limbs_.size();
    std::size_t t = convPos_.size();
    std::vector<const u64 *> src(batch * dl);
    std::vector<u64 *> dst(batch * t);
    for (std::size_t b = 0; b < batch; ++b) {
        TFHE_ASSERT(digits[b]->domain() == Domain::Coeff
                        && digits[b]->limbIndices() == digit_limbs_,
                    "digit does not match the plan's limb set");
        TFHE_ASSERT(outs[b]->limbIndices() == target_
                        && outs[b]->domain() == Domain::Coeff,
                    "ModUp output not preshaped to the union basis");
        for (std::size_t i = 0; i < dl; ++i)
            src[b * dl + i] = digits[b]->limb(i);
        for (std::size_t k = 0; k < t; ++k)
            dst[b * t + k] = outs[b]->limb(convPos_[k]);
    }
    conv_.applyInto(src.data(), dst.data(), batch, pool);
    poolOrGlobal(pool).parallelFor2D(batch, dl, [&](std::size_t b,
                                                    std::size_t i) {
        std::copy(src[b * dl + i], src[b * dl + i] + n,
                  outs[b]->limb(copyPos_[i]));
    });
}

RnsPolynomial
modUp(const RnsPolynomial &digit, std::size_t level_count)
{
    ModUpPlan plan(digit.tower(), digit.limbIndices(), level_count);
    RnsPolynomial out(digit.tower(), plan.unionLimbs(), Domain::Coeff);
    RnsPolynomial *outp = &out;
    plan.applyBatchInto({&digit}, &outp);
    return out;
}

// ------------------------------------------------------------------
// ModDownPlan

namespace
{

std::vector<std::size_t>
qPartOfUnion(const RnsTower &tower,
             const std::vector<std::size_t> &union_limbs)
{
    TFHE_ASSERT(union_limbs.size() > tower.numP(), "nothing to drop");
    return {union_limbs.begin(),
            union_limbs.end()
                - static_cast<std::ptrdiff_t>(tower.numP())};
}

std::vector<std::size_t>
pPartOfUnion(const RnsTower &tower,
             const std::vector<std::size_t> &union_limbs)
{
    TFHE_ASSERT(union_limbs.size() > tower.numP(), "nothing to drop");
    return {union_limbs.end()
                - static_cast<std::ptrdiff_t>(tower.numP()),
            union_limbs.end()};
}

} // namespace

ModDownPlan::ModDownPlan(const RnsTower &tower,
                         const std::vector<std::size_t> &union_limbs)
    : tower_(&tower), q_idx_(qPartOfUnion(tower, union_limbs)),
      p_idx_(pPartOfUnion(tower, union_limbs)),
      conv_(tower, p_idx_, q_idx_)
{
    std::size_t k = tower.numP();
    for (std::size_t j = 0; j < k; ++j)
        TFHE_ASSERT(p_idx_[j] >= tower.numQ(), "limb order violated");
    // -P^-1 per q-limb is slot-independent: precompute once.
    std::size_t ql = q_idx_.size();
    negPInv_.resize(ql);
    negPInvShoup_.resize(ql);
    for (std::size_t j = 0; j < ql; ++j) {
        u64 q = tower.modulus(q_idx_[j]).value();
        negPInv_[j] = negMod(tower.pInvModQ(q_idx_[j]), q);
        negPInvShoup_[j] = shoupPrecompute(negPInv_[j], q);
    }
}

bool
ModDownPlan::matchesUnionBasis(const RnsPolynomial &a) const
{
    std::size_t ql = q_idx_.size();
    if (a.numLimbs() != ql + p_idx_.size())
        return false;
    return std::equal(q_idx_.begin(), q_idx_.end(),
                      a.limbIndices().begin())
        && std::equal(p_idx_.begin(), p_idx_.end(),
                      a.limbIndices().begin()
                          + static_cast<std::ptrdiff_t>(ql));
}

void
ModDownPlan::applyBatchInto(const std::vector<const RnsPolynomial *> &as,
                            RnsPolynomial *const *outs,
                            ThreadPool *pool) const
{
    std::size_t batch = as.size();
    if (batch == 0)
        return;
    trace::TraceSpan tsp("rns", "moddown");
    tsp.arg("batch", static_cast<s64>(batch))
        .arg("limbs", static_cast<s64>(q_idx_.size()));
    std::size_t k = p_idx_.size();
    std::size_t ql = q_idx_.size();
    std::size_t n = tower_->n();
    for (std::size_t b = 0; b < batch; ++b) {
        TFHE_ASSERT(as[b]->domain() == Domain::Coeff);
        TFHE_ASSERT(matchesUnionBasis(*as[b]),
                    "batched ModDown requires the plan's union basis");
        TFHE_ASSERT(outs[b]->limbIndices() == q_idx_
                        && outs[b]->domain() == Domain::Coeff,
                    "ModDown output not preshaped to the q-basis");
    }

    // Convert a mod P (the P limbs, read in place) onto the q-limbs.
    auto src = limbPtrs<const RnsPolynomial, const u64 *>(as.data(),
                                                          batch, ql, k);
    auto dst = limbPtrs<RnsPolynomial, u64 *>(outs, batch, 0, ql);
    conv_.applyInto(src.data(), dst.data(), batch, pool);

    // (conv - a_j) * (q_j - P^-1) = (a_j - conv) * P^-1 mod q_j.
    const simd::Ops &ops = simd::ops();
    poolOrGlobal(pool).parallelFor2D(batch, ql, [&](std::size_t b,
                                                    std::size_t j) {
        u64 q = tower_->prime(q_idx_[j]);
        u64 *po = outs[b]->limb(j);
        ops.subSpan(po, as[b]->limb(j), n, q);
        ops.mulShoup(po, negPInv_[j], negPInvShoup_[j], n, q);
    });
}

RnsPolynomial
modDown(const RnsPolynomial &a)
{
    ModDownPlan plan(a.tower(), a.limbIndices());
    RnsPolynomial out(a.tower(), plan.qLimbs(), Domain::Coeff);
    RnsPolynomial *outp = &out;
    plan.applyBatchInto({&a}, &outp);
    return out;
}

// ------------------------------------------------------------------
// RESCALE core

void
rescaleByLastLimbInPlace(RnsPolynomial *const *as, std::size_t batch,
                         ThreadPool *pool)
{
    if (batch == 0)
        return;
    const RnsPolynomial &front = *as[0];
    TFHE_ASSERT(front.numLimbs() >= 2, "cannot rescale a one-limb poly");
    const RnsTower &tower = front.tower();
    std::size_t last = front.numLimbs() - 1;
    std::size_t n = front.n();
    u64 q_last = tower.prime(front.limbIndex(last));
    for (std::size_t b = 0; b < batch; ++b) {
        TFHE_ASSERT(as[b]->domain() == Domain::Coeff);
        TFHE_ASSERT(as[b]->limbIndices() == front.limbIndices(),
                    "batched RESCALE requires a uniform limb set");
    }

    // q_last^-1 and the Shoup companion of 1 per remaining limb are
    // slot-independent.
    std::vector<u64> qinv(last), qinv_shoup(last), one_shoup(last);
    for (std::size_t j = 0; j < last; ++j) {
        const Modulus &mod = tower.modulus(front.limbIndex(j));
        qinv[j] = mod.inv(q_last % mod.value());
        qinv_shoup[j] = shoupPrecompute(qinv[j], mod.value());
        one_shoup[j] = shoupPrecompute(1, mod.value());
    }

    // With v the last-limb residue and the centered lift v - q_last
    // for v > q_last/2: (a - lift) * q_last^-1
    //   = (a - [v]_q) * q_last^-1 + [v > q_last/2]   (mod q),
    // since q_last * q_last^-1 = 1. [v]_q is the exact Shoup reduction
    // with w = 1.
    const simd::Ops &ops = simd::ops();
    poolOrGlobal(pool).parallelFor2D(batch, last, [&](std::size_t b,
                                                      std::size_t j) {
        u64 q = tower.prime(front.limbIndex(j));
        const u64 *pl = as[b]->limb(last);
        u64 *pa = as[b]->limb(j);
        u64 lifted[kRescaleBlock];
        u64 upper[kRescaleBlock];
        for (std::size_t c0 = 0; c0 < n; c0 += kRescaleBlock) {
            std::size_t len = std::min(kRescaleBlock, n - c0);
            std::copy(pl + c0, pl + c0 + len, lifted);
            ops.mulShoup(lifted, 1, one_shoup[j], len, q);
            ops.subSpan(pa + c0, lifted, len, q);
            ops.mulShoup(pa + c0, qinv[j], qinv_shoup[j], len, q);
            for (std::size_t c = 0; c < len; ++c)
                upper[c] = pl[c0 + c] > q_last / 2;
            ops.addSpan(pa + c0, upper, len, q);
        }
    });
    for (std::size_t b = 0; b < batch; ++b)
        as[b]->dropLastLimbs(1);
}

std::vector<RnsPolynomial>
rescaleByLastLimbBatch(const std::vector<const RnsPolynomial *> &as,
                       ThreadPool *pool)
{
    std::vector<RnsPolynomial> out;
    out.reserve(as.size());
    for (const RnsPolynomial *a : as)
        out.push_back(*a);
    std::vector<RnsPolynomial *> ptrs;
    for (auto &p : out)
        ptrs.push_back(&p);
    rescaleByLastLimbInPlace(ptrs.data(), ptrs.size(), pool);
    return out;
}

RnsPolynomial
rescaleByLastLimb(const RnsPolynomial &a)
{
    return std::move(rescaleByLastLimbBatch({&a})[0]);
}

} // namespace tensorfhe::rns
