/**
 * @file
 * Fast basis conversion (the paper's Conv kernel) and the ModUp /
 * ModDown / Dcomp procedures of generalized key-switching built on it
 * (paper Alg. 1 and SIV-A).
 *
 * The conversion is the approximate RNS conversion of the full-RNS
 * CKKS line (Cheon et al., paper ref [15]): residues are recombined
 * through CRT factors without computing the exact overflow count, so
 * the result may differ from the true value by a small multiple of
 * the source modulus. CKKS absorbs this into ciphertext noise; the
 * tests bound it. Each output residue is nevertheless the exact
 * canonical value of sum_i y_i * hat_ij mod t_j, so every exact
 * evaluation order gives the same bits.
 *
 * The conversion procedures are phase-split: each has a *Plan class
 * holding the precomputation fixed by the (source, target) limb pair
 * — CRT factors and their Shoup companions, union-basis layout, P^-1
 * constants — separate from the per-coefficient apply phase. Hoisted
 * key-switching builds one plan and applies it across every rotation,
 * digit, and batch slot. The apply phase has one inner loop,
 * simd::Ops::convAccum, and writes straight into the caller's output
 * limbs; the plan-free functions below are batch-1 conveniences over
 * the same path.
 */

#ifndef TENSORFHE_RNS_CONV_HH
#define TENSORFHE_RNS_CONV_HH

#include <vector>

#include "rns/rns_poly.hh"

namespace tensorfhe
{
class ThreadPool;
}

namespace tensorfhe::rns
{

/**
 * Precomputed CRT factors of the approximate base conversion for one
 * fixed (source, target) limb pair: hatInv_i = (S/s_i)^-1 mod s_i and
 * hat_ij = (S/s_i) mod t_j, the latter stored target-major with its
 * beta = 2^64 Shoup companions (and beta = 2^32 ones when every source
 * and target prime is below 2^32, which selects the single-multiply
 * vector lane). The O(s^2 + s*t) scalar work happens once at
 * construction; applyInto() then performs only the O(s*t*n)
 * per-coefficient phase.
 */
class BaseConvPlan
{
  public:
    /** Source limbs must be distinct primes. */
    BaseConvPlan(const RnsTower &tower, std::vector<std::size_t> src,
                 std::vector<std::size_t> dst);

    /**
     * Convert `batch` Coeff-domain polynomials given as raw limbs:
     * src[b * s + i] is source limb i of slot b (canonical residues),
     * dst[b * t + j] receives target limb j. Per block of cells the
     * scale phase y_i = a_i * hatInv_i mod s_i (a one-term convAccum
     * per source limb) runs into per-thread scratch — skipped when
     * every hatInv_i is 1, as for single-limb digits — and one
     * convAccum per target limb accumulates sum_i y_i * hat_ij mod
     * t_j. dst limbs must not alias src limbs.
     */
    void applyInto(const u64 *const *src, u64 *const *dst,
                   std::size_t batch, ThreadPool *pool = nullptr) const;

    const std::vector<std::size_t> &sourceLimbs() const { return src_; }
    const std::vector<std::size_t> &targetLimbs() const { return dst_; }

  private:
    std::size_t n_;
    std::vector<std::size_t> src_;
    std::vector<std::size_t> dst_;
    std::vector<u64> srcQ_;        ///< s source primes
    std::vector<u64> dstQ_;        ///< t target primes
    bool scale_ = false;           ///< some hatInv_i != 1
    std::vector<u64> hatInv_;      ///< s entries
    std::vector<u64> hatInvShoup_; ///< s entries
    std::vector<u64> hatInvShoup32_; ///< s, empty unless primes < 2^32
    std::vector<u64> hat_;         ///< t x s, row j = target limb j
    std::vector<u64> hatShoup64_;  ///< t x s
    std::vector<u64> hatShoup32_;  ///< t x s, empty unless primes < 2^32
};

/**
 * Phase-split ModUp: the union basis {q_0..q_{level}} + {p_0..p_{K-1}},
 * the copied-vs-converted limb layout, and the Conv factors for one
 * digit shape at one level, computed once and reused across every
 * hoisted rotation and batch slot.
 */
class ModUpPlan
{
  public:
    ModUpPlan(const RnsTower &tower,
              std::vector<std::size_t> digit_limbs,
              std::size_t level_count);

    /**
     * ModUp of each digit into caller-provided outputs (preshaped to
     * unionLimbs(), Coeff domain, not aliasing the digits): digit
     * limbs are copied, the Conv writes every other limb in place —
     * the exec::Workspace hook that keeps steady-state hoists off the
     * allocator.
     */
    void applyBatchInto(const std::vector<const RnsPolynomial *> &digits,
                        RnsPolynomial *const *outs,
                        ThreadPool *pool = nullptr) const;

    const std::vector<std::size_t> &unionLimbs() const { return target_; }

  private:
    const RnsTower *tower_;
    std::vector<std::size_t> digit_limbs_;
    std::vector<std::size_t> target_;
    std::vector<std::size_t> copyPos_; ///< target slot of digit limb i
    std::vector<std::size_t> convPos_; ///< target slots the Conv fills
    BaseConvPlan conv_;
};

/**
 * Phase-split ModDown: the q/p limb split and the p->q Conv factors
 * plus -P^-1 (Shoup form) per remaining limb for one union basis.
 * Hoisted rotation tails share one plan across every step.
 */
class ModDownPlan
{
  public:
    /** `union_limbs` = active q-limbs followed by all special limbs. */
    ModDownPlan(const RnsTower &tower,
                const std::vector<std::size_t> &union_limbs);

    /**
     * ModDown of each input into caller-provided outputs (preshaped to
     * qLimbs(), Coeff domain, not aliasing the inputs) — the
     * exec::Workspace hook. The Conv reads the P limbs of each input
     * in place and writes the outputs, which then become
     * (conv - a_j) * (q_j - P^-1) = (a_j - conv) * P^-1 in place.
     */
    void applyBatchInto(const std::vector<const RnsPolynomial *> &as,
                        RnsPolynomial *const *outs,
                        ThreadPool *pool = nullptr) const;

    /** The surviving q-limbs (the outputs' limb set). */
    const std::vector<std::size_t> &qLimbs() const { return q_idx_; }

  private:
    bool matchesUnionBasis(const RnsPolynomial &a) const;

    const RnsTower *tower_;
    std::vector<std::size_t> q_idx_;
    std::vector<std::size_t> p_idx_;
    std::vector<u64> negPInv_;      ///< q_j - P^-1 mod q_j
    std::vector<u64> negPInvShoup_;
    BaseConvPlan conv_; ///< p -> q
};

/**
 * Convert a Coeff-domain polynomial from its current basis to
 * `target_limbs`: out_j = sum_i [a_i * (S/s_i)^-1 mod s_i]
 * * (S/s_i mod t_j) (mod t_j). Source limbs must be distinct primes.
 */
RnsPolynomial fastBaseConv(const RnsPolynomial &a,
                           const std::vector<std::size_t> &target_limbs);

/**
 * Digit decomposition (Dcomp): split the first `active` limbs of `a`
 * into digits of at most `alpha` consecutive limbs.
 * Returns one Coeff-domain polynomial per digit, each carrying only
 * its digit's limbs.
 */
std::vector<RnsPolynomial> decomposeDigits(const RnsPolynomial &a,
                                           std::size_t alpha);

/**
 * ModUp: extend one digit to the union basis
 * {q_0..q_{level}} + {p_0..p_{K-1}}: digit limbs are copied, all
 * other limbs come from fastBaseConv.
 */
RnsPolynomial modUp(const RnsPolynomial &digit, std::size_t level_count);

/**
 * ModDown: given `a` over {q_0..q_l} + {p_*} (Coeff domain), return
 * round(a / P) over {q_0..q_l}:
 *   b_j = P^-1 * (a_j - Conv_{p->q}(a mod P)_j) mod q_j.
 */
RnsPolynomial modDown(const RnsPolynomial &a);

/**
 * Exact divide-and-round by the last limb's prime (the core of
 * RESCALE, paper Alg. 6) on every polynomial of the batch, in place:
 * for j < last,
 *   a_j <- q_last^-1 * (a_j - [a_last]_{q_j}) mod q_j
 * with a centered lift of the last limb, then the last limb is
 * dropped. Every polynomial must be Coeff domain over the same limbs.
 * No allocation: each cell reads only itself and the last limb.
 */
void rescaleByLastLimbInPlace(RnsPolynomial *const *as, std::size_t batch,
                              ThreadPool *pool = nullptr);

/** Out-of-place RESCALE core of one polynomial (a copy, then
    rescaleByLastLimbInPlace). */
RnsPolynomial rescaleByLastLimb(const RnsPolynomial &a);

/*
 * Batched counterparts for operation-level batching (paper SIV-D/E).
 * Every input must carry the same limb set, so the O(s^2 + s*t) CRT
 * factors are computed once and shared by the whole batch, and the
 * per-coefficient work drains through the pool as one flattened
 * dispatch. Each returns exactly what `batch` serial calls would, bit
 * for bit.
 */

/** Batched fastBaseConv. */
std::vector<RnsPolynomial>
fastBaseConvBatch(const std::vector<const RnsPolynomial *> &as,
                  const std::vector<std::size_t> &target_limbs,
                  ThreadPool *pool = nullptr);

/** Batched out-of-place RESCALE core. */
std::vector<RnsPolynomial>
rescaleByLastLimbBatch(const std::vector<const RnsPolynomial *> &as,
                       ThreadPool *pool = nullptr);

} // namespace tensorfhe::rns

#endif // TENSORFHE_RNS_CONV_HH
