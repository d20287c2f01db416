/**
 * @file
 * Scalar backend: the exact pre-SIMD loop bodies of exec/kernels.cc
 * and ntt_butterfly.cc, kernel by kernel. This is the bit-identity
 * reference the vector lanes are tested against, and the fallback on
 * hosts (or forced runs) without AVX.
 */

#include "simd/simd.hh"
#include "simd/vec_kernels.hh"

namespace tensorfhe::simd
{

namespace
{

void
addSpanScalar(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    for (std::size_t c = 0; c < n; ++c)
        a[c] = addMod(a[c], b[c], q);
}

void
subSpanScalar(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    for (std::size_t c = 0; c < n; ++c)
        a[c] = subMod(a[c], b[c], q);
}

void
mulSpanScalar(u64 *a, const u64 *b, std::size_t n, const Modulus &m)
{
    for (std::size_t c = 0; c < n; ++c)
        a[c] = m.mul(a[c], b[c]);
}

void
mulTripleScalar(u64 *d0, u64 *d1, u64 *d2, const u64 *a0,
                const u64 *a1, const u64 *b0, const u64 *b1,
                std::size_t n, const Modulus &m)
{
    for (std::size_t c = 0; c < n; ++c) {
        d0[c] = m.mul(a0[c], b0[c]);
        d1[c] = m.add(m.mul(a0[c], b1[c]), m.mul(a1[c], b0[c]));
        d2[c] = m.mul(a1[c], b1[c]);
    }
}

void
mulAccumScalar(u64 *acc, const u64 *a, const u64 *b, std::size_t n,
               const Modulus &m)
{
    for (std::size_t c = 0; c < n; ++c)
        acc[c] = m.add(acc[c], m.mul(a[c], b[c]));
}

void
ipAccumLazyScalar(u64 *acc0, u64 *acc1, const u64 *u, const u64 *kb,
                  const u64 *ka, std::size_t n, const Modulus &m,
                  bool canonicalize)
{
    // The scalar lane accumulates canonically (the original kernel
    // body), which is a valid [0, 2q) representation between rows;
    // the final conditional subtraction is then a no-op but keeps
    // the entry's contract uniform across backends.
    u64 q = m.value();
    for (std::size_t c = 0; c < n; ++c) {
        acc0[c] = m.add(acc0[c], m.mul(u[c], kb[c]));
        acc1[c] = m.add(acc1[c], m.mul(u[c], ka[c]));
        if (canonicalize) {
            if (acc0[c] >= q)
                acc0[c] -= q;
            if (acc1[c] >= q)
                acc1[c] -= q;
        }
    }
}

void
mulShoupScalar(u64 *a, u64 w, u64 wShoup, std::size_t n, u64 q)
{
    for (std::size_t c = 0; c < n; ++c)
        a[c] = mulModShoup(a[c], w, wShoup, q);
}

void
mulShoupAccumScalar(u64 *acc, const u64 *src, u64 w, u64 wShoup,
                    std::size_t n, u64 q)
{
    for (std::size_t c = 0; c < n; ++c)
        acc[c] = addMod(acc[c], mulModShoup(src[c], w, wShoup, q), q);
}

void
convAccumScalar(u64 *dst, const u64 *const *ys, const u64 *w,
                const u64 * /*wShoup32*/, const u64 *wShoup64,
                std::size_t s, std::size_t n, u64 q)
{
    // One lane for every prime size: beta = 2^64 Shoup products are
    // exact for any source residue, and a u64 multiply costs the same
    // as a 32-bit one here.
    vec::convAccumCells(dst, ys, w, wShoup64, s, 0, n, q);
}

void
fusedEleScalar(const EleIns *ins, std::size_t numIns, u16 result,
               u64 *o0, u64 *o1, const u64 *const *in0,
               const u64 *const *in1, const u64 *const *pts,
               std::size_t n, const Modulus &m)
{
    constexpr std::size_t kMaxRegs = 8;
    for (std::size_t c = 0; c < n; ++c) {
        u64 r0[kMaxRegs];
        u64 r1[kMaxRegs];
        for (std::size_t k = 0; k < numIns; ++k) {
            const EleIns &in = ins[k];
            switch (in.op) {
              case 0: // Load
                  r0[in.dst] = in0[in.idx][c];
                  r1[in.dst] = in1[in.idx][c];
                  break;
              case 1: // AddCt
                  r0[in.dst] = m.add(r0[in.dst], r0[in.src]);
                  r1[in.dst] = m.add(r1[in.dst], r1[in.src]);
                  break;
              case 2: // SubCt
                  r0[in.dst] = m.sub(r0[in.dst], r0[in.src]);
                  r1[in.dst] = m.sub(r1[in.dst], r1[in.src]);
                  break;
              case 3: { // MulPt
                  u64 p = pts[in.idx][c];
                  r0[in.dst] = m.mul(r0[in.dst], p);
                  r1[in.dst] = m.mul(r1[in.dst], p);
                  break;
              }
              case 4: // AddPt
                  r0[in.dst] = m.add(r0[in.dst], pts[in.idx][c]);
                  break;
            }
        }
        o0[c] = r0[result];
        o1[c] = r1[result];
    }
}

bool
nttDecline(const ntt::TwiddleTable &, u64 *)
{
    // The scalar NTT lives in ntt_butterfly.cc (CT/GS + permute);
    // declining routes the caller there.
    return false;
}

const Ops kScalarOps = {
    "scalar",        addSpanScalar,       subSpanScalar,
    mulSpanScalar,   mulTripleScalar,     mulAccumScalar,
    ipAccumLazyScalar, mulShoupScalar,    mulShoupAccumScalar,
    convAccumScalar, fusedEleScalar,      nttDecline,
    nttDecline,
};

} // namespace

const Ops *
scalarOps()
{
    return &kScalarOps;
}

} // namespace tensorfhe::simd
