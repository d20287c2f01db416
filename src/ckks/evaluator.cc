#include "ckks/evaluator.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/stats.hh"

namespace tensorfhe::ckks
{

Evaluator::Evaluator(const CkksContext &ctx, const KeyBundle &keys)
    : ctx_(ctx), disp_(std::make_shared<exec::Dispatcher>(ctx, keys))
{}

Evaluator::Evaluator(const CkksContext &ctx,
                     std::shared_ptr<const KeyStore> store)
    : ctx_(ctx),
      disp_(std::make_shared<exec::Dispatcher>(ctx, std::move(store)))
{}

Evaluator::Evaluator(const CkksContext &ctx,
                     std::shared_ptr<exec::Dispatcher> disp)
    : ctx_(ctx), disp_(std::move(disp))
{}

Evaluator::Evaluator(const CkksContext &ctx,
                     const KeyBundle & /*keys*/,
                     std::shared_ptr<exec::Dispatcher> disp)
    : Evaluator(ctx, std::move(disp))
{}

void
Evaluator::requireCompatible(const Ciphertext &a,
                             const Ciphertext &b) const
{
    requireArg(a.levelCount() == b.levelCount(),
               "ciphertext levels differ: ", a.levelCount(), " vs ",
               b.levelCount());
    requireArg(std::abs(a.scale - b.scale)
                   <= 1e-6 * std::max(a.scale, b.scale),
               "ciphertext scales differ: ", a.scale, " vs ", b.scale);
}

Ciphertext
Evaluator::add(const Ciphertext &a, const Ciphertext &b) const
{
    requireCompatible(a, b);
    Ciphertext out = a;
    disp_->addInPlace(&out, &b, 1);
    return out;
}

Ciphertext
Evaluator::sub(const Ciphertext &a, const Ciphertext &b) const
{
    requireCompatible(a, b);
    Ciphertext out = a;
    disp_->subInPlace(&out, &b, 1);
    return out;
}

Ciphertext
Evaluator::addPlain(const Ciphertext &a, const Plaintext &p) const
{
    requireArg(a.levelCount() == p.levelCount()
                   && std::abs(a.scale - p.scale) <= 1e-6 * a.scale,
               "plaintext incompatible with ciphertext");
    Ciphertext out = a;
    disp_->addPlainInPlace(&out, p, 1);
    return out;
}

Ciphertext
Evaluator::subPlain(const Ciphertext &a, const Plaintext &p) const
{
    requireArg(a.levelCount() == p.levelCount()
                   && std::abs(a.scale - p.scale) <= 1e-6 * a.scale,
               "plaintext incompatible with ciphertext");
    Ciphertext out = a;
    disp_->subPlainInPlace(&out, p, 1);
    return out;
}

Ciphertext
Evaluator::multiplyPlain(const Ciphertext &a, const Plaintext &p) const
{
    requireArg(a.levelCount() == p.levelCount(),
               "plaintext level mismatch");
    Ciphertext out = a;
    disp_->multiplyPlainInPlace(&out, p, 1);
    return out;
}

HoistedDigits
Evaluator::hoist(const rns::RnsPolynomial &d) const
{
    const rns::RnsPolynomial *ptr = &d;
    auto h = disp_->hoistCopy(&ptr, 1);
    HoistedDigits out;
    out.levelCount = h.levelCount;
    out.digits.reserve(h.numDigits());
    for (auto &row : h.digits)
        out.digits.push_back(row[0].detach());
    return out;
}

std::pair<rns::RnsPolynomial, rns::RnsPolynomial>
Evaluator::keySwitchTail(const HoistedDigits &h, const SwitchKey &key,
                         const rns::ModDownPlan *down) const
{
    exec::HoistedView view;
    view.numDigits = h.digits.size();
    view.batchN = 1;
    view.levelCount = h.levelCount;
    view.table.reserve(h.digits.size());
    for (const auto &d : h.digits)
        view.table.push_back(&d);
    auto [ks0, ks1] = disp_->keySwitchTail(view, key, down);
    return {std::move(ks0[0]), std::move(ks1[0])};
}

std::pair<rns::RnsPolynomial, rns::RnsPolynomial>
Evaluator::keySwitch(const rns::RnsPolynomial &d,
                     const SwitchKey &key) const
{
    return keySwitchTail(hoist(d), key);
}

Ciphertext
Evaluator::multiply(const Ciphertext &a, const Ciphertext &b) const
{
    requireArg(a.levelCount() == b.levelCount(), "level mismatch");
    requireArg(a.levelCount() >= 2,
               "no level budget left for multiplication");
    Ciphertext out = a;
    disp_->multiplyInPlace(&out, &b, 1);
    return out;
}

Ciphertext
Evaluator::multiplyRescale(const Ciphertext &a, const Ciphertext &b) const
{
    return rescale(multiply(a, b));
}

Ciphertext
Evaluator::rescale(const Ciphertext &a) const
{
    requireArg(a.levelCount() >= 2, "cannot rescale at level 0");
    Ciphertext out = a;
    disp_->rescaleInPlace(&out, 1);
    out.c0.shrinkToFit(); // the copy's dropped limb
    out.c1.shrinkToFit();
    return out;
}

Ciphertext
Evaluator::dropToLevelCount(const Ciphertext &a,
                            std::size_t level_count) const
{
    requireArg(level_count >= 1 && level_count <= a.levelCount(),
               "bad target level");
    Ciphertext out;
    out.c0 = a.c0.firstLimbs(level_count);
    out.c1 = a.c1.firstLimbs(level_count);
    out.scale = a.scale;
    return out;
}

Ciphertext
Evaluator::rotate(const Ciphertext &a, s64 step) const
{
    auto out = rotateHoisted(a, {step});
    return std::move(out[0]);
}

std::vector<Ciphertext>
Evaluator::rotateHoisted(const Ciphertext &a,
                         const std::vector<s64> &steps) const
{
    auto per_step = disp_->rotateMany(&a, 1, steps);
    std::vector<Ciphertext> out;
    out.reserve(per_step.size());
    for (auto &cts : per_step)
        out.push_back(std::move(cts[0]));
    return out;
}

Ciphertext
Evaluator::conjugate(const Ciphertext &a) const
{
    auto out = disp_->conjugate(&a, 1);
    return std::move(out[0]);
}

Ciphertext
Evaluator::negate(const Ciphertext &a) const
{
    Ciphertext out = a;
    rns::negateInPlace(out.c0);
    rns::negateInPlace(out.c1);
    return out;
}

Ciphertext
Evaluator::multiplyConst(const Ciphertext &a, double c) const
{
    auto pt = ctx_.encoder().encodeConstant(Complex(c, 0),
                                            ctx_.params().scale(),
                                            a.levelCount());
    return multiplyPlain(a, pt);
}

Ciphertext
Evaluator::multiplyConstToScale(const Ciphertext &a, double c,
                                double target_scale) const
{
    requireArg(a.levelCount() >= 2, "no level left for the rescale");
    u64 q_last = ctx_.tower().prime(a.levelCount() - 1);
    double pt_scale =
        target_scale * static_cast<double>(q_last) / a.scale;
    requireArg(pt_scale >= 2.0, "target scale too small for level");
    auto pt = ctx_.encoder().encodeConstant(Complex(c, 0), pt_scale,
                                            a.levelCount());
    auto out = rescale(multiplyPlain(a, pt));
    out.scale = target_scale; // exact by construction
    return out;
}

Ciphertext
Evaluator::addConst(const Ciphertext &a, double c) const
{
    auto pt = ctx_.encoder().encodeConstant(Complex(c, 0), a.scale,
                                            a.levelCount());
    return addPlain(a, pt);
}

} // namespace tensorfhe::ckks
