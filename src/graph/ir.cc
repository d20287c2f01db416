#include "graph/ir.hh"

#include "common/logging.hh"

namespace tensorfhe::graph
{

const char *
nodeKindName(NodeKind k)
{
    switch (k) {
      case NodeKind::Input: return "Input";
      case NodeKind::Add: return "Add";
      case NodeKind::Sub: return "Sub";
      case NodeKind::AddPlain: return "AddPlain";
      case NodeKind::MulPlain: return "MulPlain";
      case NodeKind::MulConstToScale: return "MulConstToScale";
      case NodeKind::AddConst: return "AddConst";
      case NodeKind::Rescale: return "Rescale";
      case NodeKind::Multiply: return "Multiply";
      case NodeKind::RotateMany: return "RotateMany";
      case NodeKind::Drop: return "Drop";
      case NodeKind::SetScale: return "SetScale";
      case NodeKind::Unpack: return "Unpack";
      case NodeKind::Pack: return "Pack";
      case NodeKind::BsgsSum: return "BsgsSum";
      case NodeKind::Bootstrap: return "Bootstrap";
      case NodeKind::FusedEle: return "FusedEle";
      case NodeKind::MulPlainRescale: return "MulPlainRescale";
      default: TFHE_ASSERT(false); return "?";
    }
}

EvalOpCounts
modeledOps(const Graph &g)
{
    EvalOpCounts total;
    for (const auto &n : g.nodes) {
        EvalOpCounts op;
        switch (n.kind) {
          case NodeKind::Add:
          case NodeKind::Sub:
          case NodeKind::AddPlain:
          case NodeKind::AddConst:
            op.hadd = 1;
            break;
          case NodeKind::MulPlain:
            op.cmult = 1;
            break;
          case NodeKind::MulConstToScale:
            op.cmult = 1;
            op.rescale = 1;
            break;
          case NodeKind::Rescale:
            op.rescale = 1;
            break;
          case NodeKind::Multiply:
            // HMULT relinearizes through one key-switch head + tail.
            op.hmult = 1;
            op.ksHoist = 1;
            op.ksTail = 1;
            break;
          case NodeKind::RotateMany: {
              // One hoisted head shared by every step's tail.
              auto r = static_cast<double>(n.steps.size());
              op.hrotate = r;
              op.ksHoist = 1;
              op.ksTail = r;
              break;
          }
          case NodeKind::BsgsSum:
            for (const auto *p : n.plans)
                op += p->modeledAccumOps();
            op.hadd -= 1; // the first term initializes the accumulator
            op.rescale += 1;
            break;
          case NodeKind::Bootstrap:
            total += n.bootstrap->refreshOps();
            continue;
          default:
            // Input / Drop / SetScale / Unpack / Pack run no
            // evaluator op; FusedEle / MulPlainRescale are counted
            // through their members.
            continue;
        }
        auto chunks = static_cast<double>(
            g.values[n.outputs[0]].chunkCount);
        total += chunks * op;
    }
    return total;
}

} // namespace tensorfhe::graph
