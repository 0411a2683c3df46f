#include "mpn/circle_msr.h"

#include "util/macros.h"

namespace mpn {

namespace {
// Effectively-unbounded radius for single-POI datasets: the result can never
// change, so the safe region is the whole plane.
constexpr double kUnboundedRadius = 1e15;
}  // namespace

double MaxCircleRadius(double best_agg, double second_agg, size_t m,
                       Objective obj) {
  MPN_ASSERT(m >= 1);
  if (second_agg < best_agg) return kUnboundedRadius;  // "no second" marker
  const double gap = second_agg - best_agg;
  return obj == Objective::kMax ? gap / 2.0
                                : gap / (2.0 * static_cast<double>(m));
}

CircleMsrResult ComputeCircleMsr(const PackedRTree* tree,
                                 const std::vector<Point>& users,
                                 Objective obj) {
  MPN_ASSERT(!users.empty());
  MPN_ASSERT(!tree->empty());
  const auto top2 = FindGnn(tree, users, obj, 2);
  CircleMsrResult out;
  out.po_id = top2[0].id;
  out.po = top2[0].p;
  out.po_agg = top2[0].agg;
  out.rmax = top2.size() < 2
                 ? kUnboundedRadius
                 : MaxCircleRadius(top2[0].agg, top2[1].agg, users.size(), obj);
  out.regions.reserve(users.size());
  for (const Point& u : users) {
    out.regions.push_back(SafeRegion::MakeCircle(Circle(u, out.rmax)));
  }
  return out;
}

}  // namespace mpn
