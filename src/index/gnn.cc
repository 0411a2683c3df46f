#include "index/gnn.h"

#include <algorithm>

#include "util/macros.h"

namespace mpn {

const char* ObjectiveName(Objective obj) {
  return obj == Objective::kMax ? "MAX" : "SUM";
}

double AggDist(const Point& p, const std::vector<Point>& users,
               Objective obj) {
  MPN_DCHECK(!users.empty());
  if (obj == Objective::kMax) {
    double d = 0.0;
    for (const Point& u : users) d = std::max(d, Dist(p, u));
    return d;
  }
  double d = 0.0;
  for (const Point& u : users) d += Dist(p, u);
  return d;
}

double AggMinDist(const Rect& mbr, const std::vector<Point>& users,
                  Objective obj) {
  MPN_DCHECK(!users.empty());
  if (obj == Objective::kMax) {
    double d = 0.0;
    for (const Point& u : users) d = std::max(d, mbr.MinDist(u));
    return d;
  }
  double d = 0.0;
  for (const Point& u : users) d += mbr.MinDist(u);
  return d;
}

GnnCursor::GnnCursor(const PackedRTree* tree, std::vector<Point> users,
                     Objective obj)
    : tree_(tree), users_(std::move(users)), obj_(obj) {
  MPN_ASSERT(tree_ != nullptr);
  MPN_ASSERT(!users_.empty());
  if (tree_->root() >= 0) {
    heap_.push({0.0, false, tree_->root(), 0, Point{}});
  }
}

std::optional<GnnCursor::Item> GnnCursor::Next() {
  while (!heap_.empty()) {
    const Entry e = heap_.top();
    heap_.pop();
    if (e.is_point) return Item{e.id, e.p, e.key};
    if (tree_->IsLeafNode(e.node)) {
      tree_->ForEachLeafEntry(e.node, [&](const Point& p, uint32_t id) {
        heap_.push({AggDist(p, users_, obj_), true, -1, id, p});
      });
    } else {
      tree_->ForEachChild(e.node, [&](int32_t child, const Rect& mbr) {
        heap_.push({AggMinDist(mbr, users_, obj_), false, child, 0, Point{}});
      });
    }
  }
  return std::nullopt;
}

std::vector<GnnCursor::Item> FindGnn(const PackedRTree* tree,
                                     const std::vector<Point>& users,
                                     Objective obj, size_t k) {
  GnnCursor cursor(tree, users, obj);
  std::vector<GnnCursor::Item> out;
  out.reserve(k);
  while (out.size() < k) {
    auto item = cursor.Next();
    if (!item) break;
    out.push_back(*item);
  }
  return out;
}

std::vector<GnnCursor::Item> FindGnnBruteForce(
    const std::vector<Point>& pois, const std::vector<Point>& users,
    Objective obj, size_t k) {
  std::vector<GnnCursor::Item> all;
  all.reserve(pois.size());
  for (size_t i = 0; i < pois.size(); ++i) {
    all.push_back({static_cast<uint32_t>(i), pois[i],
                   AggDist(pois[i], users, obj)});
  }
  std::sort(all.begin(), all.end(),
            [](const GnnCursor::Item& a, const GnnCursor::Item& b) {
              if (a.agg != b.agg) return a.agg < b.agg;
              return a.id < b.id;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace mpn
