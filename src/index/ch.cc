#include "index/ch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "util/macros.h"

namespace mpn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint32_t kNoNode = 0xFFFFFFFFu;
/// Max settled nodes per witness search. Smaller is faster to build but
/// inserts more (still correct) shortcuts.
constexpr size_t kWitnessSettleLimit = 128;

/// One adjacency entry of the dynamic "core" graph during contraction.
struct CoreArc {
  uint32_t node;
  double weight;
  uint32_t arc;  ///< arc-pool index
};

/// Stamped scratch for the bounded witness Dijkstras of one build.
struct WitnessScratch {
  std::vector<double> dist;
  std::vector<uint32_t> stamp;
  uint32_t cur = 0;
  std::vector<std::pair<double, uint32_t>> heap;

  void Prepare(size_t n) {
    if (dist.size() < n) {
      dist.resize(n);
      stamp.assign(n, 0);
      cur = 0;
    }
    heap.clear();
    if (++cur == 0) {  // stamp wrap: invalidate everything once
      std::fill(stamp.begin(), stamp.end(), 0);
      cur = 1;
    }
  }
  double Get(uint32_t v) const { return stamp[v] == cur ? dist[v] : kInf; }
  void Set(uint32_t v, double d) {
    stamp[v] = cur;
    dist[v] = d;
  }
};

}  // namespace

/// Stamped Dijkstra state for the query-time upward searches (thread_local
/// via TlsFwd/TlsBwd, so const queries are safe from concurrent threads).
/// One node's state lives in a single 16-byte Label so the hot relax/stall
/// loops pay one cache access per looked-up node, not three.
struct CHIndex::SearchScratch {
  struct Label {
    double dist;
    uint32_t stamp;
    uint32_t parent;  ///< arc used to reach the node, or kNoArc
  };
  std::vector<Label> label;
  std::vector<uint32_t> pos;  ///< settle-order position (MakeTargetSet)
  uint32_t cur = 0;
  std::vector<uint32_t> settled;  ///< nodes in settle order
  std::vector<std::pair<double, uint32_t>> heap;
  struct Candidate {
    uint32_t node;
    uint32_t arc;
    double dist;
  };
  std::vector<Candidate> buf;  ///< deferred relaxations (fused stall pass)

  void Prepare(size_t n) {
    if (label.size() < n) {
      label.assign(n, Label{0.0, 0, 0});
      pos.resize(n);
      cur = 0;
    }
    settled.clear();
    heap.clear();
    if (++cur == 0) {
      for (Label& l : label) l.stamp = 0;
      cur = 1;
    }
  }
  bool Reached(uint32_t v) const { return label[v].stamp == cur; }
  double Dist(uint32_t v) const { return label[v].dist; }
};

CHIndex::SearchScratch& CHIndex::TlsFwd() {
  static thread_local SearchScratch s;
  return s;
}

CHIndex::SearchScratch& CHIndex::TlsBwd() {
  static thread_local SearchScratch s;
  return s;
}

// ---------------------------------------------------------------------------
// Preprocessing
// ---------------------------------------------------------------------------

CHIndex CHIndex::Build(size_t node_count, const std::vector<InputEdge>& edges,
                       const Options& options) {
  CHIndex ch;
  ch.rank_.assign(node_count, 0);
  ch.arcs_.reserve(edges.size() * (options.directed ? 1 : 2));
  for (const InputEdge& e : edges) {
    MPN_ASSERT(e.from < node_count && e.to < node_count && e.from != e.to);
    MPN_ASSERT(e.weight >= 0.0 && std::isfinite(e.weight));
    ch.arcs_.push_back({e.from, e.to, e.weight, kNoArc, kNoArc});
    if (!options.directed) {
      ch.arcs_.push_back({e.to, e.from, e.weight, kNoArc, kNoArc});
    }
  }
  ch.original_arcs_ = ch.arcs_.size();
  ch.directed_ = options.directed;

  const size_t n = node_count;
  std::vector<std::vector<CoreArc>> out(n), in(n);
  for (uint32_t a = 0; a < ch.arcs_.size(); ++a) {
    const Arc& arc = ch.arcs_[a];
    out[arc.from].push_back({arc.to, arc.weight, a});
    in[arc.to].push_back({arc.from, arc.weight, a});
  }
  std::vector<bool> contracted(n, false);
  std::vector<int64_t> deleted_neighbors(n, 0);

  // Bounded Dijkstra from `src` over the remaining core, skipping
  // `excluded` (the node being contracted). Tentative distances are left in
  // `ws`; reading a tentative (over-)estimate is safe because it can only
  // *fail* to certify a witness, never fake one.
  WitnessScratch ws;
  auto witness_search = [&](uint32_t src, uint32_t excluded, double cap) {
    ws.Prepare(n);
    ws.Set(src, 0.0);
    ws.heap.push_back({0.0, src});
    size_t settles = 0;
    const auto cmp = std::greater<std::pair<double, uint32_t>>();
    while (!ws.heap.empty()) {
      std::pop_heap(ws.heap.begin(), ws.heap.end(), cmp);
      const auto [d, u] = ws.heap.back();
      ws.heap.pop_back();
      if (d > ws.Get(u)) continue;  // stale entry
      if (d > cap || ++settles > kWitnessSettleLimit) break;
      for (const CoreArc& e : out[u]) {
        if (contracted[e.node] || e.node == excluded) continue;
        const double nd = d + e.weight;
        if (nd < ws.Get(e.node)) {
          ws.Set(e.node, nd);
          ws.heap.push_back({nd, e.node});
          std::push_heap(ws.heap.begin(), ws.heap.end(), cmp);
        }
      }
    }
  };

  // One planned shortcut of a contraction.
  struct Shortcut {
    uint32_t u;
    uint32_t w;
    double via;
    uint32_t left;
    uint32_t right;
  };

  // Collects into `plan` the shortcuts needed to remove `v` while
  // preserving all shortest-path distances (witness searches over the
  // pre-contraction core).
  auto plan_contraction = [&](uint32_t v, std::vector<Shortcut>* plan) {
    plan->clear();
    for (const CoreArc& ia : in[v]) {
      const uint32_t u = ia.node;
      if (contracted[u]) continue;
      double cap = 0.0;
      bool any_pair = false;
      for (const CoreArc& oa : out[v]) {
        if (contracted[oa.node] || oa.node == u) continue;
        cap = std::max(cap, ia.weight + oa.weight);
        any_pair = true;
      }
      if (!any_pair) continue;
      witness_search(u, v, cap);
      for (const CoreArc& oa : out[v]) {
        if (contracted[oa.node] || oa.node == u) continue;
        const double via = ia.weight + oa.weight;
        if (ws.Get(oa.node) <= via) continue;  // witness found
        plan->push_back({u, oa.node, via, ia.arc, oa.arc});
      }
    }
  };

  // Edge-difference priority with the deleted-neighbors uniformity term.
  // The plan is kept so a contraction decided right after an evaluation
  // reuses it instead of re-running every witness search.
  auto priority = [&](uint32_t v, std::vector<Shortcut>* plan) -> int64_t {
    plan_contraction(v, plan);
    int64_t removed = 0;
    for (const CoreArc& e : in[v]) removed += contracted[e.node] ? 0 : 1;
    for (const CoreArc& e : out[v]) removed += contracted[e.node] ? 0 : 1;
    return 2 * static_cast<int64_t>(plan->size()) - removed +
           deleted_neighbors[v];
  };

  // Lazy-update contraction loop: pop the cheapest node, re-evaluate, and
  // contract it unless something else became cheaper. Ties resolve to the
  // smaller node id via the pair ordering — fully deterministic.
  using PQE = std::pair<int64_t, uint32_t>;
  std::priority_queue<PQE, std::vector<PQE>, std::greater<PQE>> pq;
  std::vector<Shortcut> plan;
  for (uint32_t v = 0; v < n; ++v) pq.push({priority(v, &plan), v});
  std::vector<uint32_t> neighbor_set;
  uint32_t next_rank = 0;
  while (!pq.empty()) {
    const auto [p, v] = pq.top();
    pq.pop();
    if (contracted[v]) continue;
    const int64_t cur = priority(v, &plan);
    if (!pq.empty() && cur > pq.top().first) {
      pq.push({cur, v});
      continue;
    }
    for (const Shortcut& sc : plan) {
      const uint32_t idx = static_cast<uint32_t>(ch.arcs_.size());
      ch.arcs_.push_back({sc.u, sc.w, sc.via, sc.left, sc.right});
      out[sc.u].push_back({sc.w, sc.via, idx});
      in[sc.w].push_back({sc.u, sc.via, idx});
    }
    contracted[v] = true;
    ch.rank_[v] = next_rank++;
    neighbor_set.clear();
    for (const CoreArc& e : out[v]) {
      if (!contracted[e.node]) neighbor_set.push_back(e.node);
    }
    for (const CoreArc& e : in[v]) {
      if (!contracted[e.node]) neighbor_set.push_back(e.node);
    }
    std::sort(neighbor_set.begin(), neighbor_set.end());
    neighbor_set.erase(std::unique(neighbor_set.begin(), neighbor_set.end()),
                       neighbor_set.end());
    for (uint32_t w : neighbor_set) ++deleted_neighbors[w];
  }
  MPN_ASSERT(next_rank == n);

  // Renumber into the internal rank-order id space (see ch.h): the arc
  // pool and both CSRs use internal ids from here on.
  ch.perm_.resize(n);
  ch.inv_.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    const uint32_t internal = static_cast<uint32_t>(n) - 1 - ch.rank_[v];
    ch.perm_[v] = internal;
    ch.inv_[internal] = v;
  }
  for (Arc& a : ch.arcs_) {
    a.from = ch.perm_[a.from];
    a.to = ch.perm_[a.to];
  }

  ch.BuildCsr();
  return ch;
}

void CHIndex::BuildCsr() {
  // A contraction can insert a shortcut (u, w) although a heavier parallel
  // arc (u, w) already exists; only the lightest parallel arc can ever lie
  // on a shortest path, so the query graphs keep exactly that one. (The
  // arc pool keeps them all — shortcut unpacking still needs every arc.)
  const size_t n = rank_.size();
  struct Slot {
    uint32_t key;  // CSR key node
    uint32_t node;
    double weight;
    uint32_t arc;
  };
  std::vector<Slot> fwd, bwd;
  fwd.reserve(arcs_.size());
  for (uint32_t i = 0; i < arcs_.size(); ++i) {
    const Arc& a = arcs_[i];  // internal ids: smaller id = higher rank
    if (a.to < a.from) {
      fwd.push_back({a.from, a.to, a.weight, i});
    } else {
      bwd.push_back({a.to, a.from, a.weight, i});
    }
  }
  const auto build_one = [n](std::vector<Slot>* slots, Csr* csr) {
    // Sort by (key, node, weight, arc): parallel arcs become adjacent with
    // the lightest first; ties keep the lowest arc id — deterministic.
    std::sort(slots->begin(), slots->end(),
              [](const Slot& x, const Slot& y) {
                if (x.key != y.key) return x.key < y.key;
                if (x.node != y.node) return x.node < y.node;
                if (x.weight != y.weight) return x.weight < y.weight;
                return x.arc < y.arc;
              });
    csr->off.assign(n + 1, 0);
    csr->entries.clear();
    csr->entries.reserve(slots->size());
    for (size_t i = 0; i < slots->size(); ++i) {
      const Slot& s = (*slots)[i];
      if (i > 0 && (*slots)[i - 1].key == s.key &&
          (*slots)[i - 1].node == s.node) {
        continue;  // dominated parallel arc
      }
      ++csr->off[s.key + 1];
      csr->entries.push_back({s.node, s.weight, s.arc});
    }
    for (size_t v = 0; v < n; ++v) csr->off[v + 1] += csr->off[v];
  };
  build_one(&fwd, &up_fwd_);
  build_one(&bwd, &up_bwd_);
}

// ---------------------------------------------------------------------------
// Query machinery
// ---------------------------------------------------------------------------

uint32_t CHIndex::ProcessTop(const Csr& graph, const Csr& stall_graph,
                             SearchScratch* s, P2P* p2p) {
  const auto cmp = std::greater<std::pair<double, uint32_t>>();
  std::pop_heap(s->heap.begin(), s->heap.end(), cmp);
  const auto [d, u] = s->heap.back();
  s->heap.pop_back();
  if (d > s->label[u].dist) return kNoNode;  // stale entry
  // Stall-on-demand: a strictly shorter label through a higher-ranked
  // settled neighbor proves u cannot be the meet of an optimal up-down
  // path; skip it (it may be re-queued if its label improves).
  bool stalled = false;
  if (&graph == &stall_graph) {
    // Undirected: the stall row IS the relax row, so one pass reads each
    // neighbor label exactly once, deciding stall and relaxation from the
    // same load. Relaxations are buffered and dropped if u stalls.
    s->buf.clear();
    for (uint32_t k = graph.off[u]; k < graph.off[u + 1]; ++k) {
      const Csr::Entry& e = graph.entries[k];
      const SearchScratch::Label& l = s->label[e.node];
      const bool reached = l.stamp == s->cur;
      if (reached && l.dist + e.weight < d) {
        stalled = true;
        break;
      }
      const double nd = d + e.weight;
      if (!reached || nd < l.dist) s->buf.push_back({e.node, e.arc, nd});
    }
    if (stalled) return kNoNode;
    s->settled.push_back(u);
    for (const SearchScratch::Candidate& c : s->buf) {
      s->label[c.node] = {c.dist, s->cur, c.arc};
      if (p2p != nullptr) {
        // Meeting-value candidate at relax time (tightens mu early), and
        // push pruning: a label at mu or above can never improve the meet.
        if (p2p->other->Reached(c.node)) {
          const double cand = c.dist + p2p->other->Dist(c.node);
          if (cand < p2p->mu) {
            p2p->mu = cand;
            p2p->meet = c.node;
          }
        }
        if (c.dist >= p2p->mu) continue;
      }
      s->heap.push_back({c.dist, c.node});
      std::push_heap(s->heap.begin(), s->heap.end(), cmp);
    }
    return u;
  }
  for (uint32_t k = stall_graph.off[u]; k < stall_graph.off[u + 1]; ++k) {
    const Csr::Entry& e = stall_graph.entries[k];
    const SearchScratch::Label& l = s->label[e.node];
    if (l.stamp == s->cur && l.dist + e.weight < d) {
      stalled = true;
      break;
    }
  }
  if (stalled) return kNoNode;
  s->settled.push_back(u);
  for (uint32_t k = graph.off[u]; k < graph.off[u + 1]; ++k) {
    const Csr::Entry& e = graph.entries[k];
    const double nd = d + e.weight;
    SearchScratch::Label& l = s->label[e.node];
    if (l.stamp != s->cur || nd < l.dist) {
      l = {nd, s->cur, e.arc};
      if (p2p != nullptr) {
        if (p2p->other->Reached(e.node)) {
          const double cand = nd + p2p->other->Dist(e.node);
          if (cand < p2p->mu) {
            p2p->mu = cand;
            p2p->meet = e.node;
          }
        }
        if (nd >= p2p->mu) continue;
      }
      s->heap.push_back({nd, e.node});
      std::push_heap(s->heap.begin(), s->heap.end(), cmp);
    }
  }
  return u;
}

void CHIndex::UpwardSearch(const Csr& graph, const Csr& stall_graph,
                           const Seed* seeds, size_t seed_count,
                           SearchScratch* s) {
  const auto cmp = std::greater<std::pair<double, uint32_t>>();
  for (size_t i = 0; i < seed_count; ++i) {
    const Seed& sd = seeds[i];
    SearchScratch::Label& l = s->label[sd.node];
    if (l.stamp != s->cur || sd.dist < l.dist) {
      l = {sd.dist, s->cur, kNoArc};
      s->heap.push_back({sd.dist, sd.node});
      std::push_heap(s->heap.begin(), s->heap.end(), cmp);
    }
  }
  while (!s->heap.empty()) ProcessTop(graph, stall_graph, s);
}

void CHIndex::AppendOriginalArcs(uint32_t arc,
                                 std::vector<uint32_t>* out) const {
  static thread_local std::vector<uint32_t> stack;
  stack.clear();
  stack.push_back(arc);
  while (!stack.empty()) {
    const uint32_t a = stack.back();
    stack.pop_back();
    const Arc& rec = arcs_[a];
    if (rec.left == kNoArc) {
      out->push_back(a);
      continue;
    }
    stack.push_back(rec.right);  // popped after left: left-to-right order
    stack.push_back(rec.left);
  }
}

uint32_t CHIndex::CollectForwardArcs(const SearchScratch& fwd, uint32_t node,
                                     std::vector<uint32_t>* arcs) const {
  static thread_local std::vector<uint32_t> chain;
  chain.clear();
  uint32_t v = node;
  while (fwd.label[v].parent != kNoArc) {
    chain.push_back(fwd.label[v].parent);
    v = arcs_[fwd.label[v].parent].from;
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    AppendOriginalArcs(*it, arcs);
  }
  return v;  // the chain root (a seed node)
}

uint32_t CHIndex::CollectBackwardArcs(const SearchScratch& bwd, uint32_t node,
                                      std::vector<uint32_t>* arcs) const {
  uint32_t v = node;
  while (bwd.label[v].parent != kNoArc) {
    const uint32_t a = bwd.label[v].parent;
    AppendOriginalArcs(a, arcs);
    v = arcs_[a].to;
  }
  return v;  // the chain root (a seed node)
}

double CHIndex::FoldTargetSuffix(const TargetSet& targets, uint32_t j,
                                 uint32_t entry, double init) {
  const std::vector<TargetSet::Entry>& entries = targets.per_target_[j];
  const std::vector<double>& weights = targets.per_target_weights_[j];
  double d = init;
  uint32_t e = entry;
  while (entries[e].parent != TargetSet::kNoEntry) {
    const TargetSet::Entry& rec = entries[e];
    const double* w = weights.data() + rec.unpack_off;
    for (uint32_t k = 0; k < rec.unpack_len; ++k) d += w[k];
    e = rec.parent;
  }
  return d;
}

double CHIndex::FoldArcs(double init, const std::vector<uint32_t>& arcs) const {
  double d = init;
  for (uint32_t a : arcs) d += arcs_[a].weight;
  return d;
}

uint32_t CHIndex::RunP2P(const Seed* src_seeds, size_t src_count,
                         const Seed* dst_seeds, size_t dst_count) const {
  const auto cmp = std::greater<std::pair<double, uint32_t>>();
  SearchScratch& fwd = TlsFwd();
  SearchScratch& bwd = TlsBwd();
  fwd.Prepare(NodeCount());
  bwd.Prepare(NodeCount());
  for (size_t i = 0; i < src_count; ++i) {
    const Seed& sd = src_seeds[i];
    SearchScratch::Label& l = fwd.label[sd.node];
    if (l.stamp != fwd.cur || sd.dist < l.dist) {
      l = {sd.dist, fwd.cur, kNoArc};
      fwd.heap.push_back({sd.dist, sd.node});
      std::push_heap(fwd.heap.begin(), fwd.heap.end(), cmp);
    }
  }
  for (size_t i = 0; i < dst_count; ++i) {
    const Seed& sd = dst_seeds[i];
    SearchScratch::Label& l = bwd.label[sd.node];
    if (l.stamp != bwd.cur || sd.dist < l.dist) {
      l = {sd.dist, bwd.cur, kNoArc};
      bwd.heap.push_back({sd.dist, sd.node});
      std::push_heap(bwd.heap.begin(), bwd.heap.end(), cmp);
    }
  }
  // Candidate events fire on label *writes* during the search, which the
  // direct seed writes above bypass — so a node seeded on both sides (e.g.
  // a shared edge endpoint) must be evaluated as a meet up front.
  P2P fctx{&bwd, kInf, kNoNode};
  for (size_t i = 0; i < src_count; ++i) {
    const uint32_t v = src_seeds[i].node;
    if (bwd.Reached(v)) {
      const double cand = fwd.Dist(v) + bwd.Dist(v);
      if (cand < fctx.mu) {
        fctx.mu = cand;
        fctx.meet = v;
      }
    }
  }

  // Interleaved bidirectional search with mu-termination: pop the cheaper
  // frontier; once neither frontier can beat the best meeting value found,
  // nothing better exists (any unsettled candidate costs at least the
  // frontier minimum). A settle event on either side evaluates the node
  // against the other side's label (settled or tentative — either is a
  // real path). At termination mu equals the exact distance and the
  // recorded meet's labels are final: a candidate event with both labels
  // at their true values must have fired for the optimal up-down path's
  // meeting node, and a sum at the d(s,meet) + d(meet,t) lower bound
  // leaves neither label room to improve, so the parent chains the refold
  // walks are exactly the chains the recorded value came from.
  while (!fwd.heap.empty() || !bwd.heap.empty()) {
    const double tf = fwd.heap.empty() ? kInf : fwd.heap.front().first;
    const double tb = bwd.heap.empty() ? kInf : bwd.heap.front().first;
    if (std::min(tf, tb) >= fctx.mu) break;
    if (tf <= tb) {
      fctx.other = &bwd;
      ProcessTop(up_fwd_, FwdStallGraph(), &fwd, &fctx);
    } else {
      fctx.other = &fwd;
      ProcessTop(up_bwd_, BwdStallGraph(), &bwd, &fctx);
    }
  }
  return fctx.meet;
}

double CHIndex::Distance(uint32_t src, uint32_t dst) const {
  MPN_ASSERT(src < NodeCount() && dst < NodeCount());
  if (src == dst) return 0.0;
  const Seed s{perm_[src], 0.0};
  const Seed t{perm_[dst], 0.0};
  const uint32_t meet = RunP2P(&s, 1, &t, 1);
  if (meet == kNoNode) return kInf;
  static thread_local std::vector<uint32_t> arcs;
  arcs.clear();
  CollectForwardArcs(TlsFwd(), meet, &arcs);
  CollectBackwardArcs(TlsBwd(), meet, &arcs);
  return FoldArcs(0.0, arcs);
}

double CHIndex::SeededDistance(const std::vector<Seed>& sources,
                               const std::vector<Seed>& targets) const {
  if (sources.empty() || targets.empty()) return kInf;
  static thread_local std::vector<Seed> src_seeds, dst_seeds;
  src_seeds.clear();
  dst_seeds.clear();
  for (const Seed& s : sources) {
    MPN_ASSERT(s.node < NodeCount());
    src_seeds.push_back({perm_[s.node], s.dist});
  }
  for (const Seed& t : targets) {
    MPN_ASSERT(t.node < NodeCount());
    dst_seeds.push_back({perm_[t.node], t.dist});
  }
  const uint32_t meet = RunP2P(src_seeds.data(), src_seeds.size(),
                               dst_seeds.data(), dst_seeds.size());
  if (meet == kNoNode) return kInf;
  // Dijkstra's grouping: fold the source seed through the whole original
  // path, then add the target offset last.
  static thread_local std::vector<uint32_t> arcs;
  arcs.clear();
  const uint32_t fwd_root = CollectForwardArcs(TlsFwd(), meet, &arcs);
  const uint32_t bwd_root = CollectBackwardArcs(TlsBwd(), meet, &arcs);
  return FoldArcs(TlsFwd().Dist(fwd_root), arcs) + TlsBwd().Dist(bwd_root);
}

std::vector<uint32_t> CHIndex::Path(uint32_t src, uint32_t dst) const {
  MPN_ASSERT(src < NodeCount() && dst < NodeCount());
  if (src == dst) return {src};
  const Seed s{perm_[src], 0.0};
  const Seed t{perm_[dst], 0.0};
  const uint32_t meet = RunP2P(&s, 1, &t, 1);
  if (meet == kNoNode) return {};
  std::vector<uint32_t> arcs;
  CollectForwardArcs(TlsFwd(), meet, &arcs);
  CollectBackwardArcs(TlsBwd(), meet, &arcs);
  std::vector<uint32_t> path;
  path.reserve(arcs.size() + 1);
  path.push_back(src);
  for (uint32_t a : arcs) path.push_back(inv_[arcs_[a].to]);
  return path;
}

// ---------------------------------------------------------------------------
// Bucket-based many-to-many
// ---------------------------------------------------------------------------

CHIndex::TargetSet CHIndex::MakeTargetSet(
    const std::vector<uint32_t>& targets) const {
  TargetSet ts;
  ts.per_target_.resize(targets.size());
  ts.per_target_weights_.resize(targets.size());
  std::vector<uint32_t> expansion;
  for (size_t j = 0; j < targets.size(); ++j) {
    MPN_ASSERT(targets[j] < NodeCount());
    SearchScratch& s = TlsBwd();
    s.Prepare(NodeCount());
    const Seed seed{perm_[targets[j]], 0.0};
    UpwardSearch(up_bwd_, BwdStallGraph(), &seed, 1, &s);
    std::vector<TargetSet::Entry>& entries = ts.per_target_[j];
    std::vector<double>& weights = ts.per_target_weights_[j];
    entries.reserve(s.settled.size());
    for (uint32_t idx = 0; idx < s.settled.size(); ++idx) {
      const uint32_t v = s.settled[idx];
      uint32_t parent_entry = TargetSet::kNoEntry;
      uint32_t arc = kNoArc;
      uint32_t unpack_off = 0;
      uint32_t unpack_len = 0;
      if (s.label[v].parent != kNoArc) {
        arc = s.label[v].parent;
        // The parent settles before the child, so its position is known.
        parent_entry = s.pos[arcs_[arc].to];
        // Refold cache: expand the (possibly shortcut) arc into original
        // arcs once, at build time, and keep only their weights in path
        // order — queries then fold slices instead of recursing.
        expansion.clear();
        AppendOriginalArcs(arc, &expansion);
        unpack_off = static_cast<uint32_t>(weights.size());
        unpack_len = static_cast<uint32_t>(expansion.size());
        for (uint32_t a : expansion) weights.push_back(arcs_[a].weight);
      }
      s.pos[v] = idx;
      entries.push_back(
          {v, parent_entry, arc, s.label[v].dist, unpack_off, unpack_len});
    }
  }

  // Bucket CSR: every settled (node, target) pair, sorted by node id.
  struct Tmp {
    uint32_t node;
    uint32_t target;
    uint32_t entry;
  };
  std::vector<Tmp> tmp;
  size_t total = 0;
  for (const auto& entries : ts.per_target_) total += entries.size();
  tmp.reserve(total);
  for (uint32_t j = 0; j < ts.per_target_.size(); ++j) {
    const auto& entries = ts.per_target_[j];
    for (uint32_t e = 0; e < entries.size(); ++e) {
      tmp.push_back({entries[e].node, j, e});
    }
  }
  std::sort(tmp.begin(), tmp.end(), [](const Tmp& x, const Tmp& y) {
    if (x.node != y.node) return x.node < y.node;
    if (x.target != y.target) return x.target < y.target;
    return x.entry < y.entry;
  });
  ts.bucket_items_.reserve(tmp.size());
  for (const Tmp& t : tmp) {
    if (ts.bucket_node_.empty() || ts.bucket_node_.back() != t.node) {
      ts.bucket_node_.push_back(t.node);
      ts.bucket_off_.push_back(static_cast<uint32_t>(ts.bucket_items_.size()));
    }
    ts.bucket_items_.push_back(
        {t.target, t.entry, ts.per_target_[t.target][t.entry].dist});
  }
  ts.bucket_off_.push_back(static_cast<uint32_t>(ts.bucket_items_.size()));
  return ts;
}

void CHIndex::SeededDistances(const std::vector<Seed>& seeds,
                              const TargetSet& targets,
                              std::vector<double>* out) const {
  const size_t t_count = targets.TargetCount();
  out->assign(t_count, kInf);
  if (seeds.empty() || t_count == 0) return;
  static thread_local std::vector<Seed> internal_seeds;
  internal_seeds.clear();
  for (const Seed& s : seeds) {
    MPN_ASSERT(s.node < NodeCount());
    internal_seeds.push_back({perm_[s.node], s.dist});
  }

  SearchScratch& fwd = TlsFwd();
  fwd.Prepare(NodeCount());
  UpwardSearch(up_fwd_, FwdStallGraph(), internal_seeds.data(),
               internal_seeds.size(), &fwd);

  // Selection pass: cheapest (meeting node, backward entry) per target. The
  // shortcut-weight sums here only pick the path; the reported distance is
  // refolded below.
  static thread_local std::vector<double> best;
  static thread_local std::vector<std::pair<uint32_t, uint32_t>> pick;
  best.assign(t_count, kInf);
  pick.assign(t_count, {kNoNode, TargetSet::kNoEntry});
  for (uint32_t x : fwd.settled) {
    const auto it = std::lower_bound(targets.bucket_node_.begin(),
                                     targets.bucket_node_.end(), x);
    if (it == targets.bucket_node_.end() || *it != x) continue;
    const size_t bi =
        static_cast<size_t>(it - targets.bucket_node_.begin());
    const double fd = fwd.Dist(x);
    for (uint32_t k = targets.bucket_off_[bi]; k < targets.bucket_off_[bi + 1];
         ++k) {
      const TargetSet::BucketItem& item = targets.bucket_items_[k];
      const double cand = fd + item.dist;
      if (cand < best[item.target]) {
        best[item.target] = cand;
        pick[item.target] = {x, item.entry};
      }
    }
  }

  // Refold pass: Dijkstra's left-sum along the unpacked original path,
  // starting from the seed value at the chain root. Targets that picked
  // the same meeting node share the forward chain, so group by meet and
  // unpack + fold it once; the per-target remainder continues the fold
  // over the cached unpacked suffix (FoldTargetSuffix). Both reuse steps
  // replay exactly the additions of the ungrouped refold, in the same
  // order, so the distances stay bit-identical.
  static thread_local std::vector<std::pair<uint32_t, uint32_t>> by_meet;
  by_meet.clear();
  for (size_t j = 0; j < t_count; ++j) {
    if (pick[j].first != kNoNode) {
      by_meet.emplace_back(pick[j].first, static_cast<uint32_t>(j));
    }
  }
  std::sort(by_meet.begin(), by_meet.end());
  static thread_local std::vector<uint32_t> arcs;
  size_t i = 0;
  while (i < by_meet.size()) {
    const uint32_t meet = by_meet[i].first;
    arcs.clear();
    const uint32_t root = CollectForwardArcs(fwd, meet, &arcs);
    const double at_meet = FoldArcs(fwd.Dist(root), arcs);
    for (; i < by_meet.size() && by_meet[i].first == meet; ++i) {
      const uint32_t j = by_meet[i].second;
      (*out)[j] = FoldTargetSuffix(targets, j, pick[j].second, at_meet);
    }
  }
}

}  // namespace mpn
