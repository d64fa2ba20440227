#include "core/est_lst.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/require.hpp"

namespace cawo {

std::vector<Time> computeEst(const EnhancedGraph& gc) {
  const auto n = static_cast<std::size_t>(gc.numNodes());
  std::vector<Time> est(n, 0);
  for (TaskId u : gc.topoOrder()) {
    Time ready = 0;
    for (TaskId p : gc.preds(u))
      ready = std::max(ready, est[static_cast<std::size_t>(p)] + gc.len(p));
    est[static_cast<std::size_t>(u)] = ready;
  }
  return est;
}

std::vector<Time> computeLst(const EnhancedGraph& gc, Time deadline) {
  const auto n = static_cast<std::size_t>(gc.numNodes());
  std::vector<Time> lst(n, 0);
  const auto& topo = gc.topoOrder();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskId u = *it;
    Time latest = deadline - gc.len(u);
    for (TaskId s : gc.succs(u))
      latest = std::min(latest, lst[static_cast<std::size_t>(s)] - gc.len(u));
    lst[static_cast<std::size_t>(u)] = latest;
  }
  return lst;
}

// ---------------------------------------------------------------------------
// WindowState
// ---------------------------------------------------------------------------

WindowState::WindowState(const EnhancedGraph& gc, Time deadline)
    : WindowState(gc, deadline, computeEst(gc), computeLst(gc, deadline)) {}

WindowState::WindowState(const EnhancedGraph& gc, Time deadline,
                         std::vector<Time> initialEst,
                         std::vector<Time> initialLst)
    : gc_(&gc), deadline_(deadline) {
  const auto n = static_cast<std::size_t>(gc.numNodes());
  CAWO_REQUIRE(initialEst.size() == n && initialLst.size() == n,
               "WindowState: initial window size mismatch");
  // Scatter the id-indexed seeds into position space (see est_lst.hpp).
  const auto pos = gc.topoPositions();
  const auto len = gc.lensByPos();
  estP_.resize(n);
  lstP_.resize(n);
  finishP_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto pi = static_cast<std::size_t>(pos[i]);
    estP_[pi] = initialEst[i];
    lstP_[pi] = initialLst[i];
  }
  for (std::size_t p = 0; p < n; ++p) finishP_[p] = estP_[p] + len[p];
  placedP_.assign(n, 0);
  pendFwd_.assign(n / 64 + 1, 0);
  pendBwd_.assign(n / 64 + 1, 0);
  for (std::size_t p = 0; p < n; ++p)
    if (estP_[p] > lstP_[p]) ++negativeSlack_;
}

std::size_t WindowState::checked(TaskId v) const {
  const auto i = static_cast<std::size_t>(v);
  CAWO_ASSERT(i < estP_.size(), "WindowState: node id out of range");
  return i;
}

std::vector<Time> WindowState::estAll() const {
  const auto& topo = gc_->topoOrder();
  std::vector<Time> out(estP_.size());
  for (std::size_t p = 0; p < estP_.size(); ++p)
    out[static_cast<std::size_t>(topo[p])] = estP_[p];
  return out;
}

std::vector<Time> WindowState::lstAll() const {
  const auto& topo = gc_->topoOrder();
  std::vector<Time> out(lstP_.size());
  for (std::size_t p = 0; p < lstP_.size(); ++p)
    out[static_cast<std::size_t>(topo[p])] = lstP_[p];
  return out;
}

void WindowState::setEst(std::size_t pos, Time value) {
  const bool wasNegative = estP_[pos] > lstP_[pos];
  estP_[pos] = value;
  finishP_[pos] = value + gc_->lensByPos()[pos];
  const bool isNegative = estP_[pos] > lstP_[pos];
  if (isNegative && !wasNegative) ++negativeSlack_;
  if (!isNegative && wasNegative) --negativeSlack_;
}

void WindowState::setLst(std::size_t pos, Time value) {
  const bool wasNegative = estP_[pos] > lstP_[pos];
  lstP_[pos] = value;
  const bool isNegative = estP_[pos] > lstP_[pos];
  if (isNegative && !wasNegative) ++negativeSlack_;
  if (!isNegative && wasNegative) --negativeSlack_;
}

void WindowState::place(TaskId v, Time start) {
  const std::size_t pv = posOf(checked(v));
  CAWO_REQUIRE(placedP_[pv] == 0,
               "WindowState::place: task already placed");
  placedP_[pv] = 1;
  ++numPlaced_;
  const bool estChanged = estP_[pv] != start;
  const bool lstChanged = lstP_[pv] != start;
  setEst(pv, start);
  setLst(pv, start);

  // Everything below runs in position space: adjacency, lengths and the
  // windows are all position-indexed, so the loops are plain dense-array
  // walks with the base pointers in registers.
  const Time* const len = gc_->lensByPos().data();
  const std::size_t* const sOff = gc_->posSuccOffsets().data();
  const TaskId* const sAdj = gc_->posSuccAdjacency().data();
  const std::size_t* const pOff = gc_->posPredOffsets().data();
  const TaskId* const pAdj = gc_->posPredAdjacency().data();
  const std::uint8_t* const placed = placedP_.data();
  const Time* const finish = finishP_.data();

  // Pending-set bitmaps scanned in position order: every popped node's
  // relevant neighbours (preds forward, succs backward) are already final,
  // so each affected node is recomputed exactly once per placement.
  // Forward pushes always target strictly larger positions (successors),
  // backward strictly smaller, so a single monotone scan never misses a
  // late push. Scan bounds [wlo, whi] track the touched words.
  std::uint64_t* const pendF = pendFwd_.data();
  std::uint64_t* const pendB = pendBwd_.data();
  std::size_t wlo = std::numeric_limits<std::size_t>::max();
  std::size_t whi = 0;
  const auto mark = [&](std::uint64_t* pend, std::size_t pu) {
    pend[pu >> 6] |= std::uint64_t{1} << (pu & 63);
    wlo = std::min(wlo, pu >> 6);
    whi = std::max(whi, pu >> 6);
  };

  // A seed whose bound did not move cannot change its neighbours' bounds —
  // the relaxation would pop them and find nothing to do, so skip queueing
  // that side entirely.
  if (estChanged)
    for (std::size_t e = sOff[pv]; e < sOff[pv + 1]; ++e) {
      const auto ps = static_cast<std::size_t>(sAdj[e]);
      if (placed[ps] == 0) mark(pendF, ps);
    }
  if (wlo != std::numeric_limits<std::size_t>::max()) {
    for (std::size_t w = wlo; w <= whi; ++w) {
      while (pendF[w] != 0) {
        const auto b = static_cast<unsigned>(std::countr_zero(pendF[w]));
        pendF[w] &= pendF[w] - 1;
        const std::size_t pu = (w << 6) | b;
        Time ready = 0;
        for (std::size_t e = pOff[pu]; e < pOff[pu + 1]; ++e)
          ready = std::max(ready, finish[static_cast<std::size_t>(pAdj[e])]);
        if (ready == estP_[pu]) continue; // bound unchanged — stop here
        setEst(pu, ready);
        for (std::size_t e = sOff[pu]; e < sOff[pu + 1]; ++e) {
          const auto ps = static_cast<std::size_t>(sAdj[e]);
          if (placed[ps] == 0) mark(pendF, ps);
        }
      }
    }
  }

  wlo = std::numeric_limits<std::size_t>::max();
  whi = 0;
  if (lstChanged)
    for (std::size_t e = pOff[pv]; e < pOff[pv + 1]; ++e) {
      const auto pp = static_cast<std::size_t>(pAdj[e]);
      if (placed[pp] == 0) mark(pendB, pp);
    }
  if (wlo != std::numeric_limits<std::size_t>::max()) {
    for (std::size_t w = whi + 1; w-- > wlo;) {
      while (pendB[w] != 0) {
        const auto b =
            static_cast<unsigned>(63 - std::countl_zero(pendB[w]));
        pendB[w] &= ~(std::uint64_t{1} << b);
        const std::size_t pu = (w << 6) | b;
        const Time lenU = len[pu];
        Time latest = deadline_ - lenU;
        for (std::size_t e = sOff[pu]; e < sOff[pu + 1]; ++e)
          latest =
              std::min(latest, lstP_[static_cast<std::size_t>(sAdj[e])] - lenU);
        if (latest == lstP_[pu]) continue;
        setLst(pu, latest);
        for (std::size_t e = pOff[pu]; e < pOff[pu + 1]; ++e) {
          const auto pp = static_cast<std::size_t>(pAdj[e]);
          if (placed[pp] == 0) mark(pendB, pp);
        }
      }
    }
  }
}

} // namespace cawo
