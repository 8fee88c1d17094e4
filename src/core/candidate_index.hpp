// Spatial v-pin index: the one candidate enumerator of the attack.
//
// Every consumer of v-pin pairs in this repo (attack scoring, which
// two-level pruning and PA validation go through, and training-set
// sampling) asks CandidateIndex::collect for the candidates of a v-pin:
// the ids PairFilter::admits — legality, the Manhattan neighbourhood of
// the Imp variants, the same-row/column restriction of the Y variants.
// collect picks one of three strategies by filter shape:
//
//   * the dense sweep over id-ordered records, for the unrestricted
//     filter (a ball of radius +infinity) and for balls whose cell range
//     covers at least half the grid;
//   * the grid walk over a uniform grid of v-pin positions, for balls
//     small next to the die;
//   * the track scan, an equal_range on per-coordinate sorted tracks, for
//     the Y variants with or without a neighbourhood.
//
// Determinism contract: every query returns exactly the ids the
// brute-force `for (w = 0; w < n; ++w)` admits loop yields, in the same
// ascending-id order. The grid is only a *superset* pre-filter — the
// walk checks every visited record against the same double-precision
// predicate and sorts what it appended — so bucket geometry cannot leak
// into results. tests/test_candidate_index.cpp compares every list of
// every strategy against that loop.
//
// The predicate is evaluated from compact per-v-pin records (x, y,
// drives flag), not from the ~150-byte Vpin structs: candidate scanning
// is limited by memory bandwidth, and the compact layout moves ~6x fewer
// bytes per scanned candidate. The records reproduce admits exactly — the
// drives flag is legal_pair's only input, and the Manhattan term is the
// same |dx| + |dy| double sum as manhattan_vpin.
//
// The index is built once per SplitChallenge (O(n log n) time, O(n)
// memory, instrumented as the "index.build" span) and is immutable
// afterwards, so concurrent queries from the scoring workers need no
// locks.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sampling.hpp"
#include "splitmfg/split.hpp"

namespace repro::core {

class CandidateIndex {
 public:
  /// Builds the grid, the id-ordered records and the tracks over
  /// `ch.vpins`. The index keeps no reference to `ch`.
  explicit CandidateIndex(const splitmfg::SplitChallenge& ch);

  int num_vpins() const { return n_; }

  /// Appends to `out` every candidate id w != v with
  /// `filter.admits(vpin(v), vpin(w))`, in ascending-id order. Returns
  /// the number of candidates *scanned* (visited before the admits
  /// check): n - 1 for the dense sweep, the other v-pins of the visited
  /// buckets for the grid walk, the rest of v's track for the track scan.
  /// The engine surfaces it as index.candidates_scanned.
  std::size_t collect(splitmfg::VpinId v, const PairFilter& filter,
                      std::vector<splitmfg::VpinId>& out) const;

 private:
  /// Compact projection of a Vpin: everything PairFilter::admits reads.
  struct Rec {
    geom::Dbu x = 0;
    geom::Dbu y = 0;
    bool drv = false;  ///< Vpin::drives(); legal_pair's only input
  };

  /// One track orientation in SoA: the v-pins sorted by (coord, id), so
  /// equal_range on `coord` yields one track with its ids ascending. The
  /// complementary coordinate is stored as double (exact below 2^53 DBU),
  /// so |a.other - w.other| equals manhattan_vpin's int64-subtract-then-
  /// convert term bit for bit.
  struct Tracks {
    std::vector<geom::Dbu> coord;  ///< y (horizontal top metal) or x
    std::vector<double> other;     ///< the complementary coordinate
    std::vector<std::uint8_t> drv;
    std::vector<splitmfg::VpinId> id;
  };

  std::size_t sweep(splitmfg::VpinId v, double r,
                    std::vector<splitmfg::VpinId>& out) const;
  std::size_t collect_ball(splitmfg::VpinId v, double r,
                           std::vector<splitmfg::VpinId>& out) const;
  std::size_t collect_track(splitmfg::VpinId v, const PairFilter& filter,
                            std::vector<splitmfg::VpinId>& out) const;

  int cell_x(geom::Dbu x) const;
  int cell_y(geom::Dbu y) const;

  int n_ = 0;

  // Uniform grid in CSR layout for the grid walk: ids of bucket (cx, cy)
  // are bucket_ids_[bucket_start_[cy*nx_+cx] .. bucket_start_[cy*nx_+cx+1]),
  // ascending within each bucket (filled in id order); bucket_recs_ is
  // aligned with bucket_ids_.
  geom::Dbu bin_ = 1;
  geom::Dbu origin_x_ = 0, origin_y_ = 0;
  int nx_ = 1, ny_ = 1;
  std::vector<std::int32_t> bucket_start_;
  std::vector<splitmfg::VpinId> bucket_ids_;
  std::vector<Rec> bucket_recs_;

  // Id-ordered SoA records for the dense sweep. Coordinates are
  // pre-converted to double (exact below 2^53 DBU, i.e. any physical die)
  // so the inner loop is pure double arithmetic plus a 0/1 legality byte —
  // branchless and vectorizable.
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<std::uint8_t> drv_;

  Tracks by_x_;  ///< vertical tracks (same x)
  Tracks by_y_;  ///< horizontal tracks (same y)
};

}  // namespace repro::core
