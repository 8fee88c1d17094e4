#include "core/candidate_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/obs.hpp"
#include "common/simd.hpp"

namespace repro::core {

namespace {

/// Grid resolution: about sqrt(n) cells along the longer die edge, so the
/// cell count stays O(n) whatever the aspect ratio (including degenerate
/// single-row layouts) and an average cell holds O(1) v-pins.
geom::Dbu pick_bin(geom::Dbu extent_x, geom::Dbu extent_y, int n) {
  const auto extent = std::max<geom::Dbu>({extent_x, extent_y, 1});
  const auto cells = static_cast<geom::Dbu>(
      std::ceil(std::sqrt(static_cast<double>(std::max(n, 1)))));
  return std::max<geom::Dbu>(1, (extent + cells - 1) / cells);
}

/// Query radius in DBU, clamped so the double->int64 cast is defined even
/// for effectively-unbounded radii (the cell range is clamped to the grid
/// anyway, so the exact ceiling does not matter past the die extent).
geom::Dbu radius_dbu(double r) {
  return static_cast<geom::Dbu>(std::ceil(std::min(std::max(r, 0.0), 1e18)));
}

// The AVX2 sweeps store a full 8-lane vector at the cursor, so callers
// reserve kScanSlack slots past the worst-case count.
constexpr std::size_t kScanSlack = 8;

/// Dense Manhattan-ball sweep of ids [lo, hi): emits w where
/// |ax - xs[w]| + |ay - ys[w]| <= r and !(a_mask & drv[w]), writing at
/// dst[k]; returns the advanced cursor. Count-write compaction: the id is
/// always stored and the cursor advances only when it is admitted, so the
/// data-dependent admit decision never becomes a mispredicted branch.
std::size_t sweep_ball(const double* xs, const double* ys,
                       const std::uint8_t* drv, std::int32_t lo,
                       std::int32_t hi, double ax, double ay, double r,
                       unsigned a_mask, std::int32_t* dst, std::size_t k) {
  for (std::int32_t w = lo; w < hi; ++w) {
    const double d = std::abs(ax - xs[w]) + std::abs(ay - ys[w]);
    dst[k] = w;
    k += static_cast<unsigned>(d <= r) & (1u - (a_mask & drv[w]));
  }
  return k;
}

/// Track scan over `count` SoA entries (one equal_range worth): emits the
/// ids other than v where !(a_mask & drv) and |a_other - other| + 0.0 <= r
/// (on-track pairs differ only in `other`, so that is manhattan_vpin's
/// sum with a zero term). Returns the number emitted at dst.
std::size_t scan_track(const double* other, const std::uint8_t* drv,
                       const std::int32_t* ids, std::size_t count,
                       double a_other, double r, unsigned a_mask,
                       std::int32_t v, std::int32_t* dst) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double d = std::abs(a_other - other[i]) + 0.0;
    if (ids[i] != v && !(a_mask & drv[i]) && d <= r) dst[k++] = ids[i];
  }
  return k;
}

#if defined(REPRO_SIMD_X86)

/// True when the AVX2 scan kernels below should run. active() is already
/// clamped to what the CPU supports, so equality is sufficient.
bool use_avx2() {
  return common::simd::active() == common::simd::Level::kAvx2;
}

// Both kernels share one shape: an 8-wide admit mask (double range
// compares packed down to 4x32 lane masks, legality from the 0/1 drives
// bytes, an id != v exclusion where the range can contain v), then a
// left-packing compress-emit of the admitted i32 ids through
// compress8_table(). Arithmetic is the exact double |dx| (+ |dy|) <= r of
// the scalar scans above — abs via sign-bit clear, ordered compares —
// which also finish each range's tail, so the admitted set and its
// ascending order are identical; only the emit width changes.

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// Packs the low dwords of a 4x64 compare mask into the low 4x32 lanes.
__attribute__((target("avx2"))) inline __m128i pack_mask_pd(__m256d m) {
  const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  return _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(m), pick));
}

/// sweep_ball, eight ids at a time.
__attribute__((target("avx2")))
std::size_t sweep_ball_avx2(const double* xs, const double* ys,
                            const std::uint8_t* drv, std::int32_t lo,
                            std::int32_t hi, double ax, double ay, double r,
                            unsigned a_mask, std::int32_t* dst,
                            std::size_t k) {
  const auto& table = common::simd::compress8_table();
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d rv = _mm256_set1_pd(r);
  const __m256d axv = _mm256_set1_pd(ax);
  const __m256d ayv = _mm256_set1_pd(ay);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i legal_force = _mm256_set1_epi32(a_mask ? 0 : -1);
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  std::int32_t w = lo;
  for (; w + 8 <= hi; w += 8) {
    const __m256d d0 = _mm256_add_pd(
        _mm256_andnot_pd(sign, _mm256_sub_pd(axv, _mm256_loadu_pd(xs + w))),
        _mm256_andnot_pd(sign, _mm256_sub_pd(ayv, _mm256_loadu_pd(ys + w))));
    const __m256d d1 = _mm256_add_pd(
        _mm256_andnot_pd(sign,
                         _mm256_sub_pd(axv, _mm256_loadu_pd(xs + w + 4))),
        _mm256_andnot_pd(sign,
                         _mm256_sub_pd(ayv, _mm256_loadu_pd(ys + w + 4))));
    const __m128i le0 = pack_mask_pd(_mm256_cmp_pd(d0, rv, _CMP_LE_OQ));
    const __m128i le1 = pack_mask_pd(_mm256_cmp_pd(d1, rv, _CMP_LE_OQ));
    const __m256i within = _mm256_set_m128i(le1, le0);
    const __m256i drv32 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(drv + w)));
    const __m256i legal =
        _mm256_or_si256(_mm256_cmpeq_epi32(drv32, zero), legal_force);
    const __m256i admit = _mm256_and_si256(within, legal);
    const int m = _mm256_movemask_ps(_mm256_castsi256_ps(admit));
    const __m256i ids = _mm256_add_epi32(iota, _mm256_set1_epi32(w));
    const __m256i perm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(table[static_cast<unsigned>(m)]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + k),
                        _mm256_permutevar8x32_epi32(ids, perm));
    k += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(m)));
  }
  return sweep_ball(xs, ys, drv, w, hi, ax, ay, r, a_mask, dst, k);
}

/// scan_track, eight entries at a time.
__attribute__((target("avx2")))
std::size_t scan_track_avx2(const double* other, const std::uint8_t* drv,
                            const std::int32_t* ids, std::size_t count,
                            double a_other, double r, unsigned a_mask,
                            std::int32_t v, std::int32_t* dst) {
  const auto& table = common::simd::compress8_table();
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d rv = _mm256_set1_pd(r);
  const __m256d av = _mm256_set1_pd(a_other);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i legal_force = _mm256_set1_epi32(a_mask ? 0 : -1);
  const __m256i vv = _mm256_set1_epi32(v);
  std::size_t k = 0;
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256d d0 = _mm256_andnot_pd(
        sign, _mm256_sub_pd(av, _mm256_loadu_pd(other + i)));
    const __m256d d1 = _mm256_andnot_pd(
        sign, _mm256_sub_pd(av, _mm256_loadu_pd(other + i + 4)));
    const __m128i le0 = pack_mask_pd(_mm256_cmp_pd(d0, rv, _CMP_LE_OQ));
    const __m128i le1 = pack_mask_pd(_mm256_cmp_pd(d1, rv, _CMP_LE_OQ));
    const __m256i within = _mm256_set_m128i(le1, le0);
    const __m256i drv32 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(drv + i)));
    const __m256i legal =
        _mm256_or_si256(_mm256_cmpeq_epi32(drv32, zero), legal_force);
    const __m256i idv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ids + i));
    const __m256i admit = _mm256_andnot_si256(
        _mm256_cmpeq_epi32(idv, vv), _mm256_and_si256(within, legal));
    const int m = _mm256_movemask_ps(_mm256_castsi256_ps(admit));
    const __m256i perm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(table[static_cast<unsigned>(m)]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + k),
                        _mm256_permutevar8x32_epi32(idv, perm));
    k += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(m)));
  }
  return k + scan_track(other + i, drv + i, ids + i, count - i, a_other, r,
                        a_mask, v, dst + k);
}

#pragma GCC diagnostic pop

#endif  // REPRO_SIMD_X86

}  // namespace

CandidateIndex::CandidateIndex(const splitmfg::SplitChallenge& ch)
    : n_(ch.num_vpins()) {
  OBS_SPAN("index.build");
  if (n_ == 0) {
    bucket_start_.assign(2, 0);
    return;
  }
  const std::size_t n = static_cast<std::size_t>(n_);

  geom::Dbu max_x = ch.vpins[0].pos.x, max_y = ch.vpins[0].pos.y;
  origin_x_ = max_x;
  origin_y_ = max_y;
  for (const splitmfg::Vpin& v : ch.vpins) {
    origin_x_ = std::min(origin_x_, v.pos.x);
    origin_y_ = std::min(origin_y_, v.pos.y);
    max_x = std::max(max_x, v.pos.x);
    max_y = std::max(max_y, v.pos.y);
  }
  bin_ = pick_bin(max_x - origin_x_, max_y - origin_y_, n_);
  nx_ = static_cast<int>((max_x - origin_x_) / bin_) + 1;
  ny_ = static_cast<int>((max_y - origin_y_) / bin_) + 1;

  // CSR fill: count per bucket, prefix-sum, then place ids in id order so
  // every bucket's id list is ascending.
  bucket_start_.assign(static_cast<std::size_t>(nx_) * ny_ + 1, 0);
  for (const splitmfg::Vpin& v : ch.vpins) {
    const std::size_t b =
        static_cast<std::size_t>(cell_y(v.pos.y)) * nx_ + cell_x(v.pos.x);
    ++bucket_start_[b + 1];
  }
  for (std::size_t b = 1; b < bucket_start_.size(); ++b) {
    bucket_start_[b] += bucket_start_[b - 1];
  }
  bucket_ids_.resize(n);
  bucket_recs_.resize(n);
  xs_.reserve(n);
  ys_.reserve(n);
  drv_.reserve(n);
  std::vector<std::int32_t> cursor(bucket_start_.begin(),
                                   bucket_start_.end() - 1);
  for (const splitmfg::Vpin& v : ch.vpins) {
    const std::size_t b =
        static_cast<std::size_t>(cell_y(v.pos.y)) * nx_ + cell_x(v.pos.x);
    const std::size_t slot = static_cast<std::size_t>(cursor[b]++);
    bucket_ids_[slot] = v.id;
    bucket_recs_[slot] = Rec{v.pos.x, v.pos.y, v.drives()};
    xs_.push_back(static_cast<double>(v.pos.x));
    ys_.push_back(static_cast<double>(v.pos.y));
    drv_.push_back(v.drives() ? 1 : 0);
  }

  // Tracks: sort the (coord, id) keys once, then fill the SoA arrays in
  // that order, so a track is one coord range with its ids ascending.
  const auto fill = [&](Tracks& t, bool same_y) {
    std::vector<std::pair<geom::Dbu, splitmfg::VpinId>> keys;
    keys.reserve(n);
    for (const splitmfg::Vpin& v : ch.vpins) {
      keys.emplace_back(same_y ? v.pos.y : v.pos.x, v.id);
    }
    std::sort(keys.begin(), keys.end());
    t.coord.reserve(n);
    t.other.reserve(n);
    t.drv.reserve(n);
    t.id.reserve(n);
    for (const auto& [coord, id] : keys) {
      const std::size_t i = static_cast<std::size_t>(id);
      t.coord.push_back(coord);
      t.other.push_back(same_y ? xs_[i] : ys_[i]);
      t.drv.push_back(drv_[i]);
      t.id.push_back(id);
    }
  };
  fill(by_x_, false);
  fill(by_y_, true);
}

// The cell is clamped in DBU before the narrowing cast: a query corner
// up to radius_dbu's 1e18 clamp away from the die would wrap an int.
int CandidateIndex::cell_x(geom::Dbu x) const {
  return static_cast<int>(
      std::clamp<geom::Dbu>((x - origin_x_) / bin_, 0, nx_ - 1));
}

int CandidateIndex::cell_y(geom::Dbu y) const {
  return static_cast<int>(
      std::clamp<geom::Dbu>((y - origin_y_) / bin_, 0, ny_ - 1));
}

std::size_t CandidateIndex::collect(splitmfg::VpinId v,
                                    const PairFilter& filter,
                                    std::vector<splitmfg::VpinId>& out) const {
  if (filter.limit_top_direction) return collect_track(v, filter, out);
  if (filter.neighborhood) return collect_ball(v, *filter.neighborhood, out);
  // Unrestricted: the ball of radius +infinity, where only legality
  // rejects. It never touches the grid.
  return sweep(v, std::numeric_limits<double>::infinity(), out);
}

std::size_t CandidateIndex::sweep(splitmfg::VpinId v, double r,
                                  std::vector<splitmfg::VpinId>& out) const {
  const std::size_t vi = static_cast<std::size_t>(v);
  const double ax = xs_[vi], ay = ys_[vi];
  const unsigned a_mask = drv_[vi];
  auto* pass = &sweep_ball;
#if defined(REPRO_SIMD_X86)
  if (use_avx2()) pass = &sweep_ball_avx2;
#endif
  const std::size_t first = out.size();
  out.resize(first + static_cast<std::size_t>(n_) + kScanSlack);
  splitmfg::VpinId* dst = out.data() + first;
  // [0, v) then (v, n), so w == v needs no test.
  std::size_t k = pass(xs_.data(), ys_.data(), drv_.data(), 0, v, ax, ay, r,
                       a_mask, dst, 0);
  k = pass(xs_.data(), ys_.data(), drv_.data(), v + 1, n_, ax, ay, r, a_mask,
           dst, k);
  out.resize(first + k);
  return static_cast<std::size_t>(n_ - 1);
}

std::size_t CandidateIndex::collect_ball(
    splitmfg::VpinId v, double r, std::vector<splitmfg::VpinId>& out) const {
  const std::size_t vi = static_cast<std::size_t>(v);
  const double ax = xs_[vi], ay = ys_[vi];
  const unsigned a_mask = drv_[vi];
  const geom::Dbu rad = radius_dbu(r);
  const geom::Dbu avx = static_cast<geom::Dbu>(ax);
  const geom::Dbu avy = static_cast<geom::Dbu>(ay);
  const int cx0 = cell_x(avx - rad), cx1 = cell_x(avx + rad);
  const int cy0 = cell_y(avy - rad), cy1 = cell_y(avy + rad);

  // Wide neighbourhood radii (comparable to the die extent) make the ball
  // cover most buckets; the dense sweep is then strictly better:
  // sequential SoA access, no bucket bookkeeping, and no canonical-order
  // sort because ids arrive ascending already.
  const std::size_t covered = static_cast<std::size_t>(cx1 - cx0 + 1) *
                              static_cast<std::size_t>(cy1 - cy0 + 1);
  const std::size_t total = static_cast<std::size_t>(nx_) * ny_;
  if (2 * covered >= total) return sweep(v, r, out);

  // The per-record test below IS admits for a ball filter: legal_pair is
  // the drives-flag conjunction, and the distance term sums |dx| and |dy|
  // in double exactly like manhattan_vpin (coordinate-to-double
  // conversion is exact below 2^53 DBU), so the comparison against r is
  // bit-equivalent to the brute-force admits scan.
  const auto admit = [&](const Rec& w) {
    const double d = std::abs(ax - static_cast<double>(w.x)) +
                     std::abs(ay - static_cast<double>(w.y));
    return d <= r && !(a_mask && w.drv);
  };

  const std::size_t first = out.size();
  std::size_t scanned = 0;
  for (int cy = cy0; cy <= cy1; ++cy) {
    // Manhattan balls are diamonds: rows farther from the query point can
    // only spend what the |dy| to the row's nearest edge leaves of the
    // radius, which roughly halves the buckets visited vs the bounding
    // box. The range stays a superset of the exact ball.
    const geom::Dbu band_lo = origin_y_ + static_cast<geom::Dbu>(cy) * bin_;
    const geom::Dbu band_hi = band_lo + bin_ - 1;
    const geom::Dbu dy_min =
        avy < band_lo ? band_lo - avy : (avy > band_hi ? avy - band_hi : 0);
    if (dy_min > rad) continue;
    const geom::Dbu budget = rad - dy_min;
    const int rx0 = std::max(cx0, cell_x(avx - budget));
    const int rx1 = std::min(cx1, cell_x(avx + budget));
    for (int cx = rx0; cx <= rx1; ++cx) {
      const std::size_t b = static_cast<std::size_t>(cy) * nx_ + cx;
      const std::int32_t end = bucket_start_[b + 1];
      for (std::int32_t i = bucket_start_[b]; i < end; ++i) {
        const splitmfg::VpinId w = bucket_ids_[static_cast<std::size_t>(i)];
        if (w == v) continue;
        ++scanned;
        if (admit(bucket_recs_[static_cast<std::size_t>(i)])) {
          out.push_back(w);
        }
      }
    }
  }
  // Bucket visit order is row-major, not id order; restore the canonical
  // ascending-id order here so bin geometry can never reorder results.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
  return scanned;
}

std::size_t CandidateIndex::collect_track(
    splitmfg::VpinId v, const PairFilter& filter,
    std::vector<splitmfg::VpinId>& out) const {
  const std::size_t vi = static_cast<std::size_t>(v);
  const bool horizontal = filter.top_metal_horizontal;
  const Tracks& t = horizontal ? by_y_ : by_x_;
  const double coord = horizontal ? ys_[vi] : xs_[vi];
  const double other = horizontal ? xs_[vi] : ys_[vi];
  const auto [lo, hi] = std::equal_range(t.coord.begin(), t.coord.end(),
                                         static_cast<geom::Dbu>(coord));
  const std::size_t i0 = static_cast<std::size_t>(lo - t.coord.begin());
  const std::size_t count = static_cast<std::size_t>(hi - lo);
  const double r = filter.neighborhood.value_or(
      std::numeric_limits<double>::infinity());
  auto* scan = &scan_track;
#if defined(REPRO_SIMD_X86)
  if (use_avx2()) scan = &scan_track_avx2;
#endif
  const std::size_t first = out.size();
  out.resize(first + count + kScanSlack);
  const std::size_t k =
      scan(t.other.data() + i0, t.drv.data() + i0, t.id.data() + i0, count,
           other, r, drv_[vi], v, out.data() + first);
  out.resize(first + k);
  // v's own entry always sits in its track range; everything else counts
  // as scanned.
  return count - 1;
}

}  // namespace repro::core
