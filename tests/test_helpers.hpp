// Shared helpers for attack-level tests: hand-built split challenges with
// controlled geometry, so ML behaviour can be asserted without running the
// synthesis/routing stack, plus bit-exact result comparison and the
// byte-wise definition of the result digest.
#pragma once

#include <cstdint>
#include <cstring>
#include <random>

#include "core/attack.hpp"
#include "splitmfg/split.hpp"

namespace repro::testing {

/// Builds a challenge of `n_pairs` matched v-pin pairs on a die of
/// `die` DBU square. Matching pairs are placed `match_dx` apart in x on the
/// same row (mimicking split-8 geometry); v-pins are spread uniformly.
/// Driver side gets OutArea, load side InArea, correlated so that the
/// features carry signal. All coordinates snap to a `grid` DBU grid.
inline splitmfg::SplitChallenge make_grid_challenge(
    int n_pairs, geom::Dbu die = 100000, geom::Dbu match_dx = 8000,
    std::uint64_t seed = 1, geom::Dbu grid = 800, bool same_row = true) {
  splitmfg::SplitChallenge ch;
  ch.design_name = "synthetic" + std::to_string(seed);
  ch.split_layer = 8;
  ch.die = geom::Rect(0, 0, die, die);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<geom::Dbu> pos(0, (die - match_dx) / grid - 1);
  std::uniform_int_distribution<geom::Dbu> dy(-4, 4);
  std::uniform_real_distribution<double> area(400.0, 4000.0);

  for (int i = 0; i < n_pairs; ++i) {
    const geom::Dbu x = pos(rng) * grid;
    const geom::Dbu y = pos(rng) * grid;
    const double drv_area = area(rng);

    splitmfg::Vpin a;
    a.id = static_cast<splitmfg::VpinId>(ch.vpins.size());
    a.net = i;
    a.pos = {x, y};
    a.pin_loc = {x, y};
    a.wirelength = 1600;
    a.out_area = drv_area;  // driver side
    a.pc = 1.0;
    a.rc = 1.0;

    splitmfg::Vpin b;
    b.id = a.id + 1;
    b.net = i;
    const geom::Dbu by =
        same_row ? y
                 : geom::clamp<geom::Dbu>(y + dy(rng) * grid, 0, die - 1);
    b.pos = {x + match_dx, by};
    b.pin_loc = {x + match_dx, by};
    b.wirelength = 1600;
    b.in_area = drv_area * 0.5;  // load correlated with driver
    b.pc = 1.0;
    b.rc = 1.0;

    a.matches = {b.id};
    b.matches = {a.id};
    ch.vpins.push_back(std::move(a));
    ch.vpins.push_back(std::move(b));
  }
  return ch;
}

/// True iff the two results are bit-identical in everything the digest
/// covers, plus the tested/has_match flags.
inline bool same_result(const core::AttackResult& a,
                        const core::AttackResult& b) {
  if (a.num_vpins() != b.num_vpins()) return false;
  for (int v = 0; v < a.num_vpins(); ++v) {
    const core::VpinResult& ra = a.per_vpin()[static_cast<std::size_t>(v)];
    const core::VpinResult& rb = b.per_vpin()[static_cast<std::size_t>(v)];
    if (ra.tested != rb.tested || ra.has_match != rb.has_match ||
        ra.num_evaluated != rb.num_evaluated || ra.hist != rb.hist ||
        std::memcmp(&ra.p_true, &rb.p_true, sizeof ra.p_true) != 0 ||
        std::memcmp(&ra.d_true, &rb.d_true, sizeof ra.d_true) != 0 ||
        ra.top.size() != rb.top.size()) {
      return false;
    }
    for (std::size_t i = 0; i < ra.top.size(); ++i) {
      if (ra.top[i].id != rb.top[i].id ||
          std::memcmp(&ra.top[i].p, &rb.top[i].p, sizeof(float)) != 0 ||
          std::memcmp(&ra.top[i].d, &rb.top[i].d, sizeof(float)) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// core::result_digest's definition, one byte at a time: FNV-1a over
/// num_vpins, then per v-pin num_evaluated, p_true, d_true, every
/// histogram bin and every top candidate's (id, p, d). Each field is 8
/// little-endian bytes: integers as std::uint64_t (so an id of -1 is
/// eight 0xff bytes), floats as their zero-extended bit pattern.
inline std::uint64_t reference_result_digest(const core::AttackResult& res) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_float = [&](float f) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    mix(bits);
  };
  mix(static_cast<std::uint64_t>(res.num_vpins()));
  for (const core::VpinResult& r : res.per_vpin()) {
    mix(static_cast<std::uint64_t>(r.num_evaluated));
    mix_float(r.p_true);
    mix_float(r.d_true);
    for (std::uint32_t c : r.hist) mix(c);
    for (const core::Candidate& c : r.top) {
      mix(static_cast<std::uint64_t>(c.id));
      mix_float(c.p);
      mix_float(c.d);
    }
  }
  return h;
}

}  // namespace repro::testing
