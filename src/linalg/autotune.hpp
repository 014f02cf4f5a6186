// Kernel autotuner: measured blocking parameters instead of hand-set ones.
//
// The packed GEMM engine (gemm_engine.hpp) is parameterized by runtime
// cache blocks (MC, KC, NC) and a compile-time micro tile (MR, NR) chosen
// from a small instantiated candidate set, and the blocked QR by its panel
// width. Until this file existed those numbers were hand-set constants;
// now they come from a three-stage resolution, cached once per process:
//
//   1. built-in defaults (the former hand-set values);
//   2. a persisted JSON profile, if PARSVD_TUNE_PROFILE names a readable
//      file produced by a previous sweep() (versioned — a profile whose
//      version does not match is ignored with a warning, never trusted);
//   3. env overrides (PARSVD_GEMM_MC/KC/NC, PARSVD_QR_BLOCK) on top, so
//      one-off experiments still work without editing the profile.
//
// sweep() is the search itself: it times the packed engine across a grid
// of cache blocks x instantiated micro tiles, and the blocked QR across
// panel widths, and returns the winner plus the tuned-vs-default deltas
// so callers (bench_kernels --tune) can persist the profile and record
// the improvement in BENCH_kernels.json.
#pragma once

#include <string>

#include "linalg/matrix.hpp"

namespace parsvd::autotune {

/// Full blocking description of the packed GEMM path.
struct Blocking {
  Index mc = 0;  ///< rows of the packed A block (L2 resident)
  Index kc = 0;  ///< panel depth (L1/L2 resident)
  Index nc = 0;  ///< columns of the packed B block (L3 resident)
  Index mr = 0;  ///< micro-tile rows (compile-time kernel choice)
  Index nr = 0;  ///< micro-tile cols (compile-time kernel choice)

  bool operator==(const Blocking&) const = default;
};

/// Versioned tuning profile covering the fp64 GEMM and the QR panel.
struct Profile {
  int version = 1;
  Blocking f64;
  Index qr_block = 0;
  /// True when the values came from a measured sweep (persisted profiles
  /// record it; defaults are not "tuned").
  bool tuned = false;

  bool operator==(const Profile&) const = default;
};

/// The hand-set seed values the engine shipped with (96/256/4032 at 8x6,
/// QR panel 32).
Profile default_profile();

/// The resolved process-wide profile (defaults -> PARSVD_TUNE_PROFILE
/// file -> env overrides), validated/clamped and cached on first use.
const Profile& active_profile();

/// Parse a profile written by save_profile(). Returns false (and leaves
/// `out` untouched) on read failure, malformed JSON, or version mismatch.
/// Keys are found by name, so sections it does not read are ignored.
bool load_profile(const std::string& path, Profile& out);

/// Persist a profile as deterministic JSON (no timestamps — committable).
/// Throws parsvd::Error when the file cannot be written.
void save_profile(const Profile& profile, const std::string& path);

/// Clamp a blocking to the engine's legal ranges and round MC/NC to the
/// micro tile; falls back to `fallback`'s micro tile when (mr, nr) has no
/// instantiated kernel.
Blocking sanitize(const Blocking& requested, const Blocking& fallback);

/// The GEMM's tuned-vs-default measurement from sweep().
struct SweepEntry {
  Blocking best;
  double default_seconds = 0.0;  ///< probe time at default_profile() blocking
  double best_seconds = 0.0;     ///< probe time at `best`
  int candidates = 0;            ///< grid points actually timed
};

/// Everything one sweep() run measured.
struct SweepResult {
  Profile profile;      ///< winner (tuned = true), ready to persist
  SweepEntry f64;
  Index probe_size = 0;      ///< GEMM probe dimension (probe_size^3)
  Index qr_rows = 0;         ///< QR probe shape
  Index qr_cols = 0;
  double qr_default_seconds = 0.0;
  double qr_best_seconds = 0.0;
};

/// Run the timed search. `smoke` shrinks the probe sizes and the grid so
/// the sweep finishes in CI-smoke time; the result is still a valid
/// profile, just a noisier one.
SweepResult sweep(bool smoke);

}  // namespace parsvd::autotune
