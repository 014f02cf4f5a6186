#include "linalg/autotune.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace parsvd::autotune {

namespace {

constexpr int kProfileVersion = 1;
// Widest QR panel a profile or PARSVD_QR_BLOCK may ask for.
constexpr Index kMaxQrBlock = 1024;

Index round_to(Index v, Index to) { return (v + to - 1) / to * to; }

// ------------------------------------------------------- JSON profile IO
//
// The profile format is small and fully under our control (save_profile is
// the only writer), so reading is a targeted scanner rather than a general
// JSON parser: locate a section's brace block, then pull "key": value
// pairs out of it. Any miss rejects the whole profile — a half-parsed
// blocking must never reach the engine.

bool scan_int(const std::string& text, const std::string& key, Index& out) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  std::size_t pos = text.find(':', at + needle.size());
  if (pos == std::string::npos) return false;
  ++pos;
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  std::size_t end = pos;
  if (end < text.size() && (text[end] == '-' || text[end] == '+')) ++end;
  while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
  if (end == pos) return false;
  try {
    out = static_cast<Index>(std::stoll(text.substr(pos, end - pos)));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

bool scan_bool(const std::string& text, const std::string& key, bool& out) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t pos = text.find(':', at + needle.size());
  if (pos == std::string::npos) return false;
  if (text.compare(pos + 1, 5, " true") == 0) { out = true; return true; }
  if (text.compare(pos + 1, 6, " false") == 0) { out = false; return true; }
  return false;
}

// The brace block following `"name":` (exclusive of the braces).
bool scan_section(const std::string& text, const std::string& name,
                  std::string& out) {
  const std::string needle = "\"" + name + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t open = text.find('{', at + needle.size());
  const std::size_t close = text.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return false;
  out = text.substr(open + 1, close - open - 1);
  return true;
}

bool scan_blocking(const std::string& text, const std::string& name,
                   Blocking& out) {
  std::string section;
  if (!scan_section(text, name, section)) return false;
  Blocking b;
  if (!scan_int(section, "mc", b.mc) || !scan_int(section, "kc", b.kc) ||
      !scan_int(section, "nc", b.nc) || !scan_int(section, "mr", b.mr) ||
      !scan_int(section, "nr", b.nr)) {
    return false;
  }
  out = b;
  return true;
}

// --------------------------------------------------------- sweep helpers

constexpr int kProbeReps = 3;
constexpr int kProbeRepsSmoke = 1;

double time_probe_f64(Index n, const Matrix& a, const Matrix& b, Matrix& c,
                      const Blocking& blk, int reps) {
  detail::gemm_probe_f64(n, n, n, a.data(), b.data(), c.data(), blk);  // warm
  double best = std::numeric_limits<double>::infinity();
  Stopwatch sw;
  for (int r = 0; r < reps; ++r) {
    sw.reset();
    sw.start();
    detail::gemm_probe_f64(n, n, n, a.data(), b.data(), c.data(), blk);
    best = std::min(best, sw.stop());
  }
  return best;
}

double time_qr(const Matrix& a, Index block, int reps) {
  { HouseholderQr warm(a, block); }  // warm (allocations, icache)
  double best = std::numeric_limits<double>::infinity();
  Stopwatch sw;
  for (int r = 0; r < reps; ++r) {
    sw.reset();
    sw.start();
    HouseholderQr qr(a, block);
    best = std::min(best, sw.stop());
  }
  return best;
}

struct GridSpec {
  std::vector<Index> mc;
  std::vector<Index> kc;
  std::vector<Index> nc;
  std::vector<std::pair<Index, Index>> micro;  // (mr, nr) candidates
};

GridSpec grid_spec(bool smoke) {
  if (smoke) {
    return {{64, 96}, {128, 256}, {4032}, {{8, 6}, {16, 6}}};
  }
  return {{64, 96, 128, 192},
          {128, 192, 256, 384},
          {4032},
          {{4, 6}, {8, 4}, {8, 6}, {8, 8}, {16, 4}, {16, 6}, {16, 8}}};
}

// Time the default blocking, then every grid candidate, on one n^3 probe.
SweepEntry sweep_gemm(const GridSpec& grid, const Blocking& fallback, Index n,
                      const Matrix& a, const Matrix& b, Matrix& c, int reps) {
  SweepEntry entry;
  entry.best = sanitize(fallback, fallback);
  entry.default_seconds = time_probe_f64(n, a, b, c, entry.best, reps);
  entry.best_seconds = entry.default_seconds;
  for (const auto& [mr, nr] : grid.micro) {
    for (Index mc : grid.mc) {
      for (Index kc : grid.kc) {
        for (Index nc : grid.nc) {
          const Blocking cand = sanitize({mc, kc, nc, mr, nr}, fallback);
          ++entry.candidates;
          const double secs = time_probe_f64(n, a, b, c, cand, reps);
          if (secs < entry.best_seconds) {
            entry.best_seconds = secs;
            entry.best = cand;
          }
        }
      }
    }
  }
  return entry;
}

}  // namespace

Profile default_profile() {
  Profile p;
  p.version = kProfileVersion;
  p.f64 = {96, 256, 4032, 8, 6};
  p.qr_block = 32;
  p.tuned = false;
  return p;
}

Blocking sanitize(const Blocking& requested, const Blocking& fallback) {
  Blocking b = requested;
  if (!detail::has_kernel_f64(b.mr, b.nr)) {
    b.mr = fallback.mr;
    b.nr = fallback.nr;
  }
  b.mc = round_to(std::clamp<Index>(b.mc, b.mr, 4096), b.mr);
  b.kc = std::clamp<Index>(b.kc, 8, 8192);
  b.nc = round_to(std::clamp<Index>(b.nc, b.nr, 1 << 16), b.nr);
  return b;
}

bool load_profile(const std::string& path, Profile& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  Index version = 0;
  if (!scan_int(text, "schema_version", version) || version != kProfileVersion) {
    return false;
  }
  Profile p;
  p.version = static_cast<int>(version);
  if (!scan_blocking(text, "f64", p.f64) ||
      !scan_int(text, "qr_block", p.qr_block) || p.qr_block < 1 ||
      p.qr_block > kMaxQrBlock) {
    return false;
  }
  if (!scan_bool(text, "tuned", p.tuned)) p.tuned = false;
  out = p;
  return true;
}

void save_profile(const Profile& profile, const std::string& path) {
  std::ofstream out(path);
  PARSVD_REQUIRE(static_cast<bool>(out),
                 "autotune: cannot write profile to " + path);
  auto blocking_json = [](const Blocking& b) {
    std::ostringstream s;
    s << "{\"mc\": " << b.mc << ", \"kc\": " << b.kc << ", \"nc\": " << b.nc
      << ", \"mr\": " << b.mr << ", \"nr\": " << b.nr << "}";
    return s.str();
  };
  out << "{\n"
      << "  \"schema_version\": " << profile.version << ",\n"
      << "  \"tuned\": " << (profile.tuned ? "true" : "false") << ",\n"
      << "  \"f64\": " << blocking_json(profile.f64) << ",\n"
      << "  \"qr_block\": " << profile.qr_block << "\n"
      << "}\n";
  PARSVD_REQUIRE(static_cast<bool>(out),
                 "autotune: failed writing profile to " + path);
}

const Profile& active_profile() {
  static const Profile resolved = [] {
    Profile p = default_profile();
    const std::string path = env::get_string("PARSVD_TUNE_PROFILE", "");
    if (!path.empty()) {
      Profile loaded;
      if (load_profile(path, loaded)) {
        p = loaded;
      } else {
        log::warn("autotune: ignoring unreadable/mismatched profile '", path,
                  "'");
      }
    }
    // Env overrides sit on top of whichever base won (they are one-off
    // experiment knobs, not the profile). Their ranges hold every legal
    // blocking of every instantiated tile (MR <= 16, NR <= 8), so the
    // sanitize below only rounds MC/NC up to a tile multiple.
    p.f64.mc = env::get_int("PARSVD_GEMM_MC", p.f64.mc, 16, 4096);
    p.f64.kc = env::get_int("PARSVD_GEMM_KC", p.f64.kc, 8, 8192);
    p.f64.nc = env::get_int("PARSVD_GEMM_NC", p.f64.nc, 8, 1 << 16);
    p.qr_block = env::get_int("PARSVD_QR_BLOCK", p.qr_block, 1, kMaxQrBlock);
    p.f64 = sanitize(p.f64, default_profile().f64);
    return p;
  }();
  return resolved;
}

SweepResult sweep(bool smoke) {
  const GridSpec grid = grid_spec(smoke);
  const int reps = smoke ? kProbeRepsSmoke : kProbeReps;
  const Profile defaults = default_profile();

  SweepResult result;
  result.probe_size = smoke ? 96 : 384;

  // Deterministic operands: the sweep must pick the same winner for the
  // same machine state regardless of when it runs.
  Rng rng(0x7a9e5u);
  const Index n = result.probe_size;
  const Matrix a64 = Matrix::gaussian(n, n, rng);
  const Matrix b64 = Matrix::gaussian(n, n, rng);
  Matrix c64(n, n);
  result.f64 = sweep_gemm(grid, defaults.f64, n, a64, b64, c64, reps);

  // QR panel width, probed on the era5_stream local panel (2592 x 204;
  // a quarter of each side under smoke). The burgers_stream panel
  // (4096 x 20) is one panel at every candidate but 16.
  result.qr_rows = smoke ? 648 : 2592;
  result.qr_cols = smoke ? 51 : 204;
  const Matrix qa = Matrix::gaussian(result.qr_rows, result.qr_cols, rng);
  const std::vector<Index> qr_blocks =
      smoke ? std::vector<Index>{16, 32} : std::vector<Index>{16, 24, 32, 48, 64};
  result.qr_default_seconds = time_qr(qa, defaults.qr_block, reps);
  Index best_block = defaults.qr_block;
  result.qr_best_seconds = result.qr_default_seconds;
  for (Index block : qr_blocks) {
    const double secs = time_qr(qa, block, reps);
    if (secs < result.qr_best_seconds) {
      result.qr_best_seconds = secs;
      best_block = block;
    }
  }

  result.profile.version = kProfileVersion;
  result.profile.f64 = result.f64.best;
  result.profile.qr_block = best_block;
  result.profile.tuned = true;
  return result;
}

}  // namespace parsvd::autotune
