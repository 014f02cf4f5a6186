// Lint fixture — NOT compiled. The GEMM/QR blocking is a compile-time
// constant (linalg/autotune.hpp) with no environment knob, so these
// names are absent from the README registry and each read must produce
// an [env-registry] finding: a retired blocking knob read anywhere would
// silently do nothing.
#include "support/env.hpp"

long fixture() {
  const long mc = parsvd::env::get_int("PARSVD_GEMM_MC", 96);
  const long kc = parsvd::env::get_int("PARSVD_GEMM_KC", 256);
  const long nc = parsvd::env::get_int("PARSVD_GEMM_NC", 4032);
  const long qb = parsvd::env::get_int("PARSVD_QR_BLOCK", 32);
  return mc + kc + nc + qb;
}
