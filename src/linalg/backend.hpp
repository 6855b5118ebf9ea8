// Name of the library's dense kernel set.
//
// Every dense kernel — gemm_raw (gemm.hpp), svd (svd.hpp), qr (qr.hpp),
// eigh (eigen.hpp) — is the self-contained implementation in this directory,
// bitwise deterministic at any TT_THREADS. Only the GEMM micro-kernel varies
// by host (picked once per process, same bits on every host). Drivers and run
// documents record this name so every measurement identifies the kernels
// that produced it.
#pragma once

namespace tt::linalg {

/// The GEMM micro-kernel in use: "builtin-avx512", "builtin-avx2" or
/// "builtin-fma" (portable). Recorded in driver banners, metrics and run
/// documents.
const char* backend_name();

}  // namespace tt::linalg
