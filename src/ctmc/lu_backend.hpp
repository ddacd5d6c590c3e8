// Backend choice for the two LU-based CTMC solves (absorbing occupancy
// and stationary distribution). Dense partial-pivot LU and Markowitz
// sparse LU pivot differently, so their results agree only to rounding
// (the bound in DESIGN.md §11), not to the bit. The choice is therefore a
// fixed function of the dimension that no caller can change: the same
// chain always runs the same factorization and reports the same bytes.
#pragma once

#include <cstddef>

namespace nsrel::ctmc::detail {

/// Transient-state dimension at which the LU solves switch from the
/// dense to the sparse factorization. The value is the one the removed
/// automatic backend rule used, kept so every LU result keeps its bytes;
/// which factorization is faster on either side of it is unmeasured.
inline constexpr std::size_t kSparseLuMinDimension = 64;

}  // namespace nsrel::ctmc::detail
