// Checked-build invariants: validators too costly for every Release request
// (an O(fleet) recount inside an O(1) operation) run only where ESVA_CHECKED
// is defined — Debug builds (top-level CMakeLists.txt), which the sanitizer
// CI jobs use, or any build given -DESVA_CHECKED in its compiler flags.
// Elsewhere ESVA_CHECKED_ASSERT(expr) compiles to nothing and `expr` is not
// evaluated. Cheap asserts stay plain assert(), live in every build type.

#pragma once

#include <cassert>

#if defined(ESVA_CHECKED)
#define ESVA_CHECKED_ASSERT(expr) assert(expr)
#else
#define ESVA_CHECKED_ASSERT(expr) ((void)0)
#endif
