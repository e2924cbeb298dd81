// The host-speed reference: a fixed computation timed next to every
// measured section, so reported times can be read at one nominal host speed
// (perfbench/README.md, "Host speed"). It is its own library, built with
// fixed flags, so no change to esva's code or build settings moves it.

#pragma once

namespace esvabench {

/// Milliseconds the reference kernel takes now: the fastest of `passes`
/// sorts of the same 64Ki pseudo-random 32-bit keys (256 KiB, so the sort
/// leans on the caches and the branch predictor the way esva's scan does).
double reference_ms(int passes = 3);

}  // namespace esvabench
