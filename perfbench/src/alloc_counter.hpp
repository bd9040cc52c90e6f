// Heap-allocation counter for the per-layer `.allocs` metrics.
//
// Each binary links one definition of these functions. perfbench_traced
// links alloc_counter.cpp, which replaces the global operator new and
// counts calls per thread; perfbench links no_alloc_counter.cpp, whose
// counter always reads 0, so its allocations cost what they cost in the
// program. Which one is linked also decides whether a run is traced.
#pragma once

#include <cstdint>

namespace perfbench {

/// operator new calls made by the calling thread so far (0 when the
/// counter is not linked in).
std::uint64_t thread_allocs();

/// True in the binary that carries the counter: the traced one.
bool counts_allocations();

}  // namespace perfbench
