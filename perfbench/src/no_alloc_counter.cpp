// The end-to-end binary's allocation counter: none. Linked into perfbench.
#include "alloc_counter.hpp"

namespace perfbench {
std::uint64_t thread_allocs() { return 0; }
bool counts_allocations() { return false; }
}  // namespace perfbench
