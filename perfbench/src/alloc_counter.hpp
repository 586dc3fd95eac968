#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made by the calling thread since it started (counted by
/// the operator new replacement in alloc_counter.cpp).
std::uint64_t thread_allocations();

}  // namespace perfbench
