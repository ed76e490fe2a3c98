// The layer ladder: direct calls into single layers (substrate, Membuffer,
// Memtable, RCU, the memory component without persistence, the whole
// store on MemEnv) with update_hot's key stream, so the gap between two
// rungs locates where the store loses throughput.

#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <cstdint>
#include <string>

#include "bench.h"

namespace perfbench {

// Appends every ladder.* metric to *out. Returns false (with *error set)
// when a layer call fails.
bool RunLadder(uint64_t seed, Metrics* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
