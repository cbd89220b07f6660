#pragma once

// Binary graph serialization.
//
// The big generated graphs (500k and 5000k nodes) are expensive to
// regenerate for every bench binary; save/load lets the harness build them
// once. Format: magic, version, node count, edge count, then (src, dst)
// pairs of little-endian uint32.

#include <filesystem>

#include "graph/digraph.hpp"

namespace dprank {

void save_graph(const Digraph& g, const std::filesystem::path& path);

/// Throws std::runtime_error on missing file or format mismatch, and,
/// before allocating, on a header whose node count exceeds the NodeId
/// range or whose edge count exceeds what the file's body can hold.
[[nodiscard]] Digraph load_graph(const std::filesystem::path& path);

/// Load `path` if it exists, else generate with `make`, save, and return.
template <typename MakeFn>
[[nodiscard]] Digraph load_or_build(const std::filesystem::path& path,
                                    MakeFn&& make) {
  if (std::filesystem::exists(path)) return load_graph(path);
  Digraph g = make();
  save_graph(g, path);
  return g;
}

}  // namespace dprank
