#include "graph/graph_io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace dprank {

namespace {
constexpr std::uint64_t kMagic = 0x44505247'52415048ULL;  // "DPRGRAPH"
constexpr std::uint32_t kVersion = 1;
// magic, version, node count, edge count; then 8 bytes per edge.
constexpr std::uint64_t kHeaderBytes = 8 + 4 + 8 + 8;
constexpr std::uint64_t kEdgeBytes = 2 * sizeof(NodeId);

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("graph_io: truncated file");
  return v;
}
}  // namespace

void save_graph(const Digraph& g, const std::filesystem::path& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("save_graph: cannot open " + path.string());
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint64_t>(g.num_nodes()));
  write_pod(os, g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.out_neighbors(u)) {
      write_pod(os, u);
      write_pod(os, v);
    }
  }
  if (!os) throw std::runtime_error("save_graph: write failed");
}

Digraph load_graph(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_graph: cannot open " + path.string());
  if (read_pod<std::uint64_t>(is) != kMagic) {
    throw std::runtime_error("load_graph: bad magic in " + path.string());
  }
  if (read_pod<std::uint32_t>(is) != kVersion) {
    throw std::runtime_error("load_graph: unsupported version");
  }
  const auto n = read_pod<std::uint64_t>(is);
  const auto m = read_pod<std::uint64_t>(is);
  // The header is untrusted: bound both counts before allocating.
  if (n > kMaxLoadNodes) {
    throw std::runtime_error("load_graph: node count " + std::to_string(n) +
                             " exceeds the cap of " +
                             std::to_string(kMaxLoadNodes) + " documents");
  }
  const std::uint64_t body = std::filesystem::file_size(path) - kHeaderBytes;
  if (m > body / kEdgeBytes) {
    throw std::runtime_error("load_graph: edge count " + std::to_string(m) +
                             " exceeds what the file's " +
                             std::to_string(body) + "-byte body holds");
  }
  // The body is (src, dst) pairs of NodeId, exactly Edge's layout: one
  // read fills the edge list.
  static_assert(sizeof(Edge) == kEdgeBytes);
  std::vector<Edge> edges(m);
  is.read(reinterpret_cast<char*>(edges.data()),
          static_cast<std::streamsize>(m * kEdgeBytes));
  if (!is) throw std::runtime_error("graph_io: truncated file");
  return Digraph::from_edges(static_cast<NodeId>(n), std::move(edges));
}

}  // namespace dprank
