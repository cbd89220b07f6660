#include "graph/graph_io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "graph/generator.hpp"

namespace dprank {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dprank_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A file with a well-formed magic and version, the given header
  /// counts, and `body_bytes` zero bytes after the 28-byte header.
  std::filesystem::path craft(const char* name, std::uint64_t n,
                              std::uint64_t m, std::size_t body_bytes) {
    const auto path = dir_ / name;
    std::ofstream os(path, std::ios::binary);
    const auto put = [&os](const auto& v) {
      os.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(std::uint64_t{0x44505247'52415048ULL});  // "DPRGRAPH"
    put(std::uint32_t{1});
    put(n);
    put(m);
    const std::vector<char> body(body_bytes, 0);
    os.write(body.data(), static_cast<std::streamsize>(body.size()));
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(GraphIoTest, RoundTrip) {
  const Digraph g = paper_graph(2000, 77);
  const auto path = dir_ / "g.dpg";
  save_graph(g, path);
  const Digraph loaded = load_graph(path);
  ASSERT_EQ(loaded.num_nodes(), g.num_nodes());
  ASSERT_EQ(loaded.num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto a = g.out_neighbors(u);
    const auto b = loaded.out_neighbors(u);
    ASSERT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(b.begin(), b.end()));
  }
}

TEST_F(GraphIoTest, EmptyGraphRoundTrip) {
  const Digraph g = Digraph::from_edges(3, {});
  const auto path = dir_ / "empty.dpg";
  save_graph(g, path);
  const Digraph loaded = load_graph(path);
  EXPECT_EQ(loaded.num_nodes(), 3u);
  EXPECT_EQ(loaded.num_edges(), 0u);
}

TEST_F(GraphIoTest, MissingFileThrows) {
  EXPECT_THROW(load_graph(dir_ / "nope.dpg"), std::runtime_error);
}

TEST_F(GraphIoTest, BadMagicThrows) {
  const auto path = dir_ / "junk.dpg";
  std::ofstream(path) << "this is not a graph file at all.............";
  EXPECT_THROW(load_graph(path), std::runtime_error);
}

TEST_F(GraphIoTest, TruncatedFileThrows) {
  const Digraph g = paper_graph(500, 1);
  const auto path = dir_ / "trunc.dpg";
  save_graph(g, path);
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_THROW(load_graph(path), std::runtime_error);
  // A crafted header promising three edges over two and a half.
  EXPECT_THROW(load_graph(craft("body.dpg", 10, 3, 20)), std::runtime_error);
}

TEST_F(GraphIoTest, CraftedHeaderWithinBoundsLoads) {
  // Two zero edges (0->0 self-loops, dropped) fill the 16-byte body.
  const Digraph g = load_graph(craft("ok.dpg", 3, 2, 16));
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST_F(GraphIoTest, NodeCountBeyondNodeIdRangeThrows) {
  // Narrowed to a 32-bit NodeId, 2^32 would load as a 0-node graph.
  EXPECT_THROW(load_graph(craft("n.dpg", std::uint64_t{1} << 32, 0, 0)),
               std::runtime_error);
}

TEST_F(GraphIoTest, EdgeCountBeyondFileSizeThrowsBeforeAllocating) {
  // 2^40 edges would reserve 8 TiB; the 100-byte file holds 9.
  EXPECT_THROW(load_graph(craft("m.dpg", 10, std::uint64_t{1} << 40, 72)),
               std::runtime_error);
}

TEST_F(GraphIoTest, LoadOrBuildBuildsOnceThenLoads) {
  const auto path = dir_ / "cache.dpg";
  int builds = 0;
  auto make = [&] {
    ++builds;
    return paper_graph(300, 5);
  };
  const Digraph a = load_or_build(path, make);
  const Digraph b = load_or_build(path, make);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace dprank
