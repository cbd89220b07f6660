#include "pagerank/mass_audit.hpp"

#include <cmath>
#include <stdexcept>

namespace dprank {

MassAuditor::MassAuditor(const Digraph& g,
                         const std::vector<double>& start_ranks) {
  if (start_ranks.size() != g.num_nodes()) {
    throw std::invalid_argument("MassAuditor: start vector size");
  }
  expected_.resize(g.num_edges(), 0.0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto deg = g.out_degree(u);
    if (deg == 0) continue;
    const double c = start_ranks[u] / static_cast<double>(deg);
    for (EdgeId e = g.out_edge_begin(u); e < g.out_edge_end(u); ++e) {
      expected_[e] = c;
    }
  }
}

MassAuditReport MassAuditor::audit(const std::vector<double>& effective,
                                   double slack) const {
  if (effective.size() != expected_.size()) {
    throw std::invalid_argument("MassAuditor::audit: size mismatch");
  }
  MassAuditReport report;
  for (EdgeId e = 0; e < expected_.size(); ++e) {
    report.emitted_total += std::abs(expected_[e]);
    const double diff = std::abs(expected_[e] - effective[e]);
    if (diff > slack) {
      report.leaked += diff;
      ++report.leaking_edges;
    }
  }
  report.mass_ratio = report.emitted_total > 0.0
                          ? 1.0 - report.leaked / report.emitted_total
                          : 1.0;
  return report;
}

std::vector<EdgeId> MassAuditor::leaking_edges(
    const std::vector<double>& effective, double slack) const {
  if (effective.size() != expected_.size()) {
    throw std::invalid_argument("MassAuditor::leaking_edges: size mismatch");
  }
  std::vector<EdgeId> leaks;
  for (EdgeId e = 0; e < expected_.size(); ++e) {
    if (std::abs(expected_[e] - effective[e]) > slack) leaks.push_back(e);
  }
  return leaks;
}

}  // namespace dprank
