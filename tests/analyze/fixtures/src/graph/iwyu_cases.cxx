// dprank_analyze fixture: include-what-you-use. A file that names a
// std:: container or utility includes its header itself (or gets it
// from its paired header): a transitive include breaks silently when the
// header that happened to provide it changes.

#include "graph/iwyu_cases.hxx"

#include <string>

namespace fx {

// FINDING include-what-you-use: std::deque without <deque>.
struct Backlog {
  std::deque<int> items_;
};

// ok: <string> is included directly.
struct Named {
  std::string name_;
};

// ok: <optional> comes from the paired header.
std::optional<int> first_even(int a, int b) {
  if (a % 2 == 0) return a;
  if (b % 2 == 0) return b;
  return std::nullopt;
}

// ok (waivered): the fixture's story names a header that provides it.
struct Callbacks {
  // dprank-analyze: allow(include-what-you-use) -- fixture waiver case
  std::function<void()> on_done_;
};

}  // namespace fx
