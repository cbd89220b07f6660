// dprank_analyze fixture: the paired header of iwyu_cases.cxx. It is not
// swept itself; the analyzer reads its includes on behalf of the source
// file, as it does for a .cpp and its .hpp.
#pragma once

#include <optional>

namespace fx {

std::optional<int> first_even(int a, int b);

}  // namespace fx
