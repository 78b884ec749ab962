/// \file sweep_counters.hpp
/// \brief The deterministic sweep counters, for the determinism tests.
#pragma once

#include "sweep/sweep_stats.hpp"

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace stps::test {

using counter_list = std::vector<std::pair<std::string, uint64_t>>;

/// Every counter of the sweep_stats counter table except the seconds,
/// as (name, value) pairs in table order: a counter added to the table
/// is pinned without a test change.
inline counter_list deterministic_counters(const sweep::sweep_stats& s)
{
  counter_list out;
  sweep::for_each_counter([&](const char* name, auto field,
                              sweep::counter_scope) {
    using value_type = std::remove_cvref_t<decltype(s.*field)>;
    if constexpr (std::is_integral_v<value_type> ||
                  std::is_enum_v<value_type>) {
      out.emplace_back(name, static_cast<uint64_t>(s.*field));
    }
  });
  return out;
}

} // namespace stps::test
