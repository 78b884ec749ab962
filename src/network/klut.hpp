/// \file klut.hpp
/// \brief k-input lookup-table networks.
///
/// The k-LUT network is the object the paper's simulator targets (§III):
/// each gate holds an arbitrary truth table over up to k inputs, so
/// bitwise AND/OR word tricks no longer apply directly and the simulator
/// must evaluate tables — either bit by bit (the baseline) or as one STP
/// matrix pass (the contribution).  Networks are built by LUT mapping an
/// AIG (src/cut/lut_mapper) or directly via `create_node`.
#pragma once

#include "tt/truth_table.hpp"

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace stps::net {

/// k-LUT network with dense node ids; id 0 is constant zero.  Nodes are
/// immutable once created and ids are topologically sorted by
/// construction.
class klut_network
{
public:
  using node = uint32_t;

  klut_network();

  node get_constant(bool value) const noexcept;
  node create_pi(std::string name = {});

  /// Creates a LUT gate; \p table must have exactly `fanins.size()`
  /// variables (fanin i = table variable i, LSB-first), and every fanin id
  /// must already exist.
  node create_node(std::span<const node> fanins, tt::truth_table table);

  uint32_t create_po(node f, std::string name = {});

  std::size_t size() const noexcept { return tables_.size(); }
  uint32_t num_pis() const noexcept { return num_pis_; }
  uint32_t num_pos() const noexcept
  {
    return static_cast<uint32_t>(pos_.size());
  }
  uint32_t num_gates() const noexcept
  {
    return static_cast<uint32_t>(size()) - num_pis_ - 2u;
  }

  bool is_constant(node n) const noexcept { return n <= 1u; }
  bool is_pi(node n) const noexcept { return n >= 2u && n < 2u + num_pis_; }
  bool is_gate(node n) const noexcept { return n >= 2u + num_pis_; }

  const std::vector<node>& fanins(node n) const { return fanins_.at(n); }
  const tt::truth_table& table(node n) const { return tables_.at(n); }
  uint32_t fanin_count(node n) const
  {
    return static_cast<uint32_t>(fanins_.at(n).size());
  }

  node pi_at(uint32_t index) const noexcept { return 2u + index; }
  node po_at(uint32_t index) const { return pos_.at(index); }

  /// Largest fanin count over all gates.
  uint32_t max_fanin_size() const noexcept { return max_fanin_; }

  void foreach_pi(const std::function<void(node)>& fn) const;
  void foreach_gate(const std::function<void(node)>& fn) const;
  void foreach_po(const std::function<void(node, uint32_t)>& fn) const;

private:
  // Node 0 = constant 0, node 1 = constant 1; tables_ aligned with ids.
  std::vector<tt::truth_table> tables_;
  std::vector<std::vector<node>> fanins_;
  std::vector<node> pos_;
  std::vector<std::string> pi_names_;
  std::vector<std::string> po_names_;
  uint32_t num_pis_ = 0;
  uint32_t max_fanin_ = 0;
  bool frozen_pis_ = false;
};

} // namespace stps::net
