#include "network/klut.hpp"

#include <algorithm>
#include <stdexcept>

namespace stps::net {

klut_network::klut_network()
{
  // Constant 0 and constant 1 nodes.
  tables_.emplace_back(0u);
  tt::truth_table one{0u};
  one.set_bit(0u, true);
  tables_.push_back(one);
  fanins_.emplace_back();
  fanins_.emplace_back();
}

klut_network::node klut_network::get_constant(bool value) const noexcept
{
  return value ? 1u : 0u;
}

klut_network::node klut_network::create_pi(std::string name)
{
  if (frozen_pis_) {
    throw std::logic_error{"create_pi: PIs must precede gates"};
  }
  tables_.emplace_back(0u);
  fanins_.emplace_back();
  ++num_pis_;
  pi_names_.push_back(std::move(name));
  return static_cast<node>(tables_.size() - 1u);
}

klut_network::node klut_network::create_node(std::span<const node> fanins,
                                             tt::truth_table table)
{
  if (table.num_vars() != fanins.size()) {
    throw std::invalid_argument{"create_node: arity mismatch"};
  }
  const node self = static_cast<node>(tables_.size());
  for (node f : fanins) {
    if (f >= self) {
      throw std::invalid_argument{"create_node: fanin id out of range"};
    }
  }
  frozen_pis_ = true;
  max_fanin_ = std::max<uint32_t>(max_fanin_,
                                  static_cast<uint32_t>(fanins.size()));
  tables_.push_back(std::move(table));
  fanins_.emplace_back(fanins.begin(), fanins.end());
  return self;
}

uint32_t klut_network::create_po(node f, std::string name)
{
  if (f >= tables_.size()) {
    throw std::invalid_argument{"create_po: unknown node"};
  }
  pos_.push_back(f);
  po_names_.push_back(std::move(name));
  return static_cast<uint32_t>(pos_.size() - 1u);
}

void klut_network::foreach_pi(const std::function<void(node)>& fn) const
{
  for (node n = 2u; n < 2u + num_pis_; ++n) {
    fn(n);
  }
}

void klut_network::foreach_gate(const std::function<void(node)>& fn) const
{
  for (node n = 2u + num_pis_; n < tables_.size(); ++n) {
    fn(n);
  }
}

void klut_network::foreach_po(
    const std::function<void(node, uint32_t)>& fn) const
{
  for (uint32_t i = 0; i < pos_.size(); ++i) {
    fn(pos_[i], i);
  }
}

} // namespace stps::net
