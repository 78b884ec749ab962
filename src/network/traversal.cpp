#include "network/traversal.hpp"

#include <algorithm>

namespace stps::net {

std::vector<node> topo_order(const aig_network& aig)
{
  std::vector<node> order;
  order.reserve(aig.num_gates());
  aig.foreach_gate([&](node n) { order.push_back(n); });
  return order;
}

std::vector<node> reverse_topo_order(const aig_network& aig)
{
  std::vector<node> order = topo_order(aig);
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<uint32_t> levels(const aig_network& aig)
{
  std::vector<uint32_t> level(aig.size(), 0u);
  aig.foreach_gate([&](node n) {
    level[n] = 1u + std::max(level[aig.fanin0(n).get_node()],
                             level[aig.fanin1(n).get_node()]);
  });
  return level;
}

uint32_t depth(const aig_network& aig)
{
  const std::vector<uint32_t> level = levels(aig);
  uint32_t d = 0;
  aig.foreach_po([&](signal f, uint32_t) {
    d = std::max(d, level[f.get_node()]);
  });
  return d;
}

std::vector<node> transitive_fanin(const aig_network& aig, node root,
                                   std::size_t limit)
{
  std::vector<node> result;
  if (!aig.is_and(root)) {
    return result;
  }
  std::vector<bool> seen(aig.size(), false);
  seen[root] = true;
  std::vector<node> stack{root};
  while (!stack.empty() && result.size() < limit) {
    const node n = stack.back();
    stack.pop_back();
    for (const signal f : {aig.fanin0(n), aig.fanin1(n)}) {
      const node m = f.get_node();
      if (seen[m] || aig.is_constant(m)) {
        continue;
      }
      seen[m] = true;
      result.push_back(m);
      if (result.size() >= limit) {
        break;
      }
      if (aig.is_and(m)) {
        stack.push_back(m);
      }
    }
  }
  return result;
}

bool in_transitive_fanout(const aig_network& aig, node ancestor,
                          node descendant)
{
  if (ancestor == descendant) {
    return true;
  }
  std::vector<bool> seen(aig.size(), false);
  std::vector<node> stack{ancestor};
  seen[ancestor] = true;
  while (!stack.empty()) {
    const node n = stack.back();
    stack.pop_back();
    for (const node g : aig.fanout(n)) {
      if (aig.is_dead(g) || seen[g]) {
        continue;
      }
      if (g == descendant) {
        return true;
      }
      seen[g] = true;
      stack.push_back(g);
    }
  }
  return false;
}

std::vector<node> support(const aig_network& aig, node root)
{
  std::vector<node> pis;
  if (aig.is_pi(root)) {
    pis.push_back(root);
    return pis;
  }
  if (!aig.is_and(root)) {
    return pis;
  }
  std::vector<bool> seen(aig.size(), false);
  std::vector<node> stack{root};
  seen[root] = true;
  while (!stack.empty()) {
    const node n = stack.back();
    stack.pop_back();
    for (const signal f : {aig.fanin0(n), aig.fanin1(n)}) {
      const node m = f.get_node();
      if (seen[m]) {
        continue;
      }
      seen[m] = true;
      if (aig.is_pi(m)) {
        pis.push_back(m);
      } else if (aig.is_and(m)) {
        stack.push_back(m);
      }
    }
  }
  std::sort(pis.begin(), pis.end());
  return pis;
}

bool bounded_support(const aig_network& aig, std::span<const node> roots,
                     std::size_t max_size, std::vector<node>& out)
{
  out.clear();
  std::vector<bool> seen(aig.size(), false);
  std::vector<node> stack;
  for (const node r : roots) {
    if (!seen[r]) {
      seen[r] = true;
      if (aig.is_pi(r)) {
        out.push_back(r);
        if (out.size() > max_size) {
          out.clear();
          return false;
        }
      } else if (aig.is_and(r)) {
        stack.push_back(r);
      }
    }
  }
  while (!stack.empty()) {
    const node n = stack.back();
    stack.pop_back();
    for (const signal f : {aig.fanin0(n), aig.fanin1(n)}) {
      const node m = f.get_node();
      if (seen[m]) {
        continue;
      }
      seen[m] = true;
      if (aig.is_pi(m)) {
        out.push_back(m);
        if (out.size() > max_size) {
          out.clear();
          return false;
        }
      } else if (aig.is_and(m)) {
        stack.push_back(m);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return true;
}

} // namespace stps::net
