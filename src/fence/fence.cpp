#include "fence/fence.hpp"

#include <numeric>

namespace stpes::fence {

unsigned fence::num_nodes() const {
  return std::accumulate(widths.begin(), widths.end(), 0u);
}

std::string fence::to_string() const {
  std::string out = "(";
  for (std::size_t i = 0; i < widths.size(); ++i) {
    out += std::to_string(widths[i]);
    if (i + 1 < widths.size()) {
      out += ',';
    }
  }
  out += ')';
  return out;
}

namespace {

void compose(unsigned remaining, std::vector<unsigned>& prefix,
             std::vector<fence>& out) {
  if (remaining == 0) {
    out.push_back(fence{prefix});
    return;
  }
  for (unsigned first = 1; first <= remaining; ++first) {
    prefix.push_back(first);
    compose(remaining - first, prefix, out);
    prefix.pop_back();
  }
}

}  // namespace

std::vector<fence> all_fences(unsigned k, core::run_context* ctx) {
  std::vector<fence> out;
  std::vector<unsigned> prefix;
  if (k > 0) {
    compose(k, prefix, out);
  }
  if (ctx != nullptr) {
    ctx->counters.fences_enumerated += out.size();
  }
  return out;
}

bool is_pruned_valid(const fence& f) {
  if (f.widths.empty() || f.widths.back() != 1) {
    return false;  // single output: exactly one top node
  }
  // Fanin capacity: every node at level i must be used by some node above.
  // The nodes above level i provide 2 * above fanin slots, and all of them
  // but the top node need a consumer among themselves, which takes
  // above - 1 of those slots.  So:
  //   width[i] <= above + 1   (somebody consumes it)
  //   width[i] >= 1           (by construction)
  unsigned above = 0;
  for (std::size_t i = f.widths.size(); i-- > 0;) {
    if (i + 1 < f.widths.size() && f.widths[i] > above + 1) {
      return false;
    }
    above += f.widths[i];
  }
  return true;
}

std::vector<fence> pruned_fences(unsigned k, core::run_context* ctx) {
  std::vector<fence> out;
  for (const auto& f : all_fences(k)) {
    if (is_pruned_valid(f)) {
      out.push_back(f);
    }
  }
  if (ctx != nullptr) {
    ctx->counters.fences_enumerated += out.size();
  }
  return out;
}

bool is_pruned_valid_multi(const fence& f, unsigned max_outputs) {
  if (f.widths.empty()) {
    return false;
  }
  // Walking top-down, every gate a level's consumers cannot absorb must
  // dangle, and a chain with m outputs has at most m dangling gates (a
  // dangling gate in no output's cone contradicts optimality).  The top
  // level has no consumers, so it dangles entirely.
  unsigned above = 0;
  unsigned forced_dangling = 0;
  for (std::size_t i = f.widths.size(); i-- > 0;) {
    const unsigned consumable = 2 * above;
    if (f.widths[i] > consumable) {
      forced_dangling += f.widths[i] - consumable;
      if (forced_dangling > max_outputs) {
        return false;
      }
    }
    above += f.widths[i];
  }
  return true;
}

std::vector<fence> pruned_fences_multi(unsigned k, unsigned max_outputs,
                                       core::run_context* ctx) {
  std::vector<fence> out;
  for (const auto& f : all_fences(k)) {
    if (is_pruned_valid_multi(f, max_outputs)) {
      out.push_back(f);
    }
  }
  if (ctx != nullptr) {
    ctx->counters.fences_enumerated += out.size();
  }
  return out;
}

}  // namespace stpes::fence
