#include "reference.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace perfbench {

std::vector<ref_entry> load_reference(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error{"cannot open reference file " + path};
  }
  std::vector<ref_entry> entries;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream is{line};
    unsigned num_vars = 0;
    std::string hex;
    ref_entry e;
    std::string rest;
    if (!(is >> num_vars >> hex >> e.gates >> e.chains >> e.effort) ||
        (is >> rest) || num_vars == 0 || num_vars > 8) {
      throw std::runtime_error{path + ":" + std::to_string(line_no) +
                               ": malformed reference line"};
    }
    e.function = stpes::tt::truth_table::from_hex(num_vars, hex);
    entries.push_back(std::move(e));
  }
  if (entries.empty()) {
    throw std::runtime_error{"reference file " + path + " has no entries"};
  }
  return entries;
}

void save_reference(const std::string& path, const std::string& header,
                    const std::vector<ref_entry>& entries) {
  std::ofstream out{path};
  out << header;
  for (const auto& e : entries) {
    out << e.function.num_vars() << ' ' << e.function.to_hex() << ' '
        << e.gates << ' ' << e.chains << ' ' << e.effort << '\n';
  }
  if (!out) {
    throw std::runtime_error{"cannot write reference file " + path};
  }
}

std::string check_chains(const stpes::tt::truth_table& function,
                         unsigned gates,
                         const std::vector<stpes::chain::boolean_chain>& chains,
                         const ref_entry& ref) {
  const std::string who = function.to_hex() + ": ";
  if (gates != ref.gates) {
    return who + "optimum " + std::to_string(gates) + " gates, reference " +
           std::to_string(ref.gates);
  }
  if (chains.size() != ref.chains) {
    return who + std::to_string(chains.size()) + " optimum chains, reference " +
           std::to_string(ref.chains);
  }
  std::unordered_set<std::string> seen;
  for (const auto& c : chains) {
    if (c.num_steps() != gates) {
      return who + "a returned chain has " + std::to_string(c.num_steps()) +
             " steps";
    }
    if (c.num_inputs() != function.num_vars() || c.simulate() != function) {
      return who + "a returned chain does not compute the function";
    }
    if (!seen.insert(c.to_string()).second) {
      return who + "duplicate chain in the answer";
    }
  }
  return "";
}

}  // namespace perfbench
