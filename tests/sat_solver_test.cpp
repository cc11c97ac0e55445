#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sat/dimacs.hpp"
#include "util/rng.hpp"

namespace {

using stpes::sat::clause_lits;
using stpes::sat::cnf;
using stpes::sat::lit;
using stpes::sat::neg;
using stpes::sat::pos;
using stpes::sat::solve_result;
using stpes::sat::solver;
using stpes::sat::var;

TEST(SatSolver, EmptyFormulaIsSat) {
  solver s;
  EXPECT_EQ(s.solve(), solve_result::sat);
}

TEST(SatSolver, SingleUnitClause) {
  solver s;
  const var a = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a)}));
  ASSERT_EQ(s.solve(), solve_result::sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(SatSolver, ContradictoryUnitsAreUnsat) {
  solver s;
  const var a = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a)}));
  EXPECT_FALSE(s.add_clause({neg(a)}));
  EXPECT_EQ(s.solve(), solve_result::unsat);
}

TEST(SatSolver, SimpleImplicationChain) {
  solver s;
  std::vector<var> v;
  for (int i = 0; i < 10; ++i) {
    v.push_back(s.new_var());
  }
  for (int i = 0; i + 1 < 10; ++i) {
    EXPECT_TRUE(s.add_clause({neg(v[static_cast<std::size_t>(i)]),
                              pos(v[static_cast<std::size_t>(i + 1)])}));
  }
  EXPECT_TRUE(s.add_clause({pos(v[0])}));
  ASSERT_EQ(s.solve(), solve_result::sat);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(s.model_value(v[static_cast<std::size_t>(i)]));
  }
}

TEST(SatSolver, TautologicalClauseIsIgnored) {
  solver s;
  const var a = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a), neg(a)}));
  EXPECT_EQ(s.num_clauses(), 0u);
  EXPECT_EQ(s.solve(), solve_result::sat);
}

TEST(SatSolver, DuplicateLiteralsAreDeduplicated) {
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a), pos(a), pos(b)}));
  EXPECT_EQ(s.solve(), solve_result::sat);
}

TEST(SatSolver, XorChainSatisfiable) {
  // x1 ^ x2 ^ ... ^ x8 = 1 encoded with standard xor clauses pairwise via
  // Tseitin variables.
  solver s;
  std::vector<var> x;
  for (int i = 0; i < 8; ++i) {
    x.push_back(s.new_var());
  }
  var acc = x[0];
  for (int i = 1; i < 8; ++i) {
    const var out = s.new_var();
    const var b = x[static_cast<std::size_t>(i)];
    // out = acc ^ b.
    EXPECT_TRUE(s.add_clause({neg(out), pos(acc), pos(b)}));
    EXPECT_TRUE(s.add_clause({neg(out), neg(acc), neg(b)}));
    EXPECT_TRUE(s.add_clause({pos(out), neg(acc), pos(b)}));
    EXPECT_TRUE(s.add_clause({pos(out), pos(acc), neg(b)}));
    acc = out;
  }
  EXPECT_TRUE(s.add_clause({pos(acc)}));
  ASSERT_EQ(s.solve(), solve_result::sat);
  bool parity = false;
  for (int i = 0; i < 8; ++i) {
    parity ^= s.model_value(x[static_cast<std::size_t>(i)]);
  }
  EXPECT_TRUE(parity);
}

/// Pigeonhole principle PHP(n+1, n): classic UNSAT family that requires
/// real conflict-driven search.
void add_pigeonhole(solver& s, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<var>> p(static_cast<std::size_t>(pigeons));
  for (auto& row : p) {
    for (int h = 0; h < holes; ++h) {
      row.push_back(s.new_var());
    }
  }
  for (int i = 0; i < pigeons; ++i) {
    clause_lits at_least_one;
    for (int h = 0; h < holes; ++h) {
      at_least_one.push_back(
          pos(p[static_cast<std::size_t>(i)][static_cast<std::size_t>(h)]));
    }
    EXPECT_TRUE(s.add_clause(at_least_one));
  }
  for (int h = 0; h < holes; ++h) {
    for (int i = 0; i < pigeons; ++i) {
      for (int j = i + 1; j < pigeons; ++j) {
        EXPECT_TRUE(s.add_clause(
            {neg(p[static_cast<std::size_t>(i)][static_cast<std::size_t>(h)]),
             neg(p[static_cast<std::size_t>(j)]
                  [static_cast<std::size_t>(h)])}));
      }
    }
  }
}

TEST(SatSolver, PigeonholeUnsat) {
  for (int holes = 2; holes <= 6; ++holes) {
    solver s;
    add_pigeonhole(s, holes);
    EXPECT_EQ(s.solve(), solve_result::unsat) << "holes " << holes;
    EXPECT_GT(s.stats().conflicts, 0u);
  }
}

TEST(SatSolver, AssumptionsSelectBranch) {
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a), pos(b)}));
  ASSERT_EQ(s.solve({neg(a)}), solve_result::sat);
  EXPECT_FALSE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  ASSERT_EQ(s.solve({neg(b)}), solve_result::sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(SatSolver, ConflictingAssumptionsAreUnsatButRecoverable) {
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  EXPECT_TRUE(s.add_clause({neg(a), pos(b)}));
  EXPECT_EQ(s.solve({pos(a), neg(b)}), solve_result::unsat);
  // The formula itself stays satisfiable.
  EXPECT_EQ(s.solve(), solve_result::sat);
  EXPECT_EQ(s.solve({pos(a)}), solve_result::sat);
  EXPECT_TRUE(s.model_value(b));
}

TEST(SatSolver, IncrementalClauseAddition) {
  solver s;
  const var a = s.new_var();
  const var b = s.new_var();
  EXPECT_TRUE(s.add_clause({pos(a), pos(b)}));
  EXPECT_EQ(s.solve(), solve_result::sat);
  EXPECT_TRUE(s.add_clause({neg(a)}));
  EXPECT_EQ(s.solve(), solve_result::sat);
  EXPECT_TRUE(s.model_value(b));
  // b is already forced at the root, so adding !b is detected as trivially
  // UNSAT during addition.
  EXPECT_FALSE(s.add_clause({neg(b)}));
  EXPECT_EQ(s.solve(), solve_result::unsat);
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  solver s;
  add_pigeonhole(s, 9);  // hard enough to exceed a tiny budget
  s.set_conflict_budget(10);
  EXPECT_EQ(s.solve(), solve_result::unknown);
}

TEST(SatSolver, TimeBudgetAlreadyExpired) {
  solver s;
  add_pigeonhole(s, 8);
  stpes::core::run_context ctx{1e-9};
  s.set_run_context(&ctx);
  EXPECT_EQ(s.solve(), solve_result::unknown);
}

/// Reference brute-force check for fuzzing.
bool brute_force_sat(const cnf& formula) {
  const std::size_t n = formula.num_vars;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    bool all = true;
    for (const auto& clause : formula.clauses) {
      bool any = false;
      for (const lit p : clause) {
        const bool value =
            ((mask >> p.variable()) & 1) != 0;
        if (value != p.negated()) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) {
      return true;
    }
  }
  return false;
}

bool model_satisfies(const cnf& formula, const solver& s,
                     const std::vector<var>& vars) {
  for (const auto& clause : formula.clauses) {
    bool any = false;
    for (const lit p : clause) {
      if (s.model_value(vars[static_cast<std::size_t>(p.variable())]) !=
          p.negated()) {
        any = true;
        break;
      }
    }
    if (!any) {
      return false;
    }
  }
  return true;
}

class SatFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SatFuzz, AgreesWithBruteForceOnRandom3Cnf) {
  stpes::util::rng rng{static_cast<std::uint64_t>(GetParam())};
  for (int round = 0; round < 40; ++round) {
    cnf formula;
    formula.num_vars = 4 + rng.next_below(8);  // 4..11 variables
    const std::size_t num_clauses =
        static_cast<std::size_t>(formula.num_vars * (2 + rng.next_below(3)));
    for (std::size_t c = 0; c < num_clauses; ++c) {
      clause_lits clause;
      for (int k = 0; k < 3; ++k) {
        const auto v = static_cast<var>(rng.next_below(formula.num_vars));
        clause.push_back(lit{v, rng.next_bool()});
      }
      formula.clauses.push_back(std::move(clause));
    }
    solver s;
    std::vector<var> vars;
    bool loaded = true;
    for (std::size_t i = 0; i < formula.num_vars; ++i) {
      vars.push_back(s.new_var());
    }
    for (const auto& clause : formula.clauses) {
      clause_lits mapped;
      for (const lit p : clause) {
        mapped.push_back(
            lit{vars[static_cast<std::size_t>(p.variable())], p.negated()});
      }
      loaded = s.add_clause(std::move(mapped)) && loaded;
    }
    const bool expected = brute_force_sat(formula);
    if (!loaded) {
      EXPECT_FALSE(expected);
      continue;
    }
    const auto result = s.solve();
    ASSERT_NE(result, solve_result::unknown);
    EXPECT_EQ(result == solve_result::sat, expected);
    if (result == solve_result::sat) {
      EXPECT_TRUE(model_satisfies(formula, s, vars));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatFuzz, ::testing::Range(1, 9));

TEST(Dimacs, ParseAndSolveRoundTrip) {
  const std::string text =
      "c sample\n"
      "p cnf 3 3\n"
      "1 -2 0\n"
      "2 3 0\n"
      "-1 0\n";
  const auto formula = stpes::sat::parse_dimacs_string(text);
  EXPECT_EQ(formula.num_vars, 3u);
  ASSERT_EQ(formula.clauses.size(), 3u);
  solver s;
  EXPECT_TRUE(stpes::sat::load_into_solver(formula, s));
  EXPECT_EQ(s.solve(), solve_result::sat);
  // x1 false forces x2 false (clause 1) and then x3 true (clause 2).
  EXPECT_FALSE(s.model_value(0));
  EXPECT_FALSE(s.model_value(1));
  EXPECT_TRUE(s.model_value(2));
}

TEST(Dimacs, WriteThenParseIsIdentity) {
  cnf formula;
  formula.num_vars = 4;
  formula.clauses = {{pos(0), neg(2)}, {pos(1), pos(3), neg(0)}};
  std::ostringstream out;
  stpes::sat::write_dimacs(out, formula);
  const auto reparsed = stpes::sat::parse_dimacs_string(out.str());
  EXPECT_EQ(reparsed.num_vars, formula.num_vars);
  ASSERT_EQ(reparsed.clauses.size(), formula.clauses.size());
  for (std::size_t i = 0; i < formula.clauses.size(); ++i) {
    EXPECT_EQ(reparsed.clauses[i].size(), formula.clauses[i].size());
    for (std::size_t j = 0; j < formula.clauses[i].size(); ++j) {
      EXPECT_EQ(reparsed.clauses[i][j], formula.clauses[i][j]);
    }
  }
}

TEST(Dimacs, RejectsMalformedInput) {
  EXPECT_THROW(stpes::sat::parse_dimacs_string("p cnf x y\n"),
               std::invalid_argument);
  EXPECT_THROW(stpes::sat::parse_dimacs_string("1 2 0\n"),
               std::invalid_argument);
  EXPECT_THROW(stpes::sat::parse_dimacs_string("p cnf 2 1\n1 3 0\n"),
               std::invalid_argument);
  EXPECT_THROW(stpes::sat::parse_dimacs_string("p cnf 2 1\n1 2\n"),
               std::invalid_argument);
}

}  // namespace
