// Loader for tests/seeds.txt, shared by check_test and check_parallel_test:
// each non-comment line is a check_runner repro line without its
// "check_runner" prefix, parsed by ParseReproLine.
#ifndef PBC_TESTS_SEED_CORPUS_H_
#define PBC_TESTS_SEED_CORPUS_H_

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "check/runner.h"

namespace pbc::check {

/// Parses every corpus run; `lines` (optional) receives each raw line.
inline std::vector<RunConfig> LoadSeedCorpus(
    std::vector<std::string>* lines = nullptr) {
  std::ifstream in(PBC_SEEDS_FILE);
  EXPECT_TRUE(in.is_open()) << "missing " << PBC_SEEDS_FILE;
  std::vector<RunConfig> cells;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::string error;
    EXPECT_TRUE(ParseReproLine(line, &cells.emplace_back(), &error))
        << error << "\n  corpus line: " << line;
    if (lines != nullptr) lines->push_back(line);
  }
  return cells;
}

}  // namespace pbc::check

#endif  // PBC_TESTS_SEED_CORPUS_H_
