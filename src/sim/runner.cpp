#include "sim/runner.hpp"

#include "core/cawosched.hpp"

namespace cawo {

std::vector<std::string> suiteSolverNames() {
  std::vector<std::string> names{"ASAP"};
  for (const VariantSpec& v : allVariants()) names.push_back(v.name());
  return names;
}

bool solverFitsInstance(const SolverInfo& info, const Instance& instance) {
  return !(info.singleProcOnly && instance.gc.numProcs() != 1);
}

} // namespace cawo
