#include "src/core/engine.h"

#include <mutex>

namespace phom {

namespace {

/// Lock-free scan shared by Register (under the exclusive lock) and
/// FindByName (under a shared lock); callers hold mu_.
const Engine* FindByNameUnlocked(
    const std::vector<std::unique_ptr<Engine>>& engines,
    std::string_view name) {
  for (const auto& engine : engines) {
    if (engine->name() == name) return engine.get();
  }
  return nullptr;
}

}  // namespace

EngineRegistry& EngineRegistry::Global() {
  // Static-local initialization is the std::call_once of this pattern: the
  // C++ runtime guarantees exactly one concurrent first caller constructs
  // and populates the registry; everyone else blocks until it is ready.
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry();
    RegisterDefaultEngines(r);
    return r;
  }();
  return *registry;
}

void EngineRegistry::Register(std::unique_ptr<Engine> engine) {
  PHOM_CHECK_MSG(engine != nullptr, "cannot register a null engine");
  std::unique_lock lock(mu_);
  PHOM_CHECK_MSG(FindByNameUnlocked(engines_, engine->name()) == nullptr,
                 "an engine named '" + std::string(engine->name()) +
                     "' is already registered");
  engines_.push_back(std::move(engine));
}

const Engine* EngineRegistry::FindByName(std::string_view name) const {
  std::shared_lock lock(mu_);
  return FindByNameUnlocked(engines_, name);
}

const Engine* EngineRegistry::SelectAuto(const CaseAnalysis& analysis) const {
  std::shared_lock lock(mu_);
  for (const auto& engine : engines_) {
    if (engine->exact() && engine->AutoMatch(analysis)) return engine.get();
  }
  return nullptr;
}

std::vector<const Engine*> EngineRegistry::engines() const {
  std::shared_lock lock(mu_);
  std::vector<const Engine*> out;
  out.reserve(engines_.size());
  for (const auto& engine : engines_) out.push_back(engine.get());
  return out;
}

}  // namespace phom
