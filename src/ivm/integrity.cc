#include "ivm/integrity.h"

#include "util/error.h"
#include "util/fault.h"
#include "util/stopwatch.h"

namespace mview {

IntegrityGuard::IntegrityGuard(Database* db) : db_(db) {
  MVIEW_CHECK(db_ != nullptr, "null database");
}

void IntegrityGuard::AddAssertion(ViewDefinition def) {
  const std::string name = def.name();
  MVIEW_CHECK(assertions_.count(name) == 0, "assertion already exists: ",
              name);
  // The maintainer validates the definition and indexes its join
  // attributes, so violation checks probe instead of scan.
  Assertion assertion;
  assertion.maintainer =
      std::make_unique<DifferentialMaintainer>(std::move(def), db_);
  assertion.error_view = assertion.maintainer->FullEvaluate();
  assertions_[name] = std::move(assertion);
}

void IntegrityGuard::AddAssertion(const std::string& name,
                                  const std::vector<std::string>& relations,
                                  const std::string& error_condition) {
  std::vector<BaseRef> bases;
  bases.reserve(relations.size());
  for (const auto& r : relations) bases.push_back(BaseRef{r, {}});
  AddAssertion(ViewDefinition(name, std::move(bases), error_condition));
}

void IntegrityGuard::DropAssertion(const std::string& name) {
  MVIEW_CHECK(assertions_.erase(name) > 0, "unknown assertion: ", name);
}

bool IntegrityGuard::ComputeViolationDeltas(
    const TransactionEffect& effect,
    std::vector<std::pair<Assertion*, ViewDelta>>* deltas,
    std::vector<Violation>* violations) {
  // Fires before any delta is computed: a failing precheck must reject the
  // transaction with the database and every error view untouched.
  MVIEW_FAULT_POINT("integrity.precheck");
  bool any_new = false;
  for (auto& [name, assertion] : assertions_) {
    if (!assertion.maintainer->AffectedBy(effect)) continue;
    Stopwatch timer;
    ++assertion.stats.transactions;
    ViewDelta delta =
        assertion.maintainer->ComputeDelta(effect, &assertion.stats);
    assertion.stats.maintenance_nanos += timer.ElapsedNanos();
    if (!delta.inserts.empty()) {
      any_new = true;
      if (violations != nullptr) {
        Violation v;
        v.assertion = name;
        delta.inserts.Scan(
            [&](const Tuple& t, int64_t) { v.witnesses.push_back(t); });
        violations->push_back(std::move(v));
      }
    }
    if (!delta.Empty()) deltas->emplace_back(&assertion, std::move(delta));
  }
  return any_new;
}

bool IntegrityGuard::TryApply(const Transaction& txn,
                              std::vector<Violation>* violations) {
  TransactionEffect effect = txn.Normalize(*db_);
  if (effect.Empty()) return true;
  std::vector<std::pair<Assertion*, ViewDelta>> deltas;
  if (ComputeViolationDeltas(effect, &deltas, violations)) {
    return false;  // reject: the database is untouched
  }
  effect.ApplyTo(db_);
  for (auto& [assertion, delta] : deltas) {
    delta.ApplyTo(&assertion->error_view);
  }
  return true;
}

std::vector<IntegrityGuard::Violation> IntegrityGuard::ApplyAndReport(
    const Transaction& txn) {
  std::vector<Violation> violations;
  TransactionEffect effect = txn.Normalize(*db_);
  if (effect.Empty()) return violations;
  std::vector<std::pair<Assertion*, ViewDelta>> deltas;
  ComputeViolationDeltas(effect, &deltas, &violations);
  effect.ApplyTo(db_);
  for (auto& [assertion, delta] : deltas) {
    delta.ApplyTo(&assertion->error_view);
  }
  return violations;
}

std::vector<IntegrityGuard::Violation> IntegrityGuard::CurrentViolations()
    const {
  std::vector<Violation> out;
  for (const auto& [name, assertion] : assertions_) {
    if (assertion.error_view.empty()) continue;
    Violation v;
    v.assertion = name;
    assertion.error_view.Scan(
        [&](const Tuple& t, int64_t) { v.witnesses.push_back(t); });
    out.push_back(std::move(v));
  }
  return out;
}

bool IntegrityGuard::AllHold() const {
  for (const auto& [name, assertion] : assertions_) {
    if (!assertion.error_view.empty()) return false;
  }
  return true;
}

std::vector<std::string> IntegrityGuard::AssertionNames() const {
  std::vector<std::string> names;
  names.reserve(assertions_.size());
  for (const auto& [name, assertion] : assertions_) names.push_back(name);
  return names;
}

const MaintenanceStats& IntegrityGuard::Stats(const std::string& name) const {
  auto it = assertions_.find(name);
  MVIEW_CHECK(it != assertions_.end(), "unknown assertion: ", name);
  return it->second.stats;
}

const ViewDefinition& IntegrityGuard::Definition(
    const std::string& name) const {
  auto it = assertions_.find(name);
  MVIEW_CHECK(it != assertions_.end(), "unknown assertion: ", name);
  return it->second.maintainer->definition();
}

IntegrityGuard::Precheck IntegrityGuard::PrecheckEffect(
    const TransactionEffect& effect) {
  Precheck precheck;
  precheck.ok =
      !ComputeViolationDeltas(effect, &precheck.deltas, &precheck.violations);
  return precheck;
}

void IntegrityGuard::CommitPrecheck(Precheck&& precheck) {
  MVIEW_CHECK(precheck.ok, "cannot commit a failed precheck");
  for (auto& [assertion, delta] : precheck.deltas) {
    delta.ApplyTo(&assertion->error_view);
  }
}

}  // namespace mview
