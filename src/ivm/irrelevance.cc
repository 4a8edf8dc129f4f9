#include "ivm/irrelevance.h"

#include "ivm/differential.h"
#include "util/error.h"

namespace mview {

IrrelevanceFilter::IrrelevanceFilter(const ViewDefinition& def,
                                     const Database& db)
    : db_(&db), def_(def) {
  def_.Validate(db);
  combined_ = def_.CombinedSchema(db);
  aliased_.reserve(def_.bases().size());
  for (size_t i = 0; i < def_.bases().size(); ++i) {
    aliased_.push_back(def_.AliasedSchema(db, i));
  }
  filters_.reserve(aliased_.size());
  for (size_t i = 0; i < aliased_.size(); ++i) {
    filters_.push_back(std::make_unique<SubstitutionFilter>(
        def_.condition(), combined_, std::vector<Schema>{aliased_[i]}));
  }
}

std::vector<IrrelevanceFilter::Survivors> IrrelevanceFilter::Screen(
    const TransactionEffect& effect, MaintenanceStats* stats) const {
  std::vector<Survivors> out(filters_.size());
  int64_t seen = 0;
  int64_t kept = 0;
  for (size_t i = 0; i < filters_.size(); ++i) {
    const RelationEffect* re = effect.Find(def_.bases()[i].relation);
    if (re == nullptr) continue;
    const SubstitutionFilter& filter = *filters_[i];
    auto screen = [&](const Relation& in, std::vector<const Tuple*>* kept_out) {
      kept_out->reserve(in.size());
      in.Scan([&](const Tuple& t) {
        if (filter.MightBeRelevant(t)) kept_out->push_back(&t);
      });
      seen += static_cast<int64_t>(in.size());
      kept += static_cast<int64_t>(kept_out->size());
    };
    screen(re->inserts, &out[i].inserts);
    screen(re->deletes, &out[i].deletes);
  }
  if (stats != nullptr) {
    stats->updates_seen += seen;
    stats->updates_filtered += seen - kept;
    if (seen > 0 && kept == 0) ++stats->skipped_irrelevant;
  }
  return out;
}

const SubstitutionFilter& IrrelevanceFilter::base_filter(
    size_t base_index) const {
  MVIEW_CHECK(base_index < filters_.size(), "base index out of range");
  return *filters_[base_index];
}

obs::IrrelevanceExplanation IrrelevanceFilter::Explain(
    size_t base_index, const Tuple& tuple) const {
  MVIEW_CHECK(base_index < aliased_.size(), "base index out of range");
  return obs::ExplainSubstitution(def_.condition(), combined_,
                                  {aliased_[base_index]}, {&tuple});
}

const Schema& IrrelevanceFilter::aliased_schema(size_t base_index) const {
  MVIEW_CHECK(base_index < aliased_.size(), "base index out of range");
  return aliased_[base_index];
}

SubstitutionFilter IrrelevanceFilter::CompileJointFilter(
    const std::vector<size_t>& base_indices) const {
  MVIEW_CHECK(!base_indices.empty(), "joint filter needs base indices");
  std::vector<Schema> schemes;
  schemes.reserve(base_indices.size());
  for (size_t idx : base_indices) {
    MVIEW_CHECK(idx < aliased_.size(), "base index out of range");
    schemes.push_back(aliased_[idx]);
  }
  return SubstitutionFilter(def_.condition(), combined_, std::move(schemes));
}

}  // namespace mview
