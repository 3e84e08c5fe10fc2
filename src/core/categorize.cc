#include "core/categorize.h"

namespace vadasa::core {

namespace {

/// Category assigned when nothing matches (the ∃C of Rule 1 resolved
/// conservatively: unknown attributes are treated as quasi-identifying).
constexpr AttributeCategory kDefaultCategory = AttributeCategory::kQuasiIdentifier;

}  // namespace

AttributeCategorizer::AttributeCategorizer(CategorizerOptions options)
    : options_(std::move(options)) {
  if (!options_.similarity) options_.similarity = AttributeNameSimilarity;
  if (!options_.consolidate) {
    options_.consolidate = [](const CategorizationDecision&) { return true; };
  }
}

void AttributeCategorizer::AddExperience(const std::string& attribute,
                                         AttributeCategory category) {
  experience_.push_back({attribute, category});
}

CategorizationDecision AttributeCategorizer::Categorize(const std::string& attribute) {
  CategorizationDecision decision;
  decision.attribute = attribute;

  // Rule 2: borrow the category of the most similar known attribute. Scan the
  // whole base so the EGD (Rule 4) can observe competing matches.
  double best = 0.0;
  const ExperienceEntry* best_entry = nullptr;
  for (const ExperienceEntry& e : experience_) {
    const double sim = options_.similarity(attribute, e.attribute);
    if (sim < kSimilarityThreshold) continue;
    if (best_entry != nullptr && e.category != best_entry->category) {
      // Two sufficiently-similar entries with different categories: the EGD
      // fires. Record for manual inspection; the better match wins.
      conflicts_.push_back({attribute, best_entry->category, e.category,
                            best_entry->attribute, e.attribute});
    }
    // Ties go to the most recent entry: later expert additions and Rule-3
    // consolidations override older seeds.
    if (sim >= best) {
      best = sim;
      best_entry = &e;
    }
  }
  if (best_entry != nullptr) {
    decision.category = best_entry->category;
    decision.matched_entry = best_entry->attribute;
    decision.similarity = best;
  } else {
    // Rule 1's existential, resolved by the default.
    decision.category = kDefaultCategory;
    decision.defaulted = true;
  }
  // Rule 3: recursive feedback into the experience base (human-gated).
  if (options_.consolidate(decision)) {
    decision.consolidated = true;
    experience_.push_back({attribute, decision.category});
  }
  return decision;
}

Result<std::vector<CategorizationDecision>> AttributeCategorizer::CategorizeTable(
    MicrodataTable* table, MetadataDictionary* dictionary) {
  std::vector<CategorizationDecision> decisions;
  for (const Attribute& a : table->attributes()) {
    decisions.push_back(Categorize(a.name));
  }
  if (dictionary != nullptr) {
    dictionary->IngestTable(*table, /*include_categories=*/false);
  }
  for (const CategorizationDecision& d : decisions) {
    VADASA_RETURN_NOT_OK(table->SetCategory(d.attribute, d.category));
    if (dictionary != nullptr) {
      dictionary->SetCategory({table->name(), d.attribute, d.category});
    }
  }
  VADASA_RETURN_NOT_OK(table->Validate());
  return decisions;
}

AttributeCategorizer AttributeCategorizer::WithDefaultExperience(CategorizerOptions options) {
  AttributeCategorizer c(std::move(options));
  const struct {
    const char* name;
    AttributeCategory cat;
  } kSeed[] = {
      {"id", AttributeCategory::kIdentifier},
      {"identifier", AttributeCategory::kIdentifier},
      {"company id", AttributeCategory::kIdentifier},
      {"customer identifier", AttributeCategory::kIdentifier},
      {"fiscal code", AttributeCategory::kIdentifier},
      {"ssn", AttributeCategory::kIdentifier},
      {"social security number", AttributeCategory::kIdentifier},
      {"vat number", AttributeCategory::kIdentifier},
      {"driving licence", AttributeCategory::kIdentifier},
      {"area", AttributeCategory::kQuasiIdentifier},
      {"region", AttributeCategory::kQuasiIdentifier},
      {"city", AttributeCategory::kQuasiIdentifier},
      {"sector", AttributeCategory::kQuasiIdentifier},
      {"employees", AttributeCategory::kQuasiIdentifier},
      {"age", AttributeCategory::kQuasiIdentifier},
      {"gender", AttributeCategory::kQuasiIdentifier},
      {"occupation", AttributeCategory::kQuasiIdentifier},
      {"revenue", AttributeCategory::kQuasiIdentifier},
      {"residential revenue", AttributeCategory::kQuasiIdentifier},
      {"export revenue", AttributeCategory::kQuasiIdentifier},
      {"growth", AttributeCategory::kNonIdentifying},
      {"notes", AttributeCategory::kNonIdentifying},
      {"timestamp", AttributeCategory::kNonIdentifying},
      {"weight", AttributeCategory::kWeight},
      {"sampling weight", AttributeCategory::kWeight},
  };
  for (const auto& [name, cat] : kSeed) c.AddExperience(name, cat);
  return c;
}

}  // namespace vadasa::core
