#ifndef VADASA_CORE_CATEGORIZE_H_
#define VADASA_CORE_CATEGORIZE_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/similarity.h"
#include "core/metadata.h"
#include "core/microdata.h"

namespace vadasa::core {

/// One ExpBase(attribute-name, category) fact: experts' knowledge that an
/// attribute with this name (or a similar one) has this category.
struct ExperienceEntry {
  std::string attribute;
  AttributeCategory category;
};

/// Outcome of categorizing one attribute.
struct CategorizationDecision {
  std::string attribute;
  AttributeCategory category = AttributeCategory::kNonIdentifying;
  /// The experience-base entry that drove the decision ("" when defaulted).
  std::string matched_entry;
  double similarity = 0.0;
  bool defaulted = false;   ///< No match ≥ threshold; fell back to the default.
  bool consolidated = false;  ///< Fed back into the experience base (Rule 3).
};

/// A conflict surfaced by the EGD (Rule 4): two experience entries propose
/// different categories for the same attribute.
struct CategorizationConflict {
  std::string attribute;
  AttributeCategory first;
  AttributeCategory second;
  std::string first_entry;
  std::string second_entry;
};

/// Minimum `∼` similarity to borrow a category (Rule 2). The Vadalog bridge's
/// #similar applies the same bound, so the native and declarative runs of
/// Algorithm 1 agree.
inline constexpr double kSimilarityThreshold = 0.82;

/// Knobs of the categorizer.
struct CategorizerOptions {
  /// Pluggable ∼ function.
  SimilarityFn similarity = nullptr;
  /// Human-in-the-loop hook: whether to consolidate a decision into the
  /// experience base (Rule 3). Defaults to "always yes".
  std::function<bool(const CategorizationDecision&)> consolidate = nullptr;
};

/// Attribute categorization per Algorithm 1: a recursive application of
/// experience. An attribute sufficiently similar (`∼`) to an experience-base
/// entry borrows its category (Rule 2); accepted decisions are fed back into
/// the base (Rule 3), aiding later decisions; the EGD (Rule 4) guarantees one
/// category per attribute and surfaces conflicts for manual inspection.
class AttributeCategorizer {
 public:
  explicit AttributeCategorizer(CategorizerOptions options = {});

  /// Seeds the experience base.
  void AddExperience(const std::string& attribute, AttributeCategory category);
  const std::vector<ExperienceEntry>& experience() const { return experience_; }

  /// Conflicts detected so far (EGD violations in kCollect spirit).
  const std::vector<CategorizationConflict>& conflicts() const { return conflicts_; }

  /// Categorizes one attribute name.
  CategorizationDecision Categorize(const std::string& attribute);

  /// Categorizes all attributes of `table` in place and records Category
  /// facts into `dictionary` (may be nullptr).
  Result<std::vector<CategorizationDecision>> CategorizeTable(
      MicrodataTable* table, MetadataDictionary* dictionary);

  /// A default experience base covering common financial/statistical
  /// attribute names (ids, fiscal codes, geography, weights...).
  static AttributeCategorizer WithDefaultExperience(CategorizerOptions options = {});

 private:
  CategorizerOptions options_;
  std::vector<ExperienceEntry> experience_;
  std::vector<CategorizationConflict> conflicts_;
};

}  // namespace vadasa::core

#endif  // VADASA_CORE_CATEGORIZE_H_
