// Squatting detector — classifies a domain against a target list, reporting
// which attack type it embodies and which brand it imitates (the
// "commercial identification algorithm" of paper §5.2).
//
// Precedence mirrors specificity: dot and bit patterns are exact structural
// matches and are tested first; homoglyph next; generic distance-1 typos
// after; combosquatting (substring + keyword) last, because every more
// specific class would otherwise also match it.  Within a type the first
// matching target in list order wins.
//
// Every test is a lookup in an index built once in the constructor, so a
// name costs a few hash probes and one pass over its label, whatever the
// number of targets.  Each index maps a key to the ascending indices of the
// targets it may match; a probe walks that list and confirms each candidate
// with the exact per-type test, so the first confirmed index is the one a
// scan over the targets in list order would return.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "squat/generators.hpp"

namespace nxd::squat {

struct SquatVerdict {
  SquatType type;
  dns::DomainName target;  // the imitated domain
};

class SquatDetector {
 public:
  explicit SquatDetector(std::vector<Target> targets);

  /// Detector over the embedded default target list.
  static SquatDetector with_defaults() { return SquatDetector(default_targets()); }

  /// Classify one (registered-level) domain name.
  std::optional<SquatVerdict> classify(const dns::DomainName& name) const;

  /// Classify a corpus; returns counts per squat type (Fig 7 shape).
  std::unordered_map<SquatType, std::uint64_t> classify_corpus(
      const std::vector<dns::DomainName>& names) const;

  const std::vector<Target>& targets() const noexcept { return targets_; }

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename V>
  using StringMap =
      std::unordered_map<std::string, V, StringHash, std::equal_to<>>;
  /// Key -> indices into targets_, ascending.
  using Index = StringMap<std::vector<std::uint32_t>>;

  /// Each returns the lowest index of a target the label (or name) squats
  /// in that way, if any.
  std::optional<std::uint32_t> dot_match(const dns::DomainName& name) const;
  std::optional<std::uint32_t> bit_match(std::string_view label) const;
  std::optional<std::uint32_t> homo_match(std::string_view label) const;
  std::optional<std::uint32_t> typo_match(std::string_view label) const;
  std::optional<std::uint32_t> combo_match(std::string_view label) const;
  /// The combo test once `brand_size` bytes at `pos` matched a brand: what
  /// is left, minus hyphens, is all digits or one edit from a keyword.
  bool combo_rest_matches(std::string_view label, std::size_t pos,
                          std::size_t brand_size) const;

  std::vector<Target> targets_;
  // brand -> first target index, for exact-brand rejects and IDN matches.
  StringMap<std::size_t> brand_index_;
  Index www_dot_index_;    // "www" + brand, for 2-label names
  Index split_dot_index_;  // brand, for names of 3 or more labels
  // The indexes below hold only brands of at least 4 chars: shorter ones
  // are too short to attribute reliably except as dot squats.
  Index bit_index_;        // every single-bit flip of the brand
  Index homo_index_;       // the brand and its confusable fold
  Index typo_index_;       // the brand and each of its 1-deletions
  // First four bytes of the brand -> targets; the combo substring pass.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> combo_index_;
  std::vector<std::string> folded_keywords_;
};

/// Canonicalize ASCII homoglyphs ("g00gle" -> "google", "rnicrosoft" ->
/// "microsoft").  Exposed for tests.
std::string fold_confusables(std::string_view s);

}  // namespace nxd::squat
