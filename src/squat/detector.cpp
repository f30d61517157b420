#include "squat/detector.hpp"

#include <algorithm>
#include <array>

#include "dns/punycode.hpp"
#include "util/strings.hpp"

namespace nxd::squat {

namespace {

constexpr std::size_t kMinAttributableBrand = 4;

// Every label the cascade sees fits in one of these: a DNS label is at most
// 63 bytes, and an "xn--" label decodes to fewer code points than it has
// bytes, so its ASCII mapping is shorter still.
using LabelBuffer = std::array<char, dns::DomainName::kMaxLabelLength>;

/// fold_confusables into `out`, which holds at least s.size() chars (a fold
/// never lengthens); returns the folded length.
std::size_t fold_into(std::string_view s, char* out) noexcept {
  // Multi-char sequences first, then single characters.  Each confusable
  // class maps to one canonical representative; in particular {i, l, 1}
  // all fold to 'l' so any member matches any other.
  std::size_t n = 0;
  for (std::size_t i = 0; i < s.size();) {
    if (i + 1 < s.size()) {
      const char a = s[i], b = s[i + 1];
      if (a == 'r' && b == 'n') { out[n++] = 'm'; i += 2; continue; }
      if (a == 'v' && b == 'v') { out[n++] = 'w'; i += 2; continue; }
      if (a == 'c' && b == 'l') { out[n++] = 'd'; i += 2; continue; }
    }
    switch (s[i]) {
      case '0': out[n++] = 'o'; break;
      case '1': out[n++] = 'l'; break;
      case 'i': out[n++] = 'l'; break;
      case '3': out[n++] = 'e'; break;
      case '5': out[n++] = 's'; break;
      case '8': out[n++] = 'b'; break;
      case '9': out[n++] = 'g'; break;
      default: out[n++] = s[i]; break;
    }
    ++i;
  }
  return n;
}

/// The first four bytes of s as one integer key.
std::uint32_t gram4(std::string_view s) {
  std::uint32_t g = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    g = (g << 8) | static_cast<unsigned char>(s[i]);
  }
  return g;
}

/// Append target `i` to `key`'s list unless it is already last there (a
/// brand can produce the same key twice, as "google" does for deletions).
template <typename Map, typename Key>
void add(Map& index, Key&& key, std::uint32_t i) {
  auto& list = index[std::forward<Key>(key)];
  if (list.empty() || list.back() != i) list.push_back(i);
}

template <typename Map, typename Key>
const std::vector<std::uint32_t>* lookup(const Map& index, const Key& key) {
  const auto it = index.find(key);
  return it == index.end() ? nullptr : &it->second;
}

}  // namespace

std::string fold_confusables(std::string_view s) {
  std::string out(s.size(), '\0');
  out.resize(fold_into(s, out.data()));
  return out;
}

SquatDetector::SquatDetector(std::vector<Target> targets)
    : targets_(std::move(targets)) {
  for (std::uint32_t i = 0; i < targets_.size(); ++i) {
    const std::string& brand = targets_[i].brand;
    brand_index_.emplace(brand, i);
    add(www_dot_index_, "www" + brand, i);
    add(split_dot_index_, brand, i);
    if (brand.size() < kMinAttributableBrand) continue;

    for (std::size_t pos = 0; pos < brand.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = brand;
        flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
        add(bit_index_, std::move(flipped), i);
      }
    }
    add(homo_index_, brand, i);
    add(homo_index_, fold_confusables(brand), i);
    add(typo_index_, brand, i);
    for (std::size_t pos = 0; pos < brand.size(); ++pos) {
      add(typo_index_, brand.substr(0, pos) + brand.substr(pos + 1), i);
    }
    add(combo_index_, gram4(brand), i);
  }
  for (const auto& keyword : combo_keywords()) {
    folded_keywords_.push_back(fold_confusables(keyword));
  }
}

std::optional<std::uint32_t> SquatDetector::dot_match(
    const dns::DomainName& name) const {
  // All labels except the TLD, joined: "www"+brand for a 2-label name,
  // brand for a longer one.  Only a target under the name's TLD counts.
  const auto& labels = name.labels();
  const std::vector<std::uint32_t>* candidates = nullptr;
  if (labels.size() == 2) {
    candidates = lookup(www_dot_index_, std::string_view(labels[0]));
  } else {
    std::array<char, dns::DomainName::kMaxNameLength> joined;
    std::size_t n = 0;
    for (std::size_t i = 0; i + 1 < labels.size(); ++i) {
      n += labels[i].copy(joined.data() + n, labels[i].size());
    }
    candidates = lookup(split_dot_index_, std::string_view(joined.data(), n));
  }
  if (candidates == nullptr) return std::nullopt;
  for (const std::uint32_t i : *candidates) {
    if (targets_[i].domain.tld() == name.tld()) return i;
  }
  return std::nullopt;
}

std::optional<std::uint32_t> SquatDetector::bit_match(
    std::string_view label) const {
  // Every key of the brand is one bit flip away from it, so every listed
  // target matches.
  if (const auto* candidates = lookup(bit_index_, label)) {
    return candidates->front();
  }
  return std::nullopt;
}

std::optional<std::uint32_t> SquatDetector::homo_match(
    std::string_view label) const {
  // The label's fold equals the brand or the brand's fold.
  LabelBuffer folded;
  const std::size_t n = fold_into(label, folded.data());
  if (const auto* candidates =
          lookup(homo_index_, std::string_view(folded.data(), n))) {
    for (const std::uint32_t i : *candidates) {
      if (targets_[i].brand != label) return i;
    }
  }
  return std::nullopt;
}

std::optional<std::uint32_t> SquatDetector::typo_match(
    std::string_view label) const {
  // Deletion neighbourhood (SymSpell): a label one edit from a brand shares
  // a key with it, taken from {label} ∪ 1-deletions(label) on one side and
  // {brand} ∪ 1-deletions(brand) on the other.  A substitution or a
  // transposition deletes to a common string, an insertion or deletion
  // leaves one side whole.  A shared key does not prove one edit, so each
  // candidate is confirmed.
  std::optional<std::uint32_t> best;
  const auto consider = [&](std::string_view key) {
    const auto* candidates = lookup(typo_index_, key);
    if (candidates == nullptr) return;
    for (const std::uint32_t i : *candidates) {
      if (best && i >= *best) return;
      const std::string& brand = targets_[i].brand;
      if (brand != label && util::within_one_edit(label, brand)) {
        best = i;
        return;
      }
    }
  };
  consider(label);
  LabelBuffer deleted;
  for (std::size_t pos = 0; pos < label.size(); ++pos) {
    label.copy(deleted.data(), pos);
    label.copy(deleted.data() + pos, label.size() - pos - 1, pos + 1);
    consider(std::string_view(deleted.data(), label.size() - 1));
  }
  return best;
}

bool SquatDetector::combo_rest_matches(std::string_view label, std::size_t pos,
                                       std::size_t brand_size) const {
  // The remainder (minus joining hyphens) must be a recognizable combo
  // token: all digits, or within one confusable-folded edit of a known
  // trust/action keyword ("login", "secure", "supp0rt", ...).  Plain
  // substring matching would misfire on ordinary words that happen to
  // contain a brand ("kubernetes" contains "uber").
  LabelBuffer rest;
  std::size_t n = 0;
  bool all_digits = true;
  for (std::size_t i = 0; i < label.size(); ++i) {
    if ((i >= pos && i < pos + brand_size) || label[i] == '-') continue;
    all_digits = all_digits && util::is_digit(label[i]);
    rest[n++] = label[i];
  }
  if (n == 0) return false;
  if (all_digits) return true;
  LabelBuffer folded;
  const std::string_view token(folded.data(),
                               fold_into({rest.data(), n}, folded.data()));
  return std::any_of(folded_keywords_.begin(), folded_keywords_.end(),
                     [&](const std::string& keyword) {
                       return util::within_one_edit(token, keyword);
                     });
}

std::optional<std::uint32_t> SquatDetector::combo_match(
    std::string_view label) const {
  // One pass over the label: at each position, the brands starting with
  // its next four bytes.  A brand is judged at its first occurrence only,
  // as label.find(brand) would place it.
  std::optional<std::uint32_t> best;
  for (std::size_t pos = 0; pos + kMinAttributableBrand <= label.size();
       ++pos) {
    const auto* candidates = lookup(combo_index_, gram4(label.substr(pos)));
    if (candidates == nullptr) continue;
    for (const std::uint32_t i : *candidates) {
      if (best && i >= *best) break;
      // The whole brand starts here, and nowhere before.
      const std::string& brand = targets_[i].brand;
      if (label.find(brand) != pos) continue;
      if (combo_rest_matches(label, pos, brand.size())) best = i;
    }
  }
  return best;
}

std::optional<SquatVerdict> SquatDetector::classify(
    const dns::DomainName& name) const {
  if (name.label_count() < 2) return std::nullopt;
  std::string_view label = name.sld();

  // IDN homograph path: decode "xn--" labels and map each Unicode
  // lookalike onto the ASCII letter it imitates; a clean brand match after
  // that mapping is a homograph attack.
  std::string mapped;
  if (util::starts_with(label, "xn--")) {
    if (const auto decoded = dns::punycode_decode(label.substr(4))) {
      mapped.reserve(decoded->size());
      bool mappable = true;
      for (const char32_t c : *decoded) {
        if (static_cast<std::uint32_t>(c) < 0x80) {
          mapped.push_back(util::ascii_lower(static_cast<char>(c)));
          continue;
        }
        const char ascii = unicode_confusable_to_ascii(c);
        if (ascii == 0) {
          mappable = false;  // genuine non-Latin label, not a lookalike
          break;
        }
        mapped.push_back(ascii);
      }
      if (mappable) {
        if (const auto it = brand_index_.find(mapped);
            it != brand_index_.end()) {
          return SquatVerdict{SquatType::Homo, targets_[it->second].domain};
        }
        // Lookalike letters plus a typo/combo pattern: keep analyzing the
        // mapped form through the regular cascade.
        label = mapped;
      }
    }
  }

  // An exact brand match is the real domain, not a squat.
  if (const auto it = brand_index_.find(label); it != brand_index_.end() &&
      targets_[it->second].domain.tld() == name.tld()) {
    return std::nullopt;
  }

  const auto verdict = [&](SquatType type, std::uint32_t i) {
    return SquatVerdict{type, targets_[i].domain};
  };
  if (const auto i = dot_match(name)) return verdict(SquatType::Dot, *i);
  if (const auto i = bit_match(label)) return verdict(SquatType::Bit, *i);
  if (const auto i = homo_match(label)) return verdict(SquatType::Homo, *i);
  if (const auto i = typo_match(label)) return verdict(SquatType::Typo, *i);
  if (const auto i = combo_match(label)) return verdict(SquatType::Combo, *i);
  return std::nullopt;
}

std::unordered_map<SquatType, std::uint64_t> SquatDetector::classify_corpus(
    const std::vector<dns::DomainName>& names) const {
  std::unordered_map<SquatType, std::uint64_t> counts;
  for (const auto& name : names) {
    if (const auto verdict = classify(name)) {
      ++counts[verdict->type];
    }
  }
  return counts;
}

}  // namespace nxd::squat
