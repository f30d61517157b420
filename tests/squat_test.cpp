// Unit tests for nxd::squat — generators, detector, and round-trip
// properties (everything a generator emits must be detected as a squat of
// the right type against the same target list), plus a differential check
// of the indexed detector against the slow reference in squat_reference.hpp.
#include <gtest/gtest.h>

#include <array>
#include <set>

#include "squat/detector.hpp"
#include "squat/generators.hpp"
#include "squat_reference.hpp"
#include "synth/scale_models.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace nxd::squat {
namespace {

using dns::DomainName;

Target target_of(const char* domain) {
  return targets_from({domain}).front();
}

// ------------------------------------------------------------- generators

TEST(TypoGenerator, AllCandidatesWithinDamerauOne) {
  const auto target = target_of("google.com");
  const auto candidates = generate_typos(target);
  ASSERT_FALSE(candidates.empty());
  for (const auto& name : candidates) {
    EXPECT_LE(util::damerau_distance(name.sld(), "google"), 1u)
        << name.to_string();
    EXPECT_NE(name.sld(), "google");
    EXPECT_EQ(name.tld(), "com");
  }
}

TEST(TypoGenerator, CoversAllFiveClasses) {
  const auto target = target_of("paypal.com");
  const auto candidates = generate_typos(target);
  std::set<std::string> slds;
  for (const auto& name : candidates) slds.insert(std::string(name.sld()));
  EXPECT_TRUE(slds.contains("aypal"));    // omission
  EXPECT_TRUE(slds.contains("ppaypal"));  // repetition
  EXPECT_TRUE(slds.contains("apypal"));   // transposition
  EXPECT_TRUE(slds.contains("oaypal"));   // adjacent replacement (p->o)
  EXPECT_TRUE(slds.contains("opaypal"));  // fat-finger insertion
}

TEST(ComboGenerator, ContainsBrandPlusKeyword) {
  const auto target = target_of("paypal.com");
  const auto candidates = generate_combos(target);
  ASSERT_FALSE(candidates.empty());
  for (const auto& name : candidates) {
    EXPECT_NE(name.sld().find("paypal"), std::string_view::npos)
        << name.to_string();
    EXPECT_GT(name.sld().size(), 6u);
  }
  std::set<std::string> slds;
  for (const auto& name : candidates) slds.insert(std::string(name.sld()));
  EXPECT_TRUE(slds.contains("paypal-login"));
  EXPECT_TRUE(slds.contains("securepaypal"));
}

TEST(DotGenerator, WwwGlueAndInBrandDots) {
  const auto target = target_of("google.com");
  const auto candidates = generate_dots(target);
  std::set<std::string> names;
  for (const auto& name : candidates) names.insert(name.to_string());
  EXPECT_TRUE(names.contains("wwwgoogle.com"));
  EXPECT_TRUE(names.contains("goo.gle.com"));
  EXPECT_TRUE(names.contains("g.oogle.com"));
}

TEST(BitGenerator, AllCandidatesExactlyOneBitFlip) {
  const auto target = target_of("amazon.com");
  const auto candidates = generate_bits(target);
  ASSERT_FALSE(candidates.empty());
  for (const auto& name : candidates) {
    const std::string sld(name.sld());
    ASSERT_EQ(sld.size(), 6u) << sld;
    int diff_bits = 0;
    for (std::size_t i = 0; i < 6; ++i) {
      unsigned x = static_cast<unsigned char>(sld[i]) ^
                   static_cast<unsigned char>("amazon"[i]);
      while (x != 0) {
        diff_bits += static_cast<int>(x & 1);
        x >>= 1;
      }
    }
    EXPECT_EQ(diff_bits, 1) << sld;
  }
}

TEST(HomoGenerator, ProducesConfusables) {
  const auto google = generate_homos(target_of("google.com"));
  std::set<std::string> slds;
  for (const auto& name : google) slds.insert(std::string(name.sld()));
  EXPECT_TRUE(slds.contains("g0ogle"));
  EXPECT_TRUE(slds.contains("googie") || slds.contains("goog1e"));

  const auto microsoft = generate_homos(target_of("microsoft.com"));
  std::set<std::string> ms;
  for (const auto& name : microsoft) ms.insert(std::string(name.sld()));
  EXPECT_TRUE(ms.contains("rnicrosoft"));
}

TEST(Generators, NeverEmitTheTargetItself) {
  for (const auto type : kAllSquatTypes) {
    const auto target = target_of("twitter.com");
    for (const auto& name : generate(type, target)) {
      EXPECT_NE(name, target.domain)
          << to_string(type) << " emitted the target";
    }
  }
}

TEST(KeyboardNeighbors, SymmetricAndNonSelf) {
  for (char c = 'a'; c <= 'z'; ++c) {
    for (const char n : keyboard_neighbors(c)) {
      EXPECT_NE(n, c);
      const auto back = keyboard_neighbors(n);
      EXPECT_NE(back.find(c), std::string_view::npos)
          << c << " -> " << n << " not symmetric";
    }
  }
}

// ----------------------------------------------------------- fold_confusables

TEST(FoldConfusables, CanonicalizesConfusableClasses) {
  // Members of a confusable class fold to the same canonical string.
  EXPECT_EQ(fold_confusables("g0ogle"), "google");
  EXPECT_EQ(fold_confusables("rnicrosoft"), fold_confusables("microsoft"));
  EXPECT_EQ(fold_confusables("m1crosoft"), fold_confusables("microsoft"));
  EXPECT_EQ(fold_confusables("mlcrosoft"), fold_confusables("microsoft"));
  EXPECT_EQ(fold_confusables("paypa1"), fold_confusables("paypal"));
  EXPECT_EQ(fold_confusables("vvikipedia"), fold_confusables("wikipedia"));
  // Unconfusable strings are stable under double folding.
  EXPECT_EQ(fold_confusables(fold_confusables("amazon")),
            fold_confusables("amazon"));
  // Distinct brands stay distinct.
  EXPECT_NE(fold_confusables("google"), fold_confusables("amazon"));
}

// --------------------------------------------------------------- detector

struct RoundTripCase {
  SquatType type;
  const char* target;
};

class GeneratorDetectorRoundTrip
    : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(GeneratorDetectorRoundTrip, GeneratedCandidatesDetected) {
  const auto& param = GetParam();
  const SquatDetector detector = SquatDetector::with_defaults();
  const auto target = target_of(param.target);
  const auto candidates = generate(param.type, target);
  ASSERT_FALSE(candidates.empty());

  std::size_t detected = 0, correct_type = 0;
  for (const auto& name : candidates) {
    const auto verdict = detector.classify(name);
    if (verdict) {
      ++detected;
      if (verdict->type == param.type) ++correct_type;
    }
  }
  // Everything generated must register as *some* squat (a bit flip can
  // coincide with a keyboard-adjacent typo, so cross-type hits are fine),
  // and the majority must carry the intended type.
  EXPECT_EQ(detected, candidates.size()) << to_string(param.type);
  EXPECT_GE(correct_type * 10, candidates.size() * 7)
      << to_string(param.type) << ": " << correct_type << "/"
      << candidates.size();
}

INSTANTIATE_TEST_SUITE_P(
    Types, GeneratorDetectorRoundTrip,
    ::testing::Values(RoundTripCase{SquatType::Typo, "google.com"},
                      RoundTripCase{SquatType::Typo, "amazon.com"},
                      RoundTripCase{SquatType::Combo, "paypal.com"},
                      RoundTripCase{SquatType::Combo, "netflix.com"},
                      RoundTripCase{SquatType::Dot, "google.com"},
                      RoundTripCase{SquatType::Bit, "facebook.com"},
                      RoundTripCase{SquatType::Homo, "google.com"},
                      RoundTripCase{SquatType::Homo, "microsoft.com"}),
    [](const auto& info) {
      return to_string(info.param.type) + std::string("_") +
             std::string(info.param.target).substr(0, 3);
    });

TEST(Detector, BenignNamesPass) {
  const SquatDetector detector = SquatDetector::with_defaults();
  for (const char* name :
       {"example.com", "weather-news.org", "quantumphysics.net",
        "rustaceans.org", "kubernetes.io"}) {
    EXPECT_FALSE(detector.classify(dns::DomainName::must(name)).has_value())
        << name;
  }
}

TEST(Detector, TheTargetItselfIsNotASquat) {
  const SquatDetector detector = SquatDetector::with_defaults();
  EXPECT_FALSE(
      detector.classify(dns::DomainName::must("google.com")).has_value());
  EXPECT_FALSE(
      detector.classify(dns::DomainName::must("paypal.com")).has_value());
}

TEST(Detector, IdentifiesTargetDomain) {
  const SquatDetector detector = SquatDetector::with_defaults();
  const auto verdict = detector.classify(dns::DomainName::must("gogle.com"));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->type, SquatType::Typo);
  EXPECT_EQ(verdict->target.to_string(), "google.com");
}

TEST(Detector, PaperExampleTwitterSupport) {
  // twitter-sup0rt.com from Table 1: combosquat with homoglyph inside the
  // keyword.  Our detector sees brand "twitter" + extra token -> Combo.
  const SquatDetector detector = SquatDetector::with_defaults();
  const auto verdict =
      detector.classify(dns::DomainName::must("twitter-sup0rt.com"));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->type, SquatType::Combo);
  EXPECT_EQ(verdict->target.to_string(), "twitter.com");
}

TEST(Detector, ClassifyCorpusCounts) {
  const SquatDetector detector = SquatDetector::with_defaults();
  std::vector<dns::DomainName> corpus = {
      dns::DomainName::must("gogle.com"),        // typo
      dns::DomainName::must("paypal-login.com"), // combo
      dns::DomainName::must("wwwgoogle.com"),    // dot
      dns::DomainName::must("g0ogle.com"),       // homo
      dns::DomainName::must("benign-site.org"),  // none
  };
  const auto counts = detector.classify_corpus(corpus);
  EXPECT_EQ(counts.at(SquatType::Typo), 1u);
  EXPECT_EQ(counts.at(SquatType::Combo), 1u);
  EXPECT_EQ(counts.at(SquatType::Dot), 1u);
  EXPECT_EQ(counts.at(SquatType::Homo), 1u);
  EXPECT_FALSE(counts.contains(SquatType::Bit));
}

TEST(Detector, ShortBrandsNeedExactStructure) {
  // Brands under 4 chars must not trigger distance-1 typo attribution
  // (noise would overwhelm signal).
  const SquatDetector detector(targets_from({"qq.com"}));
  EXPECT_FALSE(detector.classify(dns::DomainName::must("qa.com")).has_value());
}

// ------------------------------------------- differential vs the reference

constexpr const char* kTlds[] = {"com", "net", "org", "ru", "tv", "us"};

void push_name(std::vector<DomainName>& corpus, const std::string& text) {
  if (auto name = DomainName::parse(text)) corpus.push_back(*std::move(name));
}

/// Every generator's output for every target, plus the targets themselves.
std::vector<DomainName> generator_corpus(const std::vector<Target>& targets) {
  std::vector<DomainName> corpus;
  for (const auto& target : targets) {
    corpus.push_back(target.domain);
    for (const auto type : kAllSquatTypes) {
      for (auto& name : generate(type, target)) corpus.push_back(name);
    }
    for (auto& name : generate_idn_homos(target)) corpus.push_back(name);
  }
  return corpus;
}

/// Random insert / delete / substitute / transpose edits (one or two) of
/// random brands, under the brand's own TLD or one of kTlds.
std::vector<DomainName> edit_corpus(const std::vector<Target>& targets,
                                    std::uint64_t seed, std::size_t n) {
  static constexpr std::string_view kAlphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789-";
  util::Rng rng(seed);
  const auto pick = [&] { return kAlphabet[rng.bounded(kAlphabet.size())]; };
  std::vector<DomainName> corpus;
  while (corpus.size() < n) {
    const auto& target = targets[rng.bounded(targets.size())];
    std::string label = target.brand;
    for (std::uint64_t e = 0, edits = 1 + rng.bounded(2); e < edits; ++e) {
      const std::size_t pos = rng.bounded(label.size() + 1);
      switch (rng.bounded(4)) {
        case 0: label.insert(label.begin() + pos, pick()); break;
        case 1:
          if (pos < label.size()) label.erase(pos, 1);
          break;
        case 2:
          if (pos < label.size()) label[pos] = pick();
          break;
        default:
          if (pos + 1 < label.size()) std::swap(label[pos], label[pos + 1]);
          break;
      }
    }
    const std::string tld = rng.bounded(2) == 0
                                ? std::string(target.domain.tld())
                                : kTlds[rng.bounded(std::size(kTlds))];
    push_name(corpus, label + "." + tld);
  }
  return corpus;
}

/// Brand plus keyword (sometimes misspelt) or digits, either order, with
/// and without a hyphen, across kTlds.
std::vector<DomainName> combo_corpus(const std::vector<Target>& targets,
                                     std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  const auto& keywords = combo_keywords();
  std::vector<DomainName> corpus;
  while (corpus.size() < n) {
    const auto& brand = targets[rng.bounded(targets.size())].brand;
    std::string token;
    if (rng.bounded(4) == 0) {
      token = std::to_string(rng.bounded(10'000));
    } else {
      token = keywords[rng.bounded(keywords.size())];
      if (rng.bounded(3) == 0) {
        token[rng.bounded(token.size())] = "0135ilrnx-"[rng.bounded(10)];
      }
    }
    const std::string joint = rng.bounded(2) == 0 ? "-" : "";
    const std::string label =
        rng.bounded(2) == 0 ? brand + joint + token : token + joint + brand;
    push_name(corpus, label + "." + kTlds[rng.bounded(std::size(kTlds))]);
  }
  return corpus;
}

/// One-label names, "www" glue, and brands split over three or more labels.
std::vector<DomainName> label_count_corpus(const std::vector<Target>& targets,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<DomainName> corpus;
  for (const auto& target : targets) {
    const std::string& brand = target.brand;
    const std::string tld(target.domain.tld());
    const std::string other = kTlds[rng.bounded(std::size(kTlds))];
    for (const auto& text :
         {brand, tld, "www" + brand + "." + tld, "www" + brand + "." + other,
          "www." + brand + "." + tld, "www.www" + brand + "." + tld,
          "a.b." + brand + "." + tld, brand + "." + brand + "." + tld}) {
      push_name(corpus, text);
    }
    for (std::size_t cut = 1; cut < brand.size(); ++cut) {
      const std::string head = brand.substr(0, cut);
      const std::string tail = brand.substr(cut);
      push_name(corpus, head + "." + tail + "." + tld);
      push_name(corpus, head + "." + tail + "." + other);
      const std::size_t cut2 = 1 + rng.bounded(tail.size());
      if (cut2 < tail.size()) {
        push_name(corpus, head + "." + tail.substr(0, cut2) + "." +
                              tail.substr(cut2) + "." + tld);
      }
    }
  }
  return corpus;
}

/// Seeded NXDomain-model names: never-registered and registrable streams.
std::vector<DomainName> model_corpus(std::uint64_t seed, std::size_t n) {
  const synth::NxDomainNameModel model(seed);
  util::Rng rng(seed);
  std::vector<DomainName> corpus;
  for (std::size_t i = 0; i < n; ++i) {
    corpus.push_back(i % 2 == 0 ? model.next(rng)
                                : model.next_registrable(rng));
  }
  return corpus;
}

/// Classifies the corpus with both detectors; fails on any (type, target)
/// difference and returns the reference's verdict counts per type (index
/// 5 counts names it clears).
std::array<std::size_t, 6> expect_same_verdicts(
    const std::vector<Target>& targets, const std::vector<DomainName>& corpus) {
  const SquatDetector fast(targets);
  const ReferenceSquatDetector slow(targets);
  std::array<std::size_t, 6> counts{};
  std::size_t mismatches = 0;
  for (const auto& name : corpus) {
    const auto got = fast.classify(name);
    const auto want = slow.classify(name);
    ++counts[want ? static_cast<std::size_t>(want->type) : 5];
    const bool same = got.has_value() == want.has_value() &&
                      (!got || (got->type == want->type &&
                                got->target == want->target));
    if (same) continue;
    ++mismatches;
    if (mismatches <= 20) {
      ADD_FAILURE() << name.to_string() << ": got "
                    << (got ? to_string(got->type) + " of " +
                                  got->target.to_string()
                            : "clean")
                    << ", reference "
                    << (want ? to_string(want->type) + " of " +
                                   want->target.to_string()
                             : "clean");
    }
  }
  EXPECT_EQ(mismatches, 0u) << "over " << corpus.size() << " names";
  return counts;
}

std::vector<DomainName> concat(std::vector<std::vector<DomainName>> parts) {
  std::vector<DomainName> out;
  for (auto& part : parts) {
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

TEST(DetectorDifferential, DefaultTargetsMatchReference) {
  const auto& targets = default_targets();
  const auto corpus = concat({generator_corpus(targets),
                              edit_corpus(targets, 11, 6'000),
                              combo_corpus(targets, 12, 4'000),
                              label_count_corpus(targets, 13),
                              model_corpus(14, 6'000)});
  const auto counts = expect_same_verdicts(targets, corpus);
  // Every verdict of the cascade, and clean names, are exercised.
  for (const std::size_t n : counts) EXPECT_GE(n, 100u);
}

TEST(DetectorDifferential, CustomTargetsMatchReference) {
  // One brand under two TLDs, brands under 4 chars, two brands with the
  // same fold (rnail/mail), two brands one bit apart (abcd/abce), a brand
  // that starts with "www", and one a keyword extends ("stor" of "store").
  const auto targets = targets_from(
      {"google.com", "google.net", "qq.com", "vk.com", "ab.org", "rnail.com",
       "mail.com", "abcd.com", "abce.com", "paypal.com", "wwwfoo.com",
       "foo.com", "paypal.org", "amazon.tv", "stor.net"});
  // A combo is judged where the brand first occurs: "storestor" leaves
  // "estor" there, not a keyword, though its second "stor" leaves "store".
  std::vector<DomainName> first_occurrence;
  for (const char* text : {"storestor.net", "stor-e-stor.net", "storstore.net",
                           "mailxmail.com", "paypal1paypal.com"}) {
    push_name(first_occurrence, text);
  }
  const auto corpus = concat({std::move(first_occurrence),
                              generator_corpus(targets),
                              edit_corpus(targets, 21, 3'000),
                              combo_corpus(targets, 22, 2'000),
                              label_count_corpus(targets, 23),
                              model_corpus(24, 1'000)});
  const auto counts = expect_same_verdicts(targets, corpus);
  for (const std::size_t n : counts) EXPECT_GE(n, 20u);
}

TEST(DetectorDifferential, FoldMatchesReference) {
  util::Rng rng(31);
  static constexpr std::string_view kAlphabet = "rnvcl01i3589dmwo-ab";
  for (int i = 0; i < 20'000; ++i) {
    std::string s(rng.bounded(12), 'a');
    for (auto& c : s) c = kAlphabet[rng.bounded(kAlphabet.size())];
    ASSERT_EQ(fold_confusables(s), reference_fold_confusables(s)) << s;
  }
}

}  // namespace
}  // namespace nxd::squat
