#ifndef WSD_ENTITY_DOMAINS_H_
#define WSD_ENTITY_DOMAINS_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "entity/name_gen.h"

namespace wsd {

/// The nine domains from Table 1 of the paper.
enum class Domain : int {
  kBooks = 0,
  kRestaurants,
  kAutomotive,
  kBanks,
  kLibraries,
  kSchools,
  kHotels,
  kRetail,
  kHomeGarden,
  kNumDomains,
};

/// Extraction channels. The first four are the identifying attributes
/// studied per domain in Table 1 of the paper; kMicrodata is the explicit
/// schema.org channel (microdata + JSON-LD) added after the WDC study.
/// Enumerator order is the stable wire id — append only, never reorder.
/// Per-channel behaviour (rendering, extraction, matching, spread model)
/// lives in the AttributeSpec registry (extract/attribute_registry.h),
/// not in switch statements.
enum class Attribute : int {
  kIsbn = 0,
  kPhone,
  kHomepage,
  kReviews,
  kMicrodata,
  kNumAttributes,
};

constexpr int kNumDomains = static_cast<int>(Domain::kNumDomains);

/// Display name for `d` ("Books", "Hotels & Lodging", ...).
std::string_view DomainName(Domain d);

/// Lowercase flag name for `d` ("books", "hotels", ...): the `--domain`
/// vocabulary of wsdctl and the `?domain=` vocabulary of wsdd.
std::string_view DomainFlagName(Domain d);

/// Inverse of DomainFlagName, case-insensitive. nullopt when unknown.
std::optional<Domain> ParseDomain(std::string_view name);

/// Every flag name in Table 1 order, joined by `sep` (help and error
/// text).
std::string DomainVocabulary(std::string_view sep);

/// Display name for `a` ("ISBN", "phone", ...). Defined by the attribute
/// registry (extract/attribute_registry.cc); this is the display form, the
/// lowercase query vocabulary is AttributeSpec::name.
std::string_view AttributeName(Attribute a);

/// The NameKind used to generate display names in domain `d`.
NameKind NameKindFor(Domain d);

/// Table 1: the attributes studied for domain `d`. Books -> {ISBN};
/// Restaurants -> {phone, homepage, reviews}; the other seven local
/// business domains -> {phone, homepage}. The explicit kMicrodata channel
/// is deliberately excluded so Table 1 / paper-pipeline outputs are
/// unchanged; study it via an explicit (domain, attr) request.
std::span<const Attribute> StudiedAttributes(Domain d);

/// All nine domains in Table 1 order.
std::span<const Domain> AllDomains();

/// The eight local business domains (everything except Books), in the
/// order Figures 1-2 present them.
std::span<const Domain> LocalBusinessDomains();

}  // namespace wsd

#endif  // WSD_ENTITY_DOMAINS_H_
