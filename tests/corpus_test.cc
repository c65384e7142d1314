#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "corpus/web_cache.h"
#include "entity/url.h"
#include "extract/matcher.h"
#include "html/text_extract.h"

namespace wsd {
namespace {

// Test-local wrapper over the scratch-based matcher entry point.
std::vector<EntityId> MatchPage(const EntityMatcher& matcher,
                                std::string_view content) {
  MatchScratch scratch;
  return matcher.MatchPageInto(content, &scratch);
}

SyntheticWeb MakeWeb(Attribute attr, uint32_t entities = 400,
                     uint32_t sites = 300, uint64_t seed = 7) {
  SyntheticWeb::Config config;
  config.domain = attr == Attribute::kIsbn ? Domain::kBooks
                                           : Domain::kRestaurants;
  config.attr = attr;
  config.num_entities = entities;
  config.seed = seed;
  SpreadParams params = DefaultSpreadParams(config.domain, attr);
  params.num_sites = sites;
  config.spread = params;
  auto web = SyntheticWeb::Create(config);
  EXPECT_TRUE(web.ok()) << web.status();
  return std::move(web).value();
}

TEST(SyntheticWebTest, RejectsZeroEntities) {
  SyntheticWeb::Config config;
  config.num_entities = 0;
  EXPECT_FALSE(SyntheticWeb::Create(config).ok());
}

TEST(PageGenTest, PagesCarryExtractableIdentifiers) {
  const SyntheticWeb web = MakeWeb(Attribute::kPhone);
  const EntityMatcher matcher(web.catalog(), Attribute::kPhone);
  // Every mention of site 0 must be recoverable from the rendered pages.
  std::set<EntityId> expected;
  for (const SiteMention* m = web.model().site_begin(0);
       m != web.model().site_end(0); ++m) {
    expected.insert(m->entity);
  }
  std::set<EntityId> extracted;
  std::string text;
  web.GeneratePages(0, [&](const Page& page, const PageTruth&) {
    text.clear();
    html::ExtractVisibleTextInto(page.html, &text);
    for (EntityId id : MatchPage(matcher, text)) {
      extracted.insert(id);
    }
  });
  EXPECT_EQ(extracted, expected);
}

TEST(PageGenTest, HomepagePagesCarryAnchors) {
  const SyntheticWeb web = MakeWeb(Attribute::kHomepage);
  const EntityMatcher matcher(web.catalog(), Attribute::kHomepage);
  std::set<EntityId> expected, extracted;
  for (const SiteMention* m = web.model().site_begin(0);
       m != web.model().site_end(0); ++m) {
    expected.insert(m->entity);
  }
  web.GeneratePages(0, [&](const Page& page, const PageTruth&) {
    for (EntityId id : MatchPage(matcher, page.html)) extracted.insert(id);
  });
  EXPECT_EQ(extracted, expected);
}

TEST(PageGenTest, CountPagesMatchesGeneration) {
  const SyntheticWeb web = MakeWeb(Attribute::kPhone);
  for (SiteId s : {0u, 1u, 50u, 299u}) {
    uint32_t generated = 0;
    web.GeneratePages(s,
                      [&](const Page&, const PageTruth&) { ++generated; });
    EXPECT_EQ(web.generator().CountPages(s), generated) << "site " << s;
  }
}

TEST(PageGenTest, DeterministicPerSite) {
  const SyntheticWeb a = MakeWeb(Attribute::kPhone);
  const SyntheticWeb b = MakeWeb(Attribute::kPhone);
  std::vector<std::string> pages_a, pages_b;
  a.GeneratePages(3, [&](const Page& p, const PageTruth&) {
    pages_a.push_back(p.html);
  });
  b.GeneratePages(3, [&](const Page& p, const PageTruth&) {
    pages_b.push_back(p.html);
  });
  EXPECT_EQ(pages_a, pages_b);
}

TEST(PageGenTest, PageUrlsBelongToTheirHost) {
  const SyntheticWeb web = MakeWeb(Attribute::kPhone);
  web.GeneratePages(5, [&](const Page& page, const PageTruth& truth) {
    EXPECT_EQ(truth.site, 5u);
    auto url = ParseUrl(page.url);
    ASSERT_TRUE(url.has_value()) << page.url;
    EXPECT_EQ(url->host, web.host(5));
  });
}

TEST(PageGenTest, ReviewPagesMatchTruthFraction) {
  SyntheticWeb::Config config;
  config.domain = Domain::kRestaurants;
  config.attr = Attribute::kReviews;
  config.num_entities = 300;
  config.seed = 13;
  SpreadParams params =
      DefaultSpreadParams(Domain::kRestaurants, Attribute::kReviews);
  params.num_sites = 200;
  config.spread = params;
  config.page_options.review_fraction = 0.6;
  auto web = SyntheticWeb::Create(config);
  ASSERT_TRUE(web.ok());

  uint64_t reviews = 0, total = 0;
  for (SiteId s = 0; s < web->num_hosts(); ++s) {
    web->GeneratePages(s, [&](const Page&, const PageTruth& truth) {
      reviews += truth.is_review_page;
      ++total;
    });
  }
  ASSERT_GT(total, 500u);
  EXPECT_NEAR(static_cast<double>(reviews) / static_cast<double>(total),
              0.6, 0.05);
}


TEST(PageGenTest, AllThreeLayoutFamiliesAppear) {
  const SyntheticWeb web = MakeWeb(Attribute::kPhone, 2000, 200);
  bool saw_table = false, saw_list = false, saw_div = false;
  for (SiteId s = 0; s < web.num_hosts() && !(saw_table && saw_list &&
                                              saw_div); ++s) {
    web.GeneratePages(s, [&](const Page& page, const PageTruth&) {
      if (page.html.find("<table class=\"listings\">") != std::string::npos)
        saw_table = true;
      if (page.html.find("<ul class=\"listings\">") != std::string::npos)
        saw_list = true;
      if (page.html.find("<div class=\"listing\">") != std::string::npos)
        saw_div = true;
    });
  }
  EXPECT_TRUE(saw_table);
  EXPECT_TRUE(saw_list);
  EXPECT_TRUE(saw_div);
}

TEST(WebCacheIoTest, RoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "wsd_cache_test.bin")
          .string();
  const SyntheticWeb web = MakeWeb(Attribute::kPhone, 100, 50);

  WebCacheWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  std::vector<Page> original;
  for (SiteId s = 0; s < 10; ++s) {
    web.GeneratePages(s, [&](const Page& page, const PageTruth&) {
      original.push_back(page);
      ASSERT_TRUE(writer.Append(page).ok());
    });
  }
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.pages_written(), original.size());

  std::vector<Page> loaded;
  ASSERT_TRUE(
      ReadWebCache(path, [&](const Page& page) { loaded.push_back(page); })
          .ok());
  ASSERT_EQ(loaded.size(), original.size());
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].url, original[i].url);
    EXPECT_EQ(loaded[i].html, original[i].html);
  }
  std::remove(path.c_str());
}

TEST(WebCacheIoTest, DetectsCorruption) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "wsd_cache_bad.bin")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "WSDCACHE1\n";
    const char truncated[4] = {5, 0, 0, 0};  // url_len = 5, nothing after
    out.write(truncated, 2);                 // and even the prefix is cut
  }
  auto status = ReadWebCache(path, [](const Page&) {});
  EXPECT_TRUE(status.IsCorruption()) << status;
  std::remove(path.c_str());

  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTACACHE!";
  }
  EXPECT_TRUE(ReadWebCache(path, [](const Page&) {}).IsCorruption());
  std::remove(path.c_str());
}

TEST(WebCacheIoTest, WriterErrors) {
  WebCacheWriter writer;
  EXPECT_TRUE(writer.Append(Page{}).code() ==
              StatusCode::kFailedPrecondition);
  EXPECT_TRUE(writer.Open("/nonexistent/dir/cache.bin").IsIOError());
  EXPECT_TRUE(ReadWebCache("/nonexistent/cache.bin", [](const Page&) {})
                  .IsIOError());
}

}  // namespace
}  // namespace wsd
