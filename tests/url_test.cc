#include "entity/url.h"

#include <gtest/gtest.h>

namespace wsd {
namespace {

TEST(UrlParseTest, BasicComponents) {
  auto url = ParseUrl("http://www.Example.com/path/page.html?q=1#frag");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->scheme, "http");
  EXPECT_EQ(url->host, "www.example.com");
  EXPECT_EQ(url->port, -1);
  EXPECT_EQ(url->path, "/path/page.html");
  EXPECT_EQ(url->query, "q=1");
}

TEST(UrlParseTest, DefaultsPathToSlash) {
  auto url = ParseUrl("https://example.com");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->path, "/");
  EXPECT_EQ(url->ToString(), "https://example.com/");
}

TEST(UrlParseTest, ParsesPort) {
  auto url = ParseUrl("http://example.com:8080/x");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->port, 8080);
}

TEST(UrlParseTest, RejectsNonHttp) {
  EXPECT_FALSE(ParseUrl("ftp://example.com/").has_value());
  EXPECT_FALSE(ParseUrl("mailto:a@b.com").has_value());
  EXPECT_FALSE(ParseUrl("/relative/path").has_value());
  EXPECT_FALSE(ParseUrl("javascript:void(0)").has_value());
  EXPECT_FALSE(ParseUrl("").has_value());
  EXPECT_FALSE(ParseUrl("http://").has_value());
  EXPECT_FALSE(ParseUrl("http://:8080/").has_value());
}

TEST(UrlParseTest, RejectsBadPort) {
  EXPECT_FALSE(ParseUrl("http://example.com:notaport/").has_value());
  EXPECT_FALSE(ParseUrl("http://example.com:99999/").has_value());
}

TEST(UrlParseTest, FragmentBeforePathIsHandled) {
  auto url = ParseUrl("http://example.com#frag");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->host, "example.com");
  EXPECT_EQ(url->path, "/");
}

TEST(UrlParseTest, QueryWithoutPath) {
  auto url = ParseUrl("http://example.com?q=v");
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->path, "/");
  EXPECT_EQ(url->query, "q=v");
}

TEST(NormalizeHostTest, LowercasesAndStripsWww) {
  EXPECT_EQ(NormalizeHost("WWW.Yelp.COM"), "yelp.com");
  EXPECT_EQ(NormalizeHost("yelp.com"), "yelp.com");
  EXPECT_EQ(NormalizeHost("www.example.co.uk"), "example.co.uk");
  // Only a single leading www. label is stripped.
  EXPECT_EQ(NormalizeHost("www.www.example.com"), "www.example.com");
  // "www.com" should not normalize to an empty host... but it starts with
  // "www." and has size > 4, so the remaining "com" is kept.
  EXPECT_EQ(NormalizeHost("www.com"), "com");
  EXPECT_EQ(NormalizeHost("example.com."), "example.com");
}

TEST(CanonicalizeHomepageTest, NormalizesEquivalentSpellings) {
  const std::string expected = "mariosgrill.com";
  EXPECT_EQ(CanonicalizeHomepage("http://www.mariosgrill.com/"), expected);
  EXPECT_EQ(CanonicalizeHomepage("https://mariosgrill.com"), expected);
  EXPECT_EQ(CanonicalizeHomepage("HTTP://MARIOSGRILL.COM/"), expected);
  EXPECT_EQ(CanonicalizeHomepage("http://mariosgrill.com//"), expected);
}

TEST(CanonicalizeHomepageTest, KeepsDistinctPaths) {
  EXPECT_EQ(CanonicalizeHomepage("http://host.com/menu/"),
            "host.com/menu");
  EXPECT_NE(CanonicalizeHomepage("http://host.com/menu"),
            CanonicalizeHomepage("http://host.com/"));
}

TEST(CanonicalizeHomepageTest, EmptyForUnparseable) {
  EXPECT_EQ(CanonicalizeHomepage("not a url"), "");
  EXPECT_EQ(CanonicalizeHomepage("/relative"), "");
}

}  // namespace
}  // namespace wsd
