// common/json_writer + common/json_reader: escaping, deterministic number
// formatting, document structure, and write → parse round-trips — the
// properties the byte-identical JSON documents (tsf_tables, tsf-metrics/1)
// rest on.
#include <cmath>
#include <cstdlib>

#include "common/json_reader.h"
#include "common/json_writer.h"
#include "gtest/gtest.h"

namespace tsf::common {
namespace {

TEST(JsonEscape, BasicAndControlCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab\rcr"), "line\\nbreak\\ttab\\rcr");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json_escape("b\bf\f"), "b\\bf\\f");
  // UTF-8 passes through untouched.
  EXPECT_EQ(json_escape("café"), "café");
}

TEST(JsonEscape, UnescapeInvertsEscape) {
  const std::string tricky[] = {
      "", "plain", "a\"b\\c", "line\nbreak\ttab", std::string("\x01\x02", 2),
      "trailing backslash in data \\", "café", "quote at end\""};
  for (const auto& s : tricky) {
    std::string back;
    ASSERT_TRUE(json_unescape(json_escape(s), &back)) << s;
    EXPECT_EQ(back, s);
  }
}

TEST(JsonEscape, UnescapeHandlesUnicodeEscapes) {
  std::string out;
  ASSERT_TRUE(json_unescape("caf\\u00e9", &out));
  EXPECT_EQ(out, "café");
  ASSERT_TRUE(json_unescape("\\u0041", &out));
  EXPECT_EQ(out, "A");
  ASSERT_TRUE(json_unescape("\\u20ac", &out));  // three-byte UTF-8
  EXPECT_EQ(out, "\xe2\x82\xac");
}

TEST(JsonEscape, UnescapeRejectsMalformedEscapes) {
  std::string out;
  EXPECT_FALSE(json_unescape("dangling\\", &out));
  EXPECT_FALSE(json_unescape("\\q", &out));
  EXPECT_FALSE(json_unescape("\\u12", &out));
  EXPECT_FALSE(json_unescape("\\u12zz", &out));
}

TEST(JsonEscape, UnescapeDecodesSurrogatePairsToAstralCodePoints) {
  std::string out;
  // U+1F600 GRINNING FACE as a \uXXXX\uXXXX UTF-16 surrogate pair must
  // decode to the 4-byte UTF-8 code point, not to two CESU-8 garbage
  // sequences (the round-trip bug for astral characters in spec names).
  ASSERT_TRUE(json_unescape("\\ud83d\\ude00", &out));
  EXPECT_EQ(out, "\xf0\x9f\x98\x80");
  ASSERT_TRUE(json_unescape("x\\uD83D\\uDE00y", &out));  // upper-case hex too
  EXPECT_EQ(out, "x\xf0\x9f\x98\x80y");
  // First and last astral code points.
  ASSERT_TRUE(json_unescape("\\ud800\\udc00", &out));
  EXPECT_EQ(out, "\xf0\x90\x80\x80");
  ASSERT_TRUE(json_unescape("\\udbff\\udfff", &out));
  EXPECT_EQ(out, "\xf4\x8f\xbf\xbf");
}

TEST(JsonEscape, UnescapeRejectsLoneSurrogates) {
  std::string out;
  EXPECT_FALSE(json_unescape("\\ud83d", &out));          // lone high half
  EXPECT_FALSE(json_unescape("\\ud83d tail", &out));     // high + plain text
  EXPECT_FALSE(json_unescape("\\ud83d\\u0041", &out));   // high + BMP escape
  EXPECT_FALSE(json_unescape("\\ud83d\\ud83d", &out));   // high + high
  EXPECT_FALSE(json_unescape("\\ude00", &out));          // lone low half
  EXPECT_FALSE(json_unescape("\\ude00\\ud83d", &out));   // reversed pair
}

TEST(JsonReader, AstralSpecNameRoundTripsThroughWriterAndParser) {
  // A name containing an astral code point survives writer → parser →
  // writer byte-identically (the writer emits raw UTF-8, the parser must
  // hand the same bytes back whether they arrive raw or escaped).
  const std::string name = "set \xf0\x9f\x98\x80 7";
  JsonWriter writer;
  writer.begin_object();
  writer.key("name").value(name);
  writer.end_object();
  const std::string doc = writer.take();

  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(json_parse(doc, &parsed, &error)) << error;
  EXPECT_EQ(parsed.find("name")->as_string(), name);

  // The same name arriving as UTF-16 escapes parses to the same bytes…
  JsonValue escaped;
  ASSERT_TRUE(json_parse("{\"name\": \"set \\ud83d\\ude00 7\"}", &escaped,
                         &error))
      << error;
  EXPECT_EQ(escaped.find("name")->as_string(), name);
  // …while a lone surrogate is a clean parse error, not garbage.
  JsonValue bad;
  EXPECT_FALSE(json_parse("{\"name\": \"set \\ud83d 7\"}", &bad, &error));
}

TEST(JsonDouble, ShortestFormRoundTripsExactly) {
  const double values[] = {0.0,    1.0,         0.1,    1.0 / 3.0, 1e-17,
                           1e300,  -2.5,        1983.0, 8.4226905555555558,
                           0.625,  123456789.0, 3.5e-5};
  for (const double x : values) {
    const std::string s = json_double(x);
    const double back = std::strtod(s.c_str(), nullptr);
    EXPECT_EQ(back, x) << s;
  }
}

TEST(JsonDouble, NonFiniteBecomesNull) {
  EXPECT_EQ(json_double(std::nan("")), "null");
  EXPECT_EQ(json_double(INFINITY), "null");
}

TEST(JsonWriter, DocumentShape) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("tsf-test/1");
  w.key("count").value(2);
  w.key("items").begin_array();
  w.value(1.5);
  w.begin_object();
  w.key("ok").value(true);
  w.key("note").null();
  w.end_object();
  w.end_array();
  w.key("empty").begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\n"
            "  \"schema\": \"tsf-test/1\",\n"
            "  \"count\": 2,\n"
            "  \"items\": [\n"
            "    1.5,\n"
            "    {\n"
            "      \"ok\": true,\n"
            "      \"note\": null\n"
            "    }\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}\n");
}

TEST(JsonReader, ParsesWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("cell \"a\"\n");
  w.key("aart").value(8.4226905555555558);
  w.key("systems").value(std::uint64_t{10});
  w.key("flags").begin_array();
  w.value(true).value(false).null();
  w.end_array();
  w.end_object();
  const std::string doc = w.take();

  JsonValue v;
  std::string error;
  ASSERT_TRUE(json_parse(doc, &v, &error)) << error;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("name")->as_string(), "cell \"a\"\n");
  EXPECT_EQ(v.find("aart")->as_number(), 8.4226905555555558);
  EXPECT_EQ(v.find("systems")->as_number(), 10.0);
  const auto& flags = v.find("flags")->as_array();
  ASSERT_EQ(flags.size(), 3u);
  EXPECT_TRUE(flags[0].as_bool());
  EXPECT_FALSE(flags[1].as_bool());
  EXPECT_TRUE(flags[2].is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonReader, MembersPreserveDocumentOrder) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(json_parse(R"({"z": 1, "a": 2, "z": 3})", &v, &error)) << error;
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
  // Duplicate keys keep the last occurrence on lookup.
  EXPECT_EQ(v.find("z")->as_number(), 3.0);
}

TEST(JsonReader, ParsesNumbers) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(json_parse("[-0.5, 1e3, 2.5E-2, 1983]", &v, &error)) << error;
  const auto& a = v.as_array();
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a[0].as_number(), -0.5);
  EXPECT_EQ(a[1].as_number(), 1000.0);
  EXPECT_EQ(a[2].as_number(), 0.025);
  EXPECT_EQ(a[3].as_number(), 1983.0);
}

TEST(JsonReader, RejectsMalformedDocuments) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(json_parse("{\"a\": }", &v, &error));
  EXPECT_FALSE(json_parse("{\"a\": 1,}", &v, &error));
  EXPECT_FALSE(json_parse("[1 2]", &v, &error));
  EXPECT_FALSE(json_parse("\"unterminated", &v, &error));
  EXPECT_FALSE(json_parse("{\"a\": 1} trailing", &v, &error));
  EXPECT_FALSE(json_parse("tru", &v, &error));
  EXPECT_FALSE(json_parse("{\"bad\\q\": 1}", &v, &error));
  EXPECT_FALSE(json_parse("", &v, &error));
  // Depth bound.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(json_parse(deep, &v, &error));
}

}  // namespace
}  // namespace tsf::common
